"""Acceptance criteria, one test per criterion, each timed against its budget.

Every expected value here is either a hand expansion recorded in the
assertion, a transcribed closed form checked for integrality, or a value
computed by an independent route inside the package.
"""

import io
import time

import pytest

from bistrata.cli import main
from bistrata.coeffring import ParamPoly
from bistrata.cohring import VarSpec
from bistrata.collide import NewtonDiagram, SingularitySpec
from bistrata.degrees import (
    closed_form_in_p,
    gysin_degree,
    reference_kbranch,
    reference_omp,
    reference_pair_correction,
    reference_two_omp,
)
from bistrata.divisors import incidence_class
from bistrata.strata import (
    _diagram_factors,
    _multiplied_out,
    kbranch_stratum,
    node_pair_stratum,
    stratum_for,
    two_omp_stratum,
)
from bistrata.verify import (
    corollary_checks,
    integrality_checks,
    interpolation_checks,
    one_point_checks,
    recursion_checks,
    ring_checks,
)


def _report(number, title, budget, elapsed, ok):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {title} ({elapsed:.2f}s, budget {budget}s)",
          flush=True)


def _run(number, title, budget, body):
    start = time.perf_counter()
    failures = []
    try:
        failures = body()
    finally:
        elapsed = time.perf_counter() - start
        _report(number, title, budget, elapsed, not failures)
    assert not failures, failures
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"


def _failed(checks):
    return [name for name, ok, _ in checks if not ok]


def test_criterion_1_ring_suite():
    _run(1, "ring suite: nilpotency, 1000 random triples, pushforward identity",
         1.0, lambda: _failed(ring_checks(triples=1000)))


def test_criterion_2_one_point_suite():
    def body():
        failures = _failed(one_point_checks())
        # spot assertions pinned directly
        dm = lambda a: ParamPoly((-a, 1))
        if gysin_degree(stratum_for(SingularitySpec.cusp(2))).degree is None:
            failures.append("cusp stratum missing")
        for p in range(1, 11):
            from bistrata.strata import omp_stratum
            if gysin_degree(omp_stratum(p)).degree != reference_omp(p):
                failures.append(f"omp p={p}")
        for p in range(2, 7):
            ambient = VarSpec.projective(("X", "L1"))
            nd = NewtonDiagram.from_points([(p, 0), (0, p + 1)])
            chain = _multiplied_out([(1, _diagram_factors(nd, ambient, line="L1"))])
            if chain * incidence_class(ambient, "X", "L1") != kbranch_stratum(p).cls:
                failures.append(f"diagram chain/cone-kill division p={p}")
        return failures
    _run(2, "one-point suite: ordinary points p=1..10, cusp diagram chain against "
            "the cone-kill division p=2..6, kbranch 1^k against omp:k k=2..5, "
            "cusp degree 12(d-1)(d-2)", 1.0, body)


def test_criterion_3_two_point_main_suite():
    def body():
        failures = []
        for q in (1, 2, 3):
            for p in range(q, 7):
                got = gysin_degree(two_omp_stratum(p, q))
                if got.degree != reference_two_omp(p, q):
                    failures.append(f"(p={p}, q={q})")
        both = gysin_degree(two_omp_stratum(1, 1))
        if both.value_at(3) != 21:
            failures.append("spot value d=3")
        if both.value_at(4) != 225:
            failures.append("spot value d=4")
        return failures
    _run(3, "two-point suite: closed forms q=1 (p<=6), q=2, q=3; spot values 21/225",
         5.0, body)


def test_criterion_4_interpolation_suite():
    def body():
        failures = _failed(interpolation_checks())
        fam = lambda p: gysin_degree(two_omp_stratum(p, 1)).degree
        form = closed_form_in_p(fam, 1, 8)
        printed = closed_form_in_p(lambda p: reference_two_omp(p, 1), 1, 8)
        if form.grid != printed.grid:
            failures.append("printed q=1 grid")
        if form.at_p(9) != fam(9):
            failures.append("held-out p=9")
        return failures
    _run(4, "interpolation suite: q=1 closed form from p=1..8, held-out p=9",
         5.0, body)


def test_criterion_5_recursion_suite():
    def body():
        failures = _failed(recursion_checks())
        for p in (3, 4):
            got = gysin_degree(node_pair_stratum(SingularitySpec.cusp(p)))
            want = (reference_kbranch((p,)) * reference_omp(1)
                    + reference_pair_correction("cusp-node", p))
            if got.degree != want:
                failures.append(f"cusp+node p={p}")
        return failures
    _run(5, "recursion suite: cone-killing recursion reproduces the "
            "cusp-beside-node closed form for p=3,4", 10.0, body)


def test_criterion_6_integrality_and_parity():
    _run(6, "integrality of every catalog formula on 1<=q<=p<=8, "
            "validity..validity+5; evenness for equal multiplicities",
         5.0, lambda: _failed(integrality_checks(p_max=8, q_max=8)))


def test_criterion_7_table_determinism():
    def body():
        argv = ["table", "--family", "two-omp", "--p-range", "1..5",
                "--q-range", "1..3", "--d", "12"]
        outputs = []
        for _ in range(2):
            out = io.StringIO()
            code = main(list(argv), stdout=out, stderr=io.StringIO())
            if code != 0:
                return [f"table exit code {code}"]
            outputs.append(out.getvalue().encode())
        if outputs[0] != outputs[1]:
            return ["outputs differ between runs"]
        return []
    _run(7, "determinism: two-omp table p=1..5, q=1..3, d=12 is byte-identical",
         10.0, body)


def test_corollary_suite_checks_all_pass():
    assert _failed(corollary_checks()) == []
