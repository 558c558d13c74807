"""The identity suites check what the command line prints, on the same data
every call."""

import io
import random

import pytest

from bistrata import coeffring, degrees, strata, verify
from bistrata.cli import main
from bistrata.coeffring import ParamPoly
from bistrata.cohring import CohClass
from bistrata.collide import SingularitySpec
from bistrata.degrees import DegreeResult


def _randint_poly(rng):
    # the ring suite's draw as first written, through random.randint
    return ParamPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])


def test_ring_suite_draws_the_randint_stream():
    fast, reference = random.Random(20260809), random.Random(20260809)
    for _ in range(3000):  # the 1000 triples of a ring suite call
        assert verify._random_poly(fast) == _randint_poly(reference)
    assert fast.getstate() == reference.getstate()


def test_ring_suite_draws_once_per_process(monkeypatch):
    verify._ring_triples.cache_clear()
    draws, products = [], []
    real_draw, real_mul = verify._random_poly, ParamPoly.__mul__

    def counted_draw(rng):
        draws.append(1)
        return real_draw(rng)

    def counted_mul(self, other):
        products.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(verify, "_random_poly", counted_draw)
    first = verify.ring_checks()
    assert len(draws) == 3000
    # the memo holds the draws in stream order
    rng = random.Random(20260809)
    assert verify._ring_triples(1000, 20260809) == tuple(
        (real_draw(rng), real_draw(rng), real_draw(rng)) for _ in range(1000))
    draws.clear()
    monkeypatch.setattr(ParamPoly, "__mul__", counted_mul)
    second = verify.ring_checks()
    monkeypatch.setattr(ParamPoly, "__mul__", real_mul)
    # no draw, yet every triple is multiplied again: 7 products each
    assert draws == [] and len(products) == 7000
    assert second == first and all(ok for _, ok, _ in second)
    # another (triples, seed) draws afresh, and evicts the one entry
    assert all(ok for _, ok, _ in verify.ring_checks(triples=10, seed=7))
    assert len(draws) == 30
    assert verify._ring_triples.cache_info().currsize == 1
    verify.ring_checks()
    assert len(draws) == 3030


def test_commutativity_compares_two_kernels_on_826_triples():
    # ``ab == b * a`` multiplies through the (la, lb) entry of the product
    # table on one side and the (lb, la) entry on the other: two kernels, not
    # one computation compared with itself
    unequal = [(len(a.coeffs), len(b.coeffs)) for a, b, _ in verify._ring_triples(1000, 20260809)
               if len(a.coeffs) != len(b.coeffs)]
    assert len(unequal) == 826
    table = coeffring._MUL
    saved = [list(row) for row in table]
    used = set()
    for la, row in enumerate(table):
        for lb, entry in enumerate(row):
            def spy(a, b, _entry=entry, _shape=(la, lb)):
                used.add(_shape)
                return _entry(a, b)
            row[lb] = spy
    try:
        assert verify.ring_checks()[0][1]
    finally:
        for row, entries in zip(table, saved):
            row[:] = entries
    assert all((la, lb) in used and (lb, la) in used for la, lb in unequal)


def test_ring_axioms_fail_on_a_wrong_kernel_of_one_ordered_shape():
    right = coeffring._compile("mul", 3, 2)

    def wrong(a, b):  # the top entry off by one, on (3, 2) only
        top = right(a, b).coeffs
        return ParamPoly(top[:-1] + (top[-1] + 1,))

    coeffring._MUL[3][2] = wrong
    try:
        a, b = ParamPoly([1, 2, 3]), ParamPoly([4, 5])
        assert a * b != b * a
        name, ok, _ = verify.ring_checks()[0]
    finally:
        coeffring._MUL[3][2] = right
    assert name == "coefficient ring axioms on 1000 random triples" and not ok
    assert verify.ring_checks()[0][1]


@pytest.fixture
def clear_memo():
    memo = degrees._memoised_degree
    memo.cache_clear()
    yield
    memo.cache_clear()


def test_warm_suites_build_only_their_fresh_identities(clear_memo, monkeypatch):
    assert all(ok for _, ok, _ in verify.run_suite("all"))
    built = []
    for name in ("two_omp_stratum", "node_pair_stratum"):
        real = getattr(strata, name)

        def spy(*args, _name=name, _real=real):
            built.append((_name, args))
            return _real(*args)

        # stratum_for looks the builders up in strata, verify in itself
        monkeypatch.setattr(strata, name, spy)
        monkeypatch.setattr(verify, name, spy)
    for suite in ("corollary", "interpolation", "recursion"):
        assert all(ok for _, ok, _ in verify.run_suite(suite))
    # the memo check of cusp:4, and cusp:3, whose divided class is compared
    # with the printed cusp-node row
    assert built == [("two_omp_stratum", (6, 3)),
                     ("node_pair_stratum", (SingularitySpec.cusp(4),)),
                     ("node_pair_stratum", (SingularitySpec.cusp(3),))]


def test_verify_fails_on_a_wrong_memo_entry(clear_memo, monkeypatch):
    real = degrees._memoised_degree
    bad_key = (SingularitySpec.omp(4), SingularitySpec.omp(2))

    def wrong(sx, sy):
        got = real(sx, sy)
        if (sx, sy) == bad_key:
            return DegreeResult(got.degree + 1, got.aut_applied, got.valid_from_d, got.route)
        return got

    monkeypatch.setattr(degrees, "_memoised_degree", wrong)
    out = io.StringIO()
    assert main(["verify", "--suite", "corollary"], out, io.StringIO()) == 1
    failed = [line for line in out.getvalue().splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL two ordinary points (p=3, q=1): product equals the closed form"]


def test_warm_suites_still_divide(clear_memo, monkeypatch):
    # degrees come from the kill series; the series identities read the
    # class of fresh strata, so a warm call still runs divide_exact
    for suite in ("appendix", "recursion"):
        verify.run_suite(suite)  # fills the degree memo
    divided = []
    real = CohClass.divide_exact

    def spy(dividend, kill):
        divided.append(kill.ambient.names)
        return real(dividend, kill)

    monkeypatch.setattr(CohClass, "divide_exact", spy)
    assert all(ok for _, ok, _ in verify.run_suite("appendix"))
    assert ("X", "L1", "L2") in divided and ("X", "L1", "L2", "L3") in divided
    divided.clear()
    assert all(ok for _, ok, _ in verify.run_suite("recursion"))
    # the fresh cusp:4 beside a node, and the fresh cusp:3 against the printed row
    assert divided == [("X", "Y", "L", "L1")] * 2
