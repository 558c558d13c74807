"""Layer ladder: each layer of the ring timed alone on fixed operands.

The end-to-end benchmark (``perfbench/``) times whole CLI calls and
strata; this file times one layer at a time, from a ``ParamPoly`` product up
to Gysin extraction, so a change to one layer shows where its time went.
Every operand is built once, outside the timed call.  It needs
``pytest-benchmark`` and is not part of the test suite (``testpaths`` is
``tests``).  Run it from the repository root, save a run on the parent
commit, and compare the change with it:

    PYTHONPATH=src python -m pytest benchmarks/test_layers.py --benchmark-autosave
    PYTHONPATH=src python -m pytest benchmarks/test_layers.py --benchmark-compare

The rows run from small to large: the small products are the ones a
per-product set-up cost would slow, the large ones those the product
kernel is for.  The last row is the cold start every CLI process pays.
"""

import pathlib
import subprocess
import sys

import pytest

from bistrata.coeffring import ParamPoly
from bistrata.cohring import CohClass, VarSpec, product_of
from bistrata.collide import SingularitySpec
from bistrata.degrees import _memoised_degree, gysin_degree, stratum_degree
from bistrata.divisors import incidence_class, kill_tangent_cone_class, omp_conditions_class
from bistrata.strata import (_two_omp_factors, _two_omp_product, cone_line_names,
                             kbranch_stratum, node_pair_recursion_parts, node_pair_stratum,
                             two_omp_stratum)

XYL = VarSpec.projective(("X", "Y", "L"))


@pytest.fixture(scope="module")
def node_pair_parts():
    """Dividend and kill divisor of the node-pair recursion for kbranch 1^5,
    and the quotient whose check product is the largest of strata-heavy."""
    rhs, kill, _, _ = node_pair_recursion_parts(SingularitySpec.kbranch(1, 1, 1, 1, 1))
    return rhs, kill, rhs.divide_exact(kill)


def test_parampoly_mul(benchmark):
    a = ParamPoly((-66, 81, 12, -36, 9))
    b = ParamPoly((123456789, -987654321, 55555))
    got = benchmark(a.__mul__, b)
    assert got.degree() == 6 and all(got(d) == a(d) * b(d) for d in range(7))


def test_parampoly_add(benchmark):
    a = ParamPoly((-66, 81, 12, -36, 9))
    b = ParamPoly((123456789, -987654321, 55555))
    assert benchmark(a.__add__, b).coeffs == (123456723, -987654240, 55567, -36, 9)


def test_divisor_times_divisor(benchmark):
    a = CohClass.divisor(XYL, 1, {"X": ParamPoly((-3, 1)), "L": 2})
    b = CohClass.divisor(XYL, 1, {"Y": ParamPoly((-1, 1)), "X": 1})
    got = benchmark(a.__mul__, b)
    assert got.coefficient({"X": 1, "Y": 1}) == ParamPoly((-3, 1)) * ParamPoly((-1, 1))


def test_class_times_divisor(benchmark, node_pair_parts):
    # the final check product of divide_exact: 2,112 terms times 7
    rhs, kill, quotient = node_pair_parts
    assert len(quotient.terms) == 2112 and len(kill.terms) == 7
    assert benchmark(quotient.__mul__, kill) == rhs


def test_general_product(benchmark):
    a = _two_omp_product(XYL, 3, 1)
    b = _two_omp_product(XYL, 4, 2)
    assert len(a.terms) == len(b.terms) == 21
    assert benchmark(a.__mul__, b).total_degree == a.total_degree + b.total_degree


def test_power(benchmark):
    # the 28th power inside omp_conditions_class(ambient, 6)
    base = CohClass.divisor(XYL, 1, {"X": ParamPoly((-6, 1))})
    assert benchmark(base.__pow__, 28) == omp_conditions_class(XYL, 6)


def test_product_of(benchmark):
    factors = _two_omp_factors(XYL, 6, 3)
    assert len(factors) == 13
    assert benchmark(product_of, factors) == _two_omp_product(XYL, 6, 3)


def test_divide_cusp_node_pair(benchmark):
    # the small end of the division: cusp:9 beside a node
    rhs, kill, _, _ = node_pair_recursion_parts(SingularitySpec.cusp(9))
    quotient = benchmark(rhs.divide_exact, kill)
    assert quotient == node_pair_stratum(SingularitySpec.cusp(9)).cls


def test_divide_kbranch_conditions(benchmark):
    # kbranch (3,1,1,1,1): the ordinary-point conditions and incidences
    # divided by the cone-kill divisor, as kbranch_stratum does
    mults = (3, 1, 1, 1, 1)
    names = cone_line_names(len(mults))
    ambient = VarSpec.projective(("X",) + names)
    conditions = product_of([omp_conditions_class(ambient, sum(mults))]
                            + [incidence_class(ambient, "X", name) for name in names])
    kill = kill_tangent_cone_class(ambient, sum(mults), list(zip(names, mults)))
    assert benchmark(conditions.divide_exact, kill) == kbranch_stratum(*mults).cls


def test_divide_exact(benchmark, node_pair_parts):
    rhs, kill, quotient = node_pair_parts
    assert benchmark(rhs.divide_exact, kill) == quotient


def test_to_json(benchmark, node_pair_parts):
    # the node-pair kbranch 1^5 quotient: every exponent tuple is decoded here
    _, _, quotient = node_pair_parts
    data = benchmark(quotient.to_json)
    assert len(data["terms"]) == 2112 and CohClass.from_json(data) == quotient


def test_from_json(benchmark, node_pair_parts):
    _, _, quotient = node_pair_parts
    assert benchmark(CohClass.from_json, quotient.to_json()) == quotient


def test_gysin_degree(benchmark):
    s = kbranch_stratum(1, 1, 1, 1, 1)
    assert benchmark(gysin_degree, s).degree == s.cls.coefficient(s.ambient.top_exponent())


# One table cell, omp:15 beside omp:8, through the degree entry point: a
# warm process reads it from the memo, a fresh one builds it.

def test_stratum_degree_memo_hit(benchmark):
    sx, sy = SingularitySpec.omp(15), SingularitySpec.omp(8)
    want = stratum_degree(sx, sy)  # fills the entry
    assert benchmark(stratum_degree, sy, sx) is want


def test_stratum_degree_cold(benchmark):
    sx, sy = SingularitySpec.omp(15), SingularitySpec.omp(8)
    got = benchmark.pedantic(stratum_degree, args=(sx, sy), setup=_memoised_degree.cache_clear,
                             rounds=100, warmup_rounds=1)
    assert got == gysin_degree(two_omp_stratum(14, 7))


# A CLI process imports ``bistrata.cli`` before it does anything else.  The
# interpreter runs with -S, so installed ``.pth`` hooks add nothing: the row
# is a bare interpreter start plus the package's own import.

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
COLD_IMPORT = [sys.executable, "-S", "-c",
               f"import sys; sys.path.insert(0, {str(SRC)!r}); import bistrata.cli"]


def test_cold_import_cli(benchmark):
    done = benchmark.pedantic(subprocess.run, args=(COLD_IMPORT,),
                              kwargs={"capture_output": True, "check": True},
                              rounds=20, warmup_rounds=1)
    assert done.returncode == 0 and done.stderr == b""
