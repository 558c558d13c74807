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

Separate runs of the ladder spread more than a change of a few percent;
``benchmarks/interleaved.py`` times two trees in one process instead.

The rows run from small to large: the small products are the ones a
per-product set-up cost would slow, the large ones those the product
kernel is for.  Then come whole calls as a warm process serves them, and
last the cold start every CLI process pays.
"""

import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from bistrata.cli import _class_json, main
from bistrata.coeffring import ParamPoly
from bistrata.cohring import CohClass, VarSpec, product_of
from bistrata.collide import SingularitySpec
from bistrata.degrees import _memoised_degree, gysin_degree, reference_kbranch, stratum_degree
from bistrata.divisors import incidence_class, kill_tangent_cone_class, omp_conditions_class
from bistrata.strata import (StratumClass, _memoised_stratum, _two_omp_factors,
                             cone_line_names, kbranch_stratum, node_pair_stratum,
                             stratum_for, two_omp_stratum)
from bistrata.verify import _ring_triples, run_suite

XYL = VarSpec.projective(("X", "Y", "L"))


@pytest.fixture(scope="module")
def node_pair_parts():
    """Dividend and kill divisor of the node-pair recursion for kbranch 1^5,
    and their quotient, which a ``class`` call divides out, read from
    ``node_pair_stratum``.  The dividend is the stratum's recipe multiplied
    out by class products, as the first read of ``cls`` does.  A degree
    builds neither: it reads the top coefficient from the recipe
    (``test_recipe_degree_node_pair``), so strata-heavy neither multiplies
    out nor divides."""
    s = node_pair_stratum(SingularitySpec.kbranch(1, 1, 1, 1, 1))
    return s.dividend, s.kill, s.cls


def test_parampoly_mul(benchmark):
    a = ParamPoly((-66, 81, 12, -36, 9))
    b = ParamPoly((123456789, -987654321, 55555))
    got = benchmark(a.__mul__, b)
    assert got.degree() == 6 and all(got(d) == a(d) * b(d) for d in range(7))


def test_parampoly_mul_ring_triples(benchmark):
    # the 7000 products of one ``verify --suite ring`` call, operands built
    # once: factors of 1-5 coefficients, the shapes the product kernels serve
    pairs = []
    for a, b, c in _ring_triples(1000, 20260809):
        pairs += [(a, b), (a * b, c), (b, c), (a, b * c), (b, a), (a, b + c), (a, c)]
    got = benchmark(lambda: [x * y for x, y in pairs])
    assert len(got) == 7000 and all(p(2) == x(2) * y(2) for p, (x, y) in zip(got, pairs))


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
    a = product_of(_two_omp_factors(XYL, 3, 1))
    b = product_of(_two_omp_factors(XYL, 4, 2))
    assert len(a.terms) == len(b.terms) == 21
    assert benchmark(a.__mul__, b).total_degree == a.total_degree + b.total_degree


def test_power(benchmark):
    # the 28th power inside omp_conditions_class(ambient, 6)
    base = CohClass.divisor(XYL, 1, {"X": ParamPoly((-6, 1))})
    assert benchmark(base.__pow__, 28) == omp_conditions_class(XYL, 6)


def test_product_of(benchmark):
    factors = _two_omp_factors(XYL, 6, 3)
    assert len(factors) == 13
    assert benchmark(product_of, factors) == two_omp_stratum(6, 3).cls


def test_stratum_for_cusp(benchmark):
    # a single cusp:9 built through the dispatch: a recipe of the condition
    # factor and 9 vertex kills over {X, L}, with no product; the stratum memo
    # is cleared before each call
    s = benchmark.pedantic(stratum_for, args=(SingularitySpec.cusp(9),),
                           setup=_memoised_stratum.cache_clear, rounds=100, warmup_rounds=1)
    assert s.cls.total_degree == 45 + 9 and s.valid_from_d == 10


def test_divide_cusp_node_pair(benchmark):
    # the small end of the division: cusp:9 beside a node
    s = node_pair_stratum(SingularitySpec.cusp(9))
    quotient = benchmark(s.dividend.divide_exact, s.kill)
    assert quotient == s.cls


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


def test_class_json_writer(benchmark, node_pair_parts):
    # what ``class --format json`` prints for the same quotient
    _, _, quotient = node_pair_parts
    stratum = StratumClass(quotient, 120, 4, "degeneration recursion via ordinary point")
    payload = quotient.to_json()
    payload.update(aut=120, valid_from_d=4, route=stratum.route)
    assert benchmark(_class_json, stratum) == json.dumps(payload, indent=2)


def test_gysin_degree(benchmark):
    s = kbranch_stratum(1, 1, 1, 1, 1)
    assert benchmark(gysin_degree, s).degree == s.cls.coefficient(s.ambient.top_exponent())


# Gysin extraction by the series: the degree of a cone-kill stratum read from
# its dividend, without the quotient that ``class`` divides out.  The
# dividend is the recipe of one factor (``StratumClass.by_recipe``).

def test_gysin_series_node_pair(benchmark, node_pair_parts):
    # a 411-term dividend in place of the 2,112-term quotient
    rhs, kill, quotient = node_pair_parts
    s = StratumClass.by_recipe([(1, [(rhs, 1)])], kill, 120, 4,
                               "degeneration recursion via ordinary point")
    assert len(rhs.terms) == 411
    got = benchmark(gysin_degree, s)
    assert got.degree == quotient.coefficient(s.ambient.top_exponent())


def test_gysin_series_kbranch_1_9(benchmark):
    # a 57-term dividend in place of the 10,752-term quotient
    recipe = kbranch_stratum(*[1] * 9)
    s = StratumClass.by_recipe([(1, [(recipe.dividend, 1)])], recipe.kill, recipe.aut_order,
                               recipe.valid_from_d, recipe.route)
    assert len(s.dividend.terms) == 57
    got = benchmark(gysin_degree, s)
    assert got.degree == s.aut_order * reference_kbranch([1] * 9)


# The degree of a cone-kill stratum from its recipe: the factors packed once,
# multiplied and summed on packed rows, and the top read by the series, with
# no class between the factors and the top coefficient.

def test_recipe_degree_node_pair(benchmark, node_pair_parts):
    # node pair kbranch 1^5: three summands over 8 generators
    _, _, quotient = node_pair_parts
    s = node_pair_stratum(SingularitySpec.kbranch(1, 1, 1, 1, 1))
    got = benchmark(gysin_degree, s)
    assert got.degree == quotient.coefficient(s.ambient.top_exponent())


def test_recipe_degree_kbranch_1_9(benchmark):
    # (F + (d-9)X)^55 and nine incidences over 10 generators
    s = kbranch_stratum(*[1] * 9)
    got = benchmark(gysin_degree, s)
    assert got.degree == s.aut_order * reference_kbranch([1] * 9)


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


# One ``class`` call through ``main``, as a warm process serves it: the
# stratum comes from the memo, or is built when the memo is cleared first.

CLASS_ARGV = ["class", "--x", "kbranch:2,1", "--y", "omp:2", "--format", "json"]


def _class_call() -> str:
    out = io.StringIO()
    assert main(CLASS_ARGV, out, io.StringIO()) == 0
    return out.getvalue()


def test_class_json_main_warm(benchmark):
    want = _class_call()  # fills the entry
    assert benchmark(_class_call) == want


def test_class_json_main_cold(benchmark):
    want = _class_call()
    got = benchmark.pedantic(_class_call, setup=_memoised_stratum.cache_clear,
                             rounds=100, warmup_rounds=1)
    assert got == want


# The identity suites as a warm process runs them: ``ring`` multiplies
# 1000 random triples (drawn once per process), ``corollary`` reads its
# degrees from the memo and builds one stratum fresh, ``appendix``
# evaluates the reference catalog, ``recursion`` builds and divides two
# node pairs fresh, ``interpolation`` recovers two closed forms.

@pytest.mark.parametrize("suite", ["ring", "corollary", "appendix", "recursion",
                                   "interpolation"])
def test_verify_suite_warm(benchmark, suite):
    run_suite(suite)  # fills the degree memo
    checks = benchmark(run_suite, suite)
    assert checks and all(ok for _, ok, _ in checks)


# A CLI process imports ``bistrata.cli`` before it does anything else.  The
# interpreter runs with -S, so installed ``.pth`` hooks add nothing: the row
# is a bare interpreter start plus the package's own import.  Bytecode is
# read from a cache of the row's own (``PYTHONPYCACHEPREFIX``), written once
# before timing, so a stale or unwritable ``__pycache__`` does not put
# compilation into the row.

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
COLD_IMPORT = [sys.executable, "-S", "-c",
               f"import sys; sys.path.insert(0, {str(SRC)!r}); import bistrata.cli"]


@pytest.fixture(scope="module")
def compiled_env(tmp_path_factory):
    """Environment whose bytecode cache holds the package and what it imports."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path_factory.mktemp("pycache"))
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "bistrata")],
                   env=env, check=True)
    subprocess.run(COLD_IMPORT, env=env, check=True)  # caches the standard library it loads
    return env


def test_cold_import_cli(benchmark, compiled_env):
    done = benchmark.pedantic(subprocess.run, args=(COLD_IMPORT,),
                              kwargs={"capture_output": True, "check": True,
                                      "env": compiled_env},
                              rounds=20, warmup_rounds=1)
    assert done.returncode == 0 and done.stderr == b""
