from operator import lt

import pytest
from test_cohring import assert_revalidates

from bistrata.coeffring import ParamPoly, binomial
from bistrata.cohring import CohClass, VarSpec, product_of
from bistrata.divisors import (
    _omp_conditions_factor,
    diagonal_class,
    exceptional_class,
    incidence_class,
    kill_tangent_cone_class,
    monomial_kill_class,
    omp_conditions_class,
)
from bistrata.strata import _two_omp_linear_factors, cone_line_names

XL = VarSpec.projective(("X", "L"))
XYL = VarSpec.projective(("X", "Y", "L"))
LINES = VarSpec.projective(("X", "L", "L1", "L2"))
# Y truncated at 2, between two generators truncated at 3
XY2L = VarSpec((("X", 3), ("Y", 2), ("L", 3)))


def spelled(ambient, total_degree, terms):
    """The class of ``terms`` ({generator: exponent} pairs -> coefficients
    ascending in d) through the validating constructor, keyed by exponent
    tuples."""
    return CohClass(ambient, total_degree,
                    {ambient.exponent(dict(exps)): ParamPoly(cs) for exps, cs in terms})


def spelled_divisor(ambient, f, parts):
    """f*F + sum(c*g) for parts {g: c}, coefficients ascending in d."""
    return spelled(ambient, 1, [((), f)] + [(((g, 1),), c) for g, c in parts.items()])


def assert_builds(got, want):
    assert_revalidates(got)
    assert got == want


def test_incidence_class():
    assert incidence_class(XYL, "X", "L") == CohClass.divisor(XYL, 0, {"X": 1, "L": 1})
    assert incidence_class(XYL, "Y", "L") == CohClass.divisor(XYL, 0, {"Y": 1, "L": 1})
    with pytest.raises(KeyError):
        incidence_class(XYL, "X", "M")


def test_diagonal_class_of_planes():
    assert diagonal_class(XYL, "X", "Y", 2) == CohClass(XYL, 2, {
        (2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1})
    # coincidence of two marked lines in the dual plane
    got = diagonal_class(LINES, "L", "L1", 2)
    assert got == CohClass(LINES, 2, {
        (0, 2, 0, 0): 1, (0, 1, 1, 0): 1, (0, 0, 2, 0): 1})
    assert diagonal_class(XYL, "X", "Y", 1) == CohClass.divisor(XYL, 0, {"X": 1, "Y": 1})


def test_diagonal_class_is_symmetric():
    for n in (1, 2, 3, 4):
        assert diagonal_class(XYL, "X", "Y", n) == diagonal_class(XYL, "Y", "X", n)


def test_diagonal_high_dimension_truncates():
    # entries with any exponent >= 3 drop out
    got = diagonal_class(XYL, "X", "Y", 4)
    assert got == CohClass(XYL, 4, {(2, 2, 0): 1})


def test_exceptional_class():
    assert exceptional_class(XYL) == CohClass.divisor(XYL, 0, {"X": 1, "Y": 1, "L": -1})


def test_exceptional_pushforward():
    e = exceptional_class(XYL)
    lhs = e * incidence_class(XYL, "X", "L") * incidence_class(XYL, "Y", "L")
    rhs = incidence_class(XYL, "X", "L") * diagonal_class(XYL, "X", "Y", 2)
    assert lhs == rhs


def test_monomial_kill_transverse_cone():
    # erasing the transverse monomial of exponent p: F + (d-p)X - pL
    p = 3
    got = monomial_kill_class(XL, 0, p)
    assert got == CohClass.divisor(XL, 1, {"X": ParamPoly((-p, 1)), "L": -p})


def test_monomial_kill_rectify_branch():
    # raising the contact order with the traced line: F + (d-2k)X + kL
    k = 4
    got = monomial_kill_class(XL, k, 0)
    assert got == CohClass.divisor(XL, 1, {"X": ParamPoly((-2 * k, 1)), "L": k})


@pytest.mark.parametrize("p", range(2, 11))
def test_monomial_kill_matches_cusp_product(p):
    # the chain of kills along the degree-p level reproduces the published
    # cusp factors (F + (d+i-2p)X + (p-2i)L); this pins the orientation of
    # the (along, transverse) arguments
    got = [monomial_kill_class(XL, p - i, i) for i in range(p)]
    want = [CohClass.divisor(XL, 1, {"X": ParamPoly((i - 2 * p, 1)), "L": p - 2 * i})
            for i in range(p)]
    assert got == want


def test_monomial_kill_rejects_negative_exponents():
    with pytest.raises(ValueError):
        monomial_kill_class(XL, -1, 0)


def test_kill_tangent_cone_examples():
    got = kill_tangent_cone_class(LINES, 2, [("L1", 1), ("L2", 1)])
    assert got == CohClass.divisor(
        LINES, 1, {"X": ParamPoly((-2, 1)), "L1": -1, "L2": -1})
    got = kill_tangent_cone_class(LINES, 3, [("L1", 3)])
    assert got == CohClass.divisor(LINES, 1, {"X": ParamPoly((-3, 1)), "L1": -3})
    got = kill_tangent_cone_class(LINES, 3, [("L1", 2), ("L2", 1)])
    assert got == CohClass.divisor(
        LINES, 1, {"X": ParamPoly((-3, 1)), "L1": -2, "L2": -1})


def test_kill_tangent_cone_multiplicity_mismatch():
    with pytest.raises(ValueError):
        kill_tangent_cone_class(LINES, 3, [("L1", 1), ("L2", 1)])


def test_omp_conditions_class():
    dm1 = ParamPoly((-1, 1))
    got = omp_conditions_class(XL, 1)
    assert got == CohClass.divisor(XL, 1, {"X": dm1}) ** 3
    assert got.coefficient({"X": 2}) == 3 * dm1 ** 2
    assert omp_conditions_class(XL, 2).total_degree == 6
    assert omp_conditions_class(XL, 3).coefficient({"X": 2}) == 45 * ParamPoly((-3, 1)) ** 2
    with pytest.raises(ValueError):
        omp_conditions_class(XL, 0)


def test_constructors_are_homogeneous_of_their_condition_count():
    assert incidence_class(XL, "X", "L").total_degree == 1
    assert diagonal_class(XYL, "X", "Y", 2).total_degree == 2
    assert exceptional_class(XYL).total_degree == 1
    assert monomial_kill_class(XL, 1, 2).total_degree == 1
    assert omp_conditions_class(XL, 4).total_degree == binomial(6, 2)


def test_a_generator_paired_with_itself_is_refused():
    # a dict literal {X: 1, X: 1} would collapse to X, and a^(n-i) * a^i to n+1 copies of a^n
    with pytest.raises(ValueError, match="two generators"):
        incidence_class(XYL, "X", "X")
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="two generators"):
            diagonal_class(XYL, "X", "X", n)


@pytest.mark.parametrize("build", [
    lambda: exceptional_class(XYL, "X", "X", "L"),  # was X - L
    lambda: exceptional_class(XYL, "X", "Y", "X"),
    lambda: monomial_kill_class(XL, 1, 0, "X", "X"),  # was F + X
    lambda: kill_tangent_cone_class(LINES, 2, [("L1", 1), ("L1", 1)]),  # was F + (d-2)X - 2L1
    lambda: kill_tangent_cone_class(LINES, 2, [("X", 2)]),  # was F + (d-4)X
], ids=["exceptional two points", "exceptional point as line", "monomial kill",
        "cone line twice", "cone line as point"])
def test_a_generator_named_twice_is_refused(build):
    with pytest.raises(ValueError, match="generators, got"):
        build()


# -- every builder against the validating constructor ----------------------------

@pytest.mark.parametrize("ambient", [XL, XYL, LINES])
def test_incidence_class_spelled_out(ambient):
    for point in ambient.names:
        for line in ambient.names:
            if point != line:
                assert_builds(incidence_class(ambient, point, line),
                              spelled_divisor(ambient, (), {point: (1,), line: (1,)}))


@pytest.mark.parametrize("ambient", [XYL, XY2L, VarSpec.projective(("L", "Y", "X"))])
def test_exceptional_class_spelled_out(ambient):
    assert_builds(exceptional_class(ambient),
                  spelled_divisor(ambient, (), {"X": (1,), "Y": (1,), "L": (-1,)}))
    assert_builds(exceptional_class(ambient, "Y", "X", "L"), exceptional_class(ambient))


@pytest.mark.parametrize("ambient", [XYL, XY2L, LINES])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_diagonal_class_spelled_out(ambient, n):
    for a in ambient.names:
        for b in ambient.names:
            if a == b:
                continue
            exps = [((a, n - i), (b, i)) for i in range(n + 1)]
            # a monomial at a truncation is zero in the ring
            kept = [e for e in exps if all(map(lt, ambient.exponent(dict(e)), ambient.truncations))]
            want = spelled(ambient, n, [(e, (1,)) for e in kept])
            assert_builds(diagonal_class(ambient, a, b, n), want)


def test_diagonal_class_drops_truncated_monomials():
    # Y^2 = 0 in XY2L: of X^2 + XY + Y^2 only X^2 + XY is left
    assert diagonal_class(XY2L, "X", "Y", 2) == spelled(
        XY2L, 2, [((("X", 2),), (1,)), ((("X", 1), ("Y", 1)), (1,))])


@pytest.mark.parametrize("a", range(7))
@pytest.mark.parametrize("b", range(7))
def test_monomial_kill_class_spelled_out(a, b):
    for ambient in (XL, XYL, LINES):
        assert_builds(monomial_kill_class(ambient, a, b),
                      spelled_divisor(ambient, (1,), {"X": (-b - 2 * a, 1), "L": (a - b,)}))
    assert_builds(monomial_kill_class(XYL, a, b, "Y"),
                  spelled_divisor(XYL, (1,), {"Y": (-b - 2 * a, 1), "L": (a - b,)}))


def kbranch_cones(max_branches=5, max_total=7):
    """Every kbranch multiplicity tuple (descending) with at most
    ``max_branches`` branches and multiplicity 2..max_total."""
    def partitions(total, largest):
        if total == 0:
            yield ()
            return
        for first in range(min(total, largest), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    return [m for p in range(2, max_total + 1) for m in partitions(p, p) if len(m) <= max_branches]


@pytest.mark.parametrize("mults", kbranch_cones(), ids=lambda m: ",".join(map(str, m)))
def test_kill_tangent_cone_class_spelled_out(mults):
    names = cone_line_names(len(mults))
    ambient = VarSpec.projective(("X", "Y", "L") + names)
    p = sum(mults)
    want = spelled_divisor(ambient, (1,), {"X": (-p, 1)} | {n: (-m,) for n, m in zip(names, mults)})
    assert_builds(kill_tangent_cone_class(ambient, p, list(zip(names, mults))), want)


def test_kbranch_cones_hold_the_benchmark_types():
    assert {(1, 1, 1, 1, 1), (3, 1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 1)} <= set(kbranch_cones())


@pytest.mark.parametrize("p", range(1, 10))
def test_omp_conditions_factor_spelled_out(p):
    for ambient in (XL, XYL, LINES):
        factor, power = _omp_conditions_factor(ambient, p)
        assert power == binomial(p + 2, 2)
        assert_builds(factor, spelled_divisor(ambient, (1,), {"X": (-p, 1)}))


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("extra", [0, 1, 4])
def test_two_omp_linear_factors_spelled_out(q, extra):
    # F + (d-i-j)Y + iX - jL - c*(X + Y - L) with c = p+1+i-j, i outer, j inner
    p = q + extra
    want = []
    for i in range(q + 1):
        for j in range(q - i + 1):
            c = p + 1 + i - j
            want.append(spelled_divisor(XYL, (1,), {"X": (i - c,), "Y": (-i - j - c, 1),
                                                     "L": (c - j,)}))
    got = _two_omp_linear_factors(XYL, p, q)
    for x in got:
        assert_revalidates(x)
    assert got == want
