import hashlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from bistrata import degrees, strata
from bistrata.cli import main, parse_type_spec
from bistrata.coeffring import InterpolationError, ParamPoly, binomial
from bistrata.collide import NewtonDiagram, SingularitySpec, is_linear
from bistrata.degrees import (
    DegreeResult,
    closed_form_in_p,
    gysin_degree,
    reference_cusp_with_smooth_contact,
    reference_kbranch,
    reference_omp,
    reference_pair_correction,
    reference_two_omp,
    stratum_degree,
    REFERENCE_FORMULAS,
)
from bistrata.strata import kbranch_stratum, node_pair_stratum, omp_stratum, two_omp_stratum


def dminus(a):
    return ParamPoly((-a, 1))


def test_gysin_of_ordinary_point():
    got = gysin_degree(omp_stratum(1))
    assert got.degree == 3 * dminus(1) ** 2
    assert got.aut_applied == 1
    assert got.value_at(4) == 27


def test_gysin_two_nodes_halved_values():
    got = gysin_degree(two_omp_stratum(1, 1))
    dm1 = dminus(1)
    assert got.degree == 9 * dm1 ** 4 - 42 * dm1 ** 2 + 33 * dm1
    assert got.aut_applied == 2
    assert got.value_at(3) == 21
    assert got.value_at(4) == 225


def test_gysin_bad_symmetry_division_raises():
    bad = DegreeResult(ParamPoly([3]), 2, 3, "test")
    with pytest.raises(ArithmeticError):
        bad.value_at(5)


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_two_route_equality(p, q):
    got = gysin_degree(two_omp_stratum(p, q))
    assert got.degree == reference_two_omp(p, q)


def test_pair_degree_is_order_insensitive():
    a = stratum_degree(SingularitySpec.omp(4), SingularitySpec.omp(2))
    b = stratum_degree(SingularitySpec.omp(2), SingularitySpec.omp(4))
    assert a == b
    a = stratum_degree(SingularitySpec.cusp(3), SingularitySpec.omp(2))
    b = stratum_degree(SingularitySpec.omp(2), SingularitySpec.cusp(3))
    assert a == b


def test_pair_degree_rejects_unsupported_combinations():
    with pytest.raises(ValueError):
        stratum_degree(SingularitySpec.cusp(2), SingularitySpec.cusp(2))
    with pytest.raises(ValueError):
        stratum_degree(SingularitySpec.cusp(2), SingularitySpec.omp(3))


def test_single_point_degrees_match_catalog():
    for p in range(1, 8):
        got = stratum_degree(SingularitySpec.omp(p + 1))
        assert got.degree == reference_omp(p)
    for mults in [(1, 1), (2, 1), (2, 2), (3, 1), (2, 1, 1)]:
        got = gysin_degree(kbranch_stratum(*mults))
        assert got.degree == got.aut_applied * reference_kbranch(mults)


def test_cusp_single_point_degree():
    got = stratum_degree(SingularitySpec.cusp(2))
    assert got.degree == 12 * dminus(1) * dminus(2)
    # one marked branch is the same stratum through the branch formula
    for p in (2, 3, 4):
        assert stratum_degree(SingularitySpec.cusp(p)).degree \
            == reference_kbranch((p,))


def test_assemble_two_point_degree():
    # deg(omp:p+1, node) = deg(omp:p+1) * deg(node) + S, with S the printed connected part
    for p in range(1, 9):
        assert reference_omp(p) * reference_omp(1) \
            + reference_pair_correction("omp-node", p) == reference_two_omp(p, 1)
    # the class-route single-point degrees assemble the same way
    product = stratum_degree(SingularitySpec.omp(3)).degree \
        * stratum_degree(SingularitySpec.omp(2)).degree
    assert product + reference_pair_correction("omp-node", 2) == reference_two_omp(2, 1)


def test_assemble_matches_direct_route_at_sample_point():
    triple, node = SingularitySpec.omp(3), SingularitySpec.omp(2)
    direct = stratum_degree(triple, node)
    product = stratum_degree(triple).degree * stratum_degree(node).degree
    assembled = product + reference_pair_correction("omp-node", 2)
    assert direct.degree == assembled
    assert assembled(8) == direct.value_at(8)


def test_closed_form_families():
    fam = lambda p: stratum_degree(SingularitySpec.omp(p + 1)).degree
    form = closed_form_in_p(fam, 1, 7)
    ref = closed_form_in_p(reference_omp, 1, 7)
    assert form.grid == ref.grid and form.p_base == ref.p_base
    assert form.at_p(9) == fam(9)


@pytest.mark.parametrize("q", (1, 2, 3))
def test_two_omp_closed_forms_are_recovered(q):
    # sampled at p = q..q+7 and checked at the held-out p = q+8, the
    # recovered grid is the printed closed form's
    fam = lambda p: gysin_degree(two_omp_stratum(p, q)).degree
    form = closed_form_in_p(fam, q, q + 7)
    printed = closed_form_in_p(lambda p: reference_two_omp(p, q), q, q + 7)
    assert form.holdout == q + 8
    assert form.grid == printed.grid and form.p_base == printed.p_base == q


def test_closed_form_catches_insufficient_samples():
    fam = lambda p: reference_two_omp(p, 1)
    with pytest.raises(InterpolationError):
        closed_form_in_p(fam, 1, 3)  # the family has p-degree 5 in the shifted basis


def test_reference_catalog_integrality_spot():
    keys = ("omp-node", "cusp-node", "cusp-branch-node", "tacnodal-pair-node")
    for formula in (f for f in REFERENCE_FORMULAS if f.key in keys):
        for p, q in formula.domain(5, 5):
            poly = formula.evaluate(p, q)
            assert all(isinstance(poly(d), int) for d in range(3, 12))


def test_recursion_reproduces_printed_pair_forms():
    for p in (2, 3):
        got = gysin_degree(node_pair_stratum(SingularitySpec.cusp(p)))
        want = (reference_kbranch((p,)) * reference_omp(1)
                + reference_pair_correction("cusp-node", p))
        assert got.degree == want
    # two interchangeable smooth branches: the printed identity is between
    # symmetry-undivided counts on both sides
    for p in range(2, 7):
        got = gysin_degree(node_pair_stratum(SingularitySpec.kbranch(p, 1, 1)))
        assert got.aut_applied == 2
        want = (2 * reference_kbranch((p, 1, 1)) * reference_omp(1)
                + reference_pair_correction("cusp-two-branch-node", p))
        assert got.degree == want


def _count(*types):
    """The curve count of a stratum as exact coefficients in d: the degree
    over the symmetry order it records."""
    got = stratum_degree(*types)
    return [Fraction(c, got.aut_applied) for c in got.degree.coeffs]


def _times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _minus(a, b):
    n = max(len(a), len(b))
    out = [x - y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]
    while out and not out[-1]:
        out.pop()
    return out


def _normal_form(spec):
    # kbranch 1^k is omp:k with its k tangents marked
    spec = spec.canonical()
    if spec.kind == "kbranch" and set(spec.mults) == {1}:
        return SingularitySpec.omp(len(spec.mults))
    return spec


NODE = SingularitySpec.omp(2)
CONNECTED_PAIRS = (
    [(SingularitySpec.omp(m), SingularitySpec.omp(k)) for m in range(2, 7) for k in range(2, m + 1)]
    + [(SingularitySpec.cusp(p), NODE) for p in range(2, 8)]
    + [(SingularitySpec.kbranch(*mults), NODE)
       for mults in [(1, 1), (1, 1, 1), (2, 1), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
                     (3, 2), (2, 2, 1), (4, 1, 1), (3, 1, 1, 1)]])


@pytest.mark.parametrize("a, b", CONNECTED_PAIRS,
                         ids=[f"{a.describe()}+{b.describe()}" for a, b in CONNECTED_PAIRS])
def test_two_point_count_splits_off_a_connected_part(a, b):
    # Kazarian's split: N_AB = N_A N_B + S_AB, and N_AA = N_A^2 / 2 + S_AA for
    # equal types; the connected part S has degree at most 2 in d, the pair
    # count degree 4
    pair = _count(a, b)
    disconnected = _times(_count(a), _count(b))
    if _normal_form(a) == _normal_form(b):
        disconnected = [c / 2 for c in disconnected]
    assert len(pair) - 1 == 4
    assert len(_minus(pair, disconnected)) - 1 <= 2


def test_smooth_contact_family_diverges_from_printed_row():
    # The class route for the type (x1^(p-1)+x2^p)(x1+x2^2) disagrees with
    # the printed closed form; the class route is pinned here since every
    # one of its ingredients is independently validated (the cusp chain,
    # the rectify kills and the ordinary-point conditions).
    frozen = {
        3: 252 * dminus(3) ** 2 + 48 * dminus(3) - 45,
        4: 819 * dminus(4) ** 2 + 156 * dminus(4) - 96,
    }
    for p, want in frozen.items():
        nd = NewtonDiagram.from_points([(p, 0), (1, p), (0, p + 2)])
        got = stratum_degree(SingularitySpec.from_diagram(nd))
        assert got.degree == want
        assert got.degree != reference_cusp_with_smooth_contact(p)


def test_degree_values_nonnegative_in_validity_range():
    cases = [
        stratum_degree(SingularitySpec.cusp(3)),
        stratum_degree(SingularitySpec.omp(3), SingularitySpec.omp(3)),
        stratum_degree(SingularitySpec.kbranch(2, 1), SingularitySpec.omp(2)),
    ]
    for res in cases:
        for d in range(res.valid_from_d, res.valid_from_d + 6):
            assert res.value_at(d) >= 0


def test_catalog_values_are_pinned():
    # computed with rational intermediate arithmetic before the catalog
    # moved to exact integer division; every value must stay the same
    payload = {f.key: [[p, q, f.evaluate(p, q).to_json()] for p, q in f.domain(12, 12)]
               for f in REFERENCE_FORMULAS}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == "62900791e6d9853f064b8c60c7ace69ef96bc15344e0551495a3a14f7a2aea38"


def test_ratio_divides_exactly_or_raises_in_lowest_terms():
    assert degrees._ratio(-8, 4) == -2
    assert degrees._ratio(0, 8) == 0
    for num, den, shown in ((3, 4, "3/4"), (-6, 4, "-3/2")):
        with pytest.raises(ArithmeticError, match=f"^expected an integer, got {shown}$"):
            degrees._ratio(num, den)


def test_catalog_keys_are_unique():
    keys = [f.key for f in REFERENCE_FORMULAS]
    assert len(keys) == len(set(keys))


# -- classical counts, independent of the paper's closed forms ----------------

D = ParamPoly((0, 1))


def diagram_spec(*points):
    return SingularitySpec.from_diagram(NewtonDiagram.from_points(points))


@pytest.mark.parametrize("spec, want", [
    # A1, A2, A3, D4 and E6 as in Kazarian, Multisingularities, cobordisms,
    # and enumerative geometry (2003)
    (SingularitySpec.omp(2), 3 * dminus(1) ** 2),
    (SingularitySpec.cusp(2), 12 * dminus(1) * dminus(2)),
    (diagram_spec((0, 4), (2, 0)), 50 * D ** 2 - 192 * D + 168),
    (SingularitySpec.omp(3), 15 * dminus(2) ** 2),
    (diagram_spec((0, 4), (3, 0)), 21 * dminus(3) * ParamPoly((-9, 4))),
], ids=["A1", "A2", "A3", "D4", "E6"])
def test_classical_single_point_degrees(spec, want):
    got = stratum_degree(spec)
    assert got.aut_applied == 1
    assert got.degree == want


def test_two_nodes_polynomial_identity():
    # Kleiman-Piene, Enumerating singular curves on surfaces (1999):
    # (3/2)(d-1)(d-2)(3d^2-3d-11) binodal curves
    got = stratum_degree(SingularitySpec.omp(2), SingularitySpec.omp(2))
    assert got.aut_applied == 2
    assert got.degree == 3 * dminus(1) * dminus(2) * (3 * D ** 2 - 3 * D - 11)


def test_mirrored_diagram_gives_the_same_degree():
    # the tacnode with its tangent on the horizontal axis is the same type
    a3 = stratum_degree(diagram_spec((0, 4), (2, 0)))
    assert stratum_degree(diagram_spec((0, 2), (4, 0))) == a3
    # the lowest jet x1 x2^2 (and its mirror) puts tangents on both axes
    for points in (((0, 4), (1, 2), (4, 0)), ((0, 4), (2, 1), (4, 0))):
        with pytest.raises(ValueError, match="both axes"):
            stratum_degree(diagram_spec(*points))
        out, err = io.StringIO(), io.StringIO()
        spec = diagram_spec(*points).describe()
        assert main(["degree", "--x", spec], out, err) == 1
        assert out.getvalue() == ""
        assert "both axes" in err.getvalue()


def test_homogeneous_diagram_is_an_ordinary_point():
    got = stratum_degree(diagram_spec((0, 3), (3, 0)))
    assert got == stratum_degree(SingularitySpec.omp(3))
    assert got.degree == 15 * dminus(2) ** 2


def test_diagram_with_both_axes_tangent_is_refused():
    with pytest.raises(ValueError, match="both axes"):
        stratum_degree(diagram_spec((0, 3), (1, 1), (3, 0)))


@pytest.mark.parametrize("p", range(2, 7))
def test_diagram_chain_equals_marked_branch_product(p):
    # (0,p+2),(p,1),(p+1,0) is the Newton diagram of the tangent cone
    # l1^p l2 with a generic next jet: the diagram chain against the
    # closed marked-branch product
    got = stratum_degree(diagram_spec((0, p + 2), (p, 1), (p + 1, 0)))
    assert got.degree == reference_kbranch((p, 1))


@st.composite
def linear_commode_diagrams(draw):
    """Linear diagrams touching both axes, 2-3 vertices, coordinates <= 8."""
    n = draw(st.integers(2, 3))
    xs = sorted(draw(st.lists(st.integers(1, 8), min_size=n - 1, max_size=n - 1, unique=True)))
    ys = sorted(draw(st.lists(st.integers(1, 8), min_size=n - 1, max_size=n - 1, unique=True)),
                reverse=True)
    vertices = ((0, ys[0]), *zip(xs[:-1], ys[1:]), (xs[-1], 0))
    try:
        nd = NewtonDiagram(vertices)
    except ValueError:  # not convex
        assume(False)
    assume(nd.multiplicity >= 2 and is_linear(nd))
    return nd


def _degree_or_refused(nd):
    try:
        return stratum_degree(SingularitySpec.from_diagram(nd))
    except ValueError as exc:
        assert "both axes" in str(exc)
        return None


@given(linear_commode_diagrams())
# tangents on both axes; these gave negative counts before they were refused
@example(NewtonDiagram(((0, 7), (2, 3), (6, 0))))
@example(NewtonDiagram(((0, 8), (2, 4), (7, 0))))
def test_random_linear_diagrams(nd):
    spec = SingularitySpec.from_diagram(nd)
    assert parse_type_spec(spec.describe()) == spec
    got = _degree_or_refused(nd)
    assert got == _degree_or_refused(nd.mirrored())
    if got is not None:
        for d in range(got.valid_from_d, got.valid_from_d + 6):
            assert got.value_at(d) >= 0


# -- the process-wide degree memo -----------------------------------------------

memo = degrees._memoised_degree


def test_degree_memo_keys_on_the_unordered_pair():
    memo.cache_clear()
    a = stratum_degree(SingularitySpec.omp(5), SingularitySpec.omp(3))
    b = stratum_degree(SingularitySpec.omp(3), SingularitySpec.omp(5))
    info = memo.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    assert a is b and a == gysin_degree(two_omp_stratum(4, 2))


def _spelling_pair(first, second, partner=None):
    label = f"{first}-{second}" + (f"-{partner}" if partner else "")
    return pytest.param(first, second, partner, id=label)


@pytest.mark.parametrize("first, second, partner", [
    _spelling_pair("diagram:0,4,2,0", "diagram:0,2,4,0"),  # a diagram and its mirror
    _spelling_pair("diagram:0,3,3,0", "omp:3"),  # a homogeneous diagram is an ordinary point
] + [
    # the cusp's other spellings reach its normal form cusp:3
    _spelling_pair(spelling, "cusp:3", partner)
    for spelling in ("kbranch:3", "diagram:0,4,3,0", "diagram:0,3,4,0")
    for partner in (None, "omp:2")
])
def test_degree_memo_shares_canonical_types(first, second, partner):
    sy = parse_type_spec(partner) if partner else None
    memo.cache_clear()
    a = stratum_degree(parse_type_spec(first), sy)
    assert stratum_degree(parse_type_spec(second), sy) is a
    assert memo.cache_info().currsize == 1


@pytest.mark.parametrize("partner", [None, "omp:2"])
def test_degree_memo_shares_kbranch_orders(partner):
    # the branches are unordered: both spellings are one type, one entry
    sy = parse_type_spec(partner) if partner else None
    memo.cache_clear()
    a = stratum_degree(parse_type_spec("kbranch:1,2"), sy)
    assert stratum_degree(parse_type_spec("kbranch:2,1"), sy) is a
    info = memo.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


@pytest.mark.parametrize("pair", [
    ("cusp:3", "omp:3"),  # an unsupported pair, refused by stratum_for
    ("diagram:0,3,1,1,3,0", None),  # tangents on both axes, refused by canonical()
])
def test_degree_memo_stores_no_error(pair):
    memo.cache_clear()
    specs = [parse_type_spec(s) for s in pair if s is not None]
    for _ in range(2):
        with pytest.raises(ValueError):
            stratum_degree(*specs)
    assert memo.cache_info().currsize == 0


def test_degree_memo_equals_a_cold_build_over_the_query_pools(perfbench):
    perfbench("checks")
    pools = perfbench("workloads")
    pairs = [(x, None) for x in pools.CHEAP_SINGLES + pools.KBRANCH_SINGLES] \
        + list(pools.OMP_PAIRS + pools.NODE_PAIRS)
    memo.cache_clear()
    for x, y in pairs:
        sx = parse_type_spec(x)
        sy = parse_type_spec(y) if y is not None else None
        stratum_degree(sx, sy)  # fills the entry
        cold = memo.__wrapped__(*strata._dispatch_order(sx, sy))
        assert stratum_degree(sx, sy) == cold
        if sy is not None:
            assert stratum_degree(sy, sx) == cold
    # the cusp's spellings in the pools share the entry of their normal form
    keys = {strata._dispatch_order(parse_type_spec(x), parse_type_spec(y) if y else None)
            for x, y in pairs}
    info = memo.cache_info()
    assert info.currsize == info.misses == len(keys) < len(pairs)


def test_degree_memo_is_bounded():
    maxsize = memo.cache_parameters()["maxsize"]
    assert isinstance(maxsize, int) and 0 < maxsize < 10 ** 6


# -- kbranch:p,1^j is the single-tangent diagram (0,p+j+1),(p,j),(p+j,0) -------


@pytest.mark.parametrize("p", range(2, 7))
@pytest.mark.parametrize("j", range(1, 5))
def test_kbranch_p_1j_is_j_factorial_times_its_diagram(p, j):
    # the cone-kill recipe's degree (the packed executor) against the diagram
    # product route: the j marked simple tangents are permuted by j!
    marked = gysin_degree(kbranch_stratum(p, *[1] * j))
    diagram = stratum_degree(diagram_spec((0, p + j + 1), (p, j), (p + j, 0)))
    assert marked.aut_applied == math.factorial(j) and diagram.aut_applied == 1
    assert diagram.route == "diagram product"
    assert marked.degree == math.factorial(j) * diagram.degree


# -- simple types through their linear diagrams, as the CLI prints them ---------


@pytest.mark.parametrize("spec, coeffs", [
    ("diagram:0,4,2,0", (168, -192, 50)),
    ("diagram:0,4,2,1,3,0", (456, -396, 84)),
    ("diagram:0,4,3,0", (567, -441, 84)),
    ("diagram:0,5,1,3,3,0", (2079, -1464, 252)),
    ("diagram:0,5,3,0", (4032, -2592, 405)),
    ("diagram:0,5,2,1,3,0", (1596, -1218, 224)),
], ids=["A3", "D5", "E6", "E7", "E8", "D6"])
def test_simple_type_degrees_are_pinned(spec, coeffs):
    # pinned from the class route, not checked against a published table
    got = stratum_degree(parse_type_spec(spec))
    assert got.aut_applied == 1 and got.degree == ParamPoly(coeffs)
    out = io.StringIO()
    assert main(["degree", "--x", spec], out, io.StringIO()) == 0
    assert out.getvalue().splitlines()[0] == f"degree: {ParamPoly(coeffs)}"
