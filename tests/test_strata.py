import math
import pickle

import pytest

from bistrata import strata
from bistrata.cli import parse_type_spec
from bistrata.coeffring import ParamPoly, binomial
from bistrata.cohring import CohClass, VarSpec, product_of
from bistrata.collide import NewtonDiagram, SingularitySpec, collide_omp, cusp_diagram
from bistrata.degrees import (
    _memoised_degree,
    gysin_degree,
    reference_kbranch,
    reference_two_omp,
    stratum_degree,
)
from bistrata.divisors import incidence_class, kill_tangent_cone_class
from bistrata.strata import (
    StratumClass,
    _build_stratum,
    _diagram_factors,
    _dispatch_order,
    _multiplied_out,
    cone_line_names,
    diagram_stratum,
    kbranch_stratum,
    node_pair_stratum,
    omp_stratum,
    stratum_for,
    two_omp_stratum,
)


def dminus(a):
    return ParamPoly((-a, 1))


def test_omp_stratum_degrees():
    assert omp_stratum(1).cls.coefficient({"X": 2}) == 3 * dminus(1) ** 2
    assert omp_stratum(2).cls.coefficient({"X": 2}) == 15 * dminus(2) ** 2
    assert omp_stratum(4).cls.coefficient({"X": 2}) == 105 * dminus(4) ** 2
    assert omp_stratum(3).valid_from_d == 4


def test_kbranch_node_with_marked_tangents():
    s = kbranch_stratum(1, 1)
    assert s.aut_order == 2
    raw = s.cls.coefficient({"X": 2, "L1": 2, "L2": 2})
    # the two marked tangent lines are free: twice the plain node degree
    assert raw == 2 * (3 * dminus(1) ** 2)


def test_kbranch_total_degree_and_symmetry():
    s = kbranch_stratum(2, 1)
    assert s.aut_order == 1
    assert s.cls.total_degree == binomial(5, 2) - 1 + 2
    assert kbranch_stratum(2, 2, 1).aut_order == 2
    assert kbranch_stratum(3, 3, 3).aut_order == 6


def untruncated_kbranch_class(mults):
    """The kbranch product with the geometric sum over all j < M."""
    names = cone_line_names(len(mults))
    ambient = VarSpec.projective(("X",) + names)
    p = sum(mults)
    m_big = binomial(p + 2, 2)
    base = CohClass.divisor(ambient, 1, {"X": dminus(p)})
    cone_sum = CohClass.divisor(ambient, 0, dict(zip(names, mults)))
    acc = CohClass.zero(ambient, m_big - 1)
    for j in range(m_big):
        acc = acc + base ** (m_big - 1 - j) * cone_sum ** j
    for name in names:
        acc = acc * incidence_class(ambient, "X", name)
    return acc


@pytest.mark.parametrize("mults", [(1, 1), (2, 1), (1, 1, 1), (2, 1, 1), (3, 1), (3, 2),
                                   (2, 2, 1), (1, 1, 1, 1), (2, 2, 1, 1)])
def test_kbranch_truncated_sum_equals_full_sum(mults):
    assert kbranch_stratum(*mults).cls == untruncated_kbranch_class(mults)


def test_kbranch_six_lines_reaches_reference():
    s = kbranch_stratum(*[1] * 6)
    assert s.aut_order == math.factorial(6)
    assert gysin_degree(s).degree == s.aut_order * reference_kbranch([1] * 6)


def test_node_pair_six_lines_reaches_reference():
    # an ordinary 6-fold point with marked tangents beside a node: the
    # recursion must give 6! times the closed form for two ordinary points
    s = node_pair_stratum(SingularitySpec.kbranch(*[1] * 6))
    assert gysin_degree(s).degree == math.factorial(6) * reference_two_omp(5, 1)


def test_node_pair_seven_lines_reaches_reference():
    # the same identity at 1^7: 11,872 terms with coefficients of up to 34
    # bits, the largest class in this suite that an independent form checks
    s = node_pair_stratum(SingularitySpec.kbranch(*[1] * 7))
    assert gysin_degree(s).degree == math.factorial(7) * reference_two_omp(6, 1)


def test_cusp_stratum_structure():
    s = stratum_for(SingularitySpec.cusp(2))
    # (F+(d-1)X)^3 (F+(d-4)X+2L) (F+(d-3)X)
    assert s.cls.total_degree == 5
    assert s.valid_from_d == 3
    assert stratum_for(SingularitySpec.cusp(3)).valid_from_d == 4
    # homogeneity: no stored monomial exceeds the total degree
    for exp in s.cls.terms:
        assert sum(exp) <= s.cls.total_degree
    with pytest.raises(ValueError):
        stratum_for(SingularitySpec.cusp(1))


@pytest.mark.parametrize("p", range(2, 7))
def test_diagram_stratum_equals_cusp_chain(p):
    # the cusp's normal form is built by the diagram product of its diagram
    nd = NewtonDiagram.from_points([(p, 0), (0, p + 1)])
    assert stratum_for(SingularitySpec.cusp(p)) == diagram_stratum(nd)


@pytest.mark.parametrize("p", range(2, 8))
def test_cusp_diagram_chain_equals_cone_kill_division(p):
    # a product route against a division route, over the same {X, L1}
    ambient = VarSpec.projective(("X", "L1"))
    chain = _multiplied_out([(1, _diagram_factors(cusp_diagram(p), ambient, line="L1"))])
    assert chain * incidence_class(ambient, "X", "L1") == kbranch_stratum(p).cls


def test_diagram_stratum_of_ordinary_point_has_no_kills():
    nd = NewtonDiagram.from_points([(3, 0), (0, 3)])
    got = diagram_stratum(nd)
    # identical to the multiplicity conditions over {X, L}
    amb = VarSpec.projective(("X", "L"))
    want = CohClass.divisor(amb, 1, {"X": dminus(2)}) ** 6
    assert got.cls == want


def test_diagram_stratum_rejects_nonlinear():
    with pytest.raises(ValueError):
        diagram_stratum(NewtonDiagram(((0, 2), (5, 0))))


def test_collision_diagram_stratum_builds():
    s = diagram_stratum(collide_omp(2, 1))
    # multiplicity 3 conditions plus kills (0,3), (0,4), (1,2)
    assert s.cls.total_degree == binomial(4, 2) + 3


def test_two_omp_factor_count_and_truncation():
    for p, q in [(1, 1), (2, 1), (3, 2), (3, 3)]:
        s = two_omp_stratum(p, q)
        pairs = binomial(q + 2, 2)
        assert s.cls.total_degree == 2 + binomial(p + 2, 2) + pairs
        for exp in s.cls.terms:
            assert all(e < 3 for e in exp)
        assert s.valid_from_d == p + q + 2


def test_two_omp_rejects_swapped_parameters():
    with pytest.raises(ValueError):
        two_omp_stratum(1, 2)
    with pytest.raises(ValueError):
        two_omp_stratum(2, 0)


def test_two_omp_equal_multiplicities_has_even_values():
    for p in (1, 2, 3):
        s = two_omp_stratum(p, p)
        assert s.aut_order == 2
        raw = s.cls.coefficient({"X": 2, "Y": 2, "L": 2})
        for d in range(s.valid_from_d, s.valid_from_d + 6):
            assert raw(d) % 2 == 0


def test_solve_degeneration_round_trip():
    amb = VarSpec.projective(("X", "Y", "L", "L1"))
    kill = CohClass.divisor(amb, 1, {"X": dminus(2), "L1": -2})
    target = (incidence_class(amb, "X", "L") * incidence_class(amb, "Y", "L")
              * CohClass.divisor(amb, 1, {"X": dminus(1), "L": 1}) ** 3)
    rhs = target * kill
    assert rhs.divide_exact(kill) == target


def test_recursion_parts_are_consistent():
    s = node_pair_stratum(SingularitySpec.cusp(3))
    assert s.ambient.names == ("X", "Y", "L") + cone_line_names(1)
    cls = s.dividend.divide_exact(s.kill)
    assert cls * s.kill == s.dividend
    assert s.cls == cls
    assert s.valid_from_d == 6


def test_recursion_rejects_unsupported_types():
    with pytest.raises(ValueError):
        node_pair_stratum(SingularitySpec.omp(3))


def test_stratum_values_are_nonnegative_within_validity():
    strata = [omp_stratum(2), kbranch_stratum(2, 1), two_omp_stratum(2, 1),
              node_pair_stratum(SingularitySpec.cusp(2))]
    for s in strata:
        top = s.cls.coefficient(s.ambient.top_exponent())
        for d in range(s.valid_from_d, s.valid_from_d + 6):
            assert top(d) >= 0


def test_kbranch_seven_lines_reaches_reference():
    s = kbranch_stratum(*[1] * 7)
    assert s.aut_order == math.factorial(7)
    assert gysin_degree(s).degree == math.factorial(7) * reference_kbranch([1] * 7)


def test_stratum_for_canonicalises_diagrams():
    tacnode = NewtonDiagram.from_points([(0, 4), (2, 0)])
    mirrored = SingularitySpec.from_diagram(tacnode.mirrored())
    assert stratum_for(mirrored).cls == diagram_stratum(tacnode).cls
    triple = SingularitySpec.from_diagram(NewtonDiagram.from_points([(0, 3), (3, 0)]))
    assert stratum_for(triple) == omp_stratum(2)


def test_stratum_for_pairs_are_unordered():
    node, cusp = SingularitySpec.omp(2), SingularitySpec.cusp(3)
    assert stratum_for(node, cusp) == stratum_for(cusp, node)
    assert stratum_for(SingularitySpec.omp(3), node) == two_omp_stratum(2, 1)
    with pytest.raises(ValueError, match="unsupported pair"):
        stratum_for(cusp, cusp)


# -- the process-wide stratum memo ------------------------------------------------

memo = strata._memoised_stratum


def test_stratum_memo_keys_on_the_unordered_pair():
    memo.cache_clear()
    a = stratum_for(SingularitySpec.omp(5), SingularitySpec.omp(3))
    b = stratum_for(SingularitySpec.omp(3), SingularitySpec.omp(5))
    info = memo.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    assert a is b and a == two_omp_stratum(4, 2)


@pytest.mark.parametrize("partner", [None, "omp:2"])
@pytest.mark.parametrize("spelling", ["kbranch:3", "diagram:0,4,3,0", "diagram:0,3,4,0"])
def test_stratum_memo_shares_the_cusp_spellings(spelling, partner):
    sy = parse_type_spec(partner) if partner else None
    memo.cache_clear()
    a = stratum_for(SingularitySpec.cusp(3), sy)
    assert stratum_for(parse_type_spec(spelling), sy) is a
    info = memo.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


@pytest.mark.parametrize("pair", [
    ("cusp:3", "omp:3"),  # an unsupported pair
    ("diagram:0,3,1,1,3,0", None),  # tangents on both axes, refused by canonical()
    ("diagram:0,2,1,0", None),  # a smooth point, refused by diagram_stratum
])
def test_stratum_memo_stores_no_error(pair):
    memo.cache_clear()
    specs = [parse_type_spec(s) for s in pair if s is not None]
    for _ in range(2):
        with pytest.raises(ValueError):
            stratum_for(*specs)
    assert memo.cache_info().currsize == 0


def test_stratum_memo_equals_a_cold_build_over_the_class_specs(perfbench):
    perfbench("checks")
    specs = perfbench("workloads").CLASS_SPECS
    memo.cache_clear()
    for x, y in specs:
        sx = parse_type_spec(x)
        sy = parse_type_spec(y) if y is not None else None
        warm = stratum_for(sx, sy)  # fills the entry
        cold = memo.__wrapped__(*strata._dispatch_order(sx, sy))
        assert cold is not warm and cold == warm
        assert stratum_for(sx, sy) is warm
        if sy is not None:
            assert stratum_for(sy, sx) is warm
    info = memo.cache_info()
    assert info.currsize == info.misses == len(specs)


def test_a_degree_miss_leaves_the_stratum_memo_empty():
    memo.cache_clear()
    _memoised_degree.cache_clear()
    for pair in ((SingularitySpec.cusp(3), None), (SingularitySpec.kbranch(2, 1), None),
                 (SingularitySpec.omp(4), SingularitySpec.omp(2)),
                 (SingularitySpec.kbranch(1, 1), SingularitySpec.omp(2))):
        stratum_degree(*pair)
    assert _memoised_degree.cache_info().misses == 4
    assert memo.cache_info().currsize == 0


def test_stratum_memo_is_bounded():
    assert memo.cache_parameters()["maxsize"] == 32


# -- cone-kill strata: the degree by the series, the class by division --------


def partitions(n, largest=None):
    """Multiplicity tuples, descending, that sum to n."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [(m,) + rest for m in range(min(n, largest), 0, -1)
            for rest in partitions(n - m, m)]


# every kbranch type of total multiplicity 2..6: at most six lines
KBRANCH_TYPES = [mults for p in range(2, 7) for mults in partitions(p)]
NODE = SingularitySpec.omp(2)


def assert_series_is_the_division(s):
    series = gysin_degree(s).degree  # read from the dividend
    divided = s.dividend.divide_exact(s.kill)
    assert series == divided.coefficient(s.ambient.top_exponent())


@pytest.mark.parametrize("mults", KBRANCH_TYPES, ids=str)
def test_kbranch_series_equals_the_division(mults):
    assert_series_is_the_division(kbranch_stratum(*mults))


@pytest.mark.parametrize("spec", [SingularitySpec.cusp(p) for p in range(2, 10)]
                         + [SingularitySpec.kbranch(*m) for m in KBRANCH_TYPES],
                         ids=lambda spec: spec.describe())
def test_node_pair_series_equals_the_division(spec):
    # through the dispatch of stratum_for, beside a node, without its memo
    s = _build_stratum(*_dispatch_order(spec, NODE))
    assert s.route == "degeneration recursion via ordinary point"
    assert_series_is_the_division(s)


def test_reading_the_class_twice_divides_once(monkeypatch):
    calls = []
    divide = CohClass.divide_exact

    def spy(dividend, kill):
        calls.append((dividend, kill))
        return divide(dividend, kill)

    monkeypatch.setattr(CohClass, "divide_exact", spy)
    s = kbranch_stratum(2, 1)
    degree = gysin_degree(s)
    assert calls == [] and s.ambient is s.dividend.ambient
    cls = s.cls
    assert s.cls is cls and calls == [(s.dividend, s.kill)]
    # the degree still comes from the series, and equals the class's
    assert gysin_degree(s) == degree and len(calls) == 1
    assert degree.degree == cls.coefficient(s.ambient.top_exponent())


@pytest.mark.parametrize("build", [lambda: kbranch_stratum(2, 1),
                                   lambda: node_pair_stratum(SingularitySpec.cusp(3))],
                         ids=["kbranch", "node-pair"])
def test_a_divided_stratum_is_the_value_of_its_class(build):
    # equality, hash, repr and pickling read the class, divided on demand
    s = build()
    cls = s.dividend.divide_exact(s.kill)
    eager = StratumClass(cls, s.aut_order, s.valid_from_d, s.route)
    # a built class is the recipe of one factor, with no kill divisor
    assert eager.kill is None and eager.summands == [(1, [(cls, 1)])]
    assert build() == eager and eager == build()
    assert hash(build()) == hash(eager) and repr(build()) == repr(eager)
    restored = pickle.loads(pickle.dumps(build()))
    assert restored == eager and restored.kill is None
    assert restored.summands == [(1, [(cls, 1)])]


# -- every stratum is a recipe: the degree builds no class ---------------------


def top_of(cls):
    return cls.coefficient(cls.ambient.top_exponent())


def with_incidence(spec):
    """The class of a bare cusp or diagram stratum times its tangent incidence."""
    cls = stratum_for(spec).cls
    return cls * incidence_class(cls.ambient, "X", "L")


# a linear diagram with a middle vertex, which no other type spells
DIAGRAM = SingularitySpec.from_diagram(NewtonDiagram.from_points([(0, 5), (2, 1), (3, 0)]))
RECIPE_DEGREES = {
    "kbranch": (lambda: gysin_degree(kbranch_stratum(2, 1, 1)),
                lambda: kbranch_stratum(2, 1, 1).cls),
    "kbranch 1^6": (lambda: gysin_degree(kbranch_stratum(*[1] * 6)),
                    lambda: kbranch_stratum(*[1] * 6).cls),
    "node-pair cusp": (lambda: gysin_degree(node_pair_stratum(SingularitySpec.cusp(5))),
                       lambda: node_pair_stratum(SingularitySpec.cusp(5)).cls),
    "node-pair kbranch": (
        lambda: gysin_degree(node_pair_stratum(SingularitySpec.kbranch(2, 1, 1))),
        lambda: node_pair_stratum(SingularitySpec.kbranch(2, 1, 1)).cls),
    "omp": (lambda: gysin_degree(omp_stratum(5)), lambda: omp_stratum(5).cls),
    "diagram": (lambda: gysin_degree(diagram_stratum(DIAGRAM.diagram)),
                lambda: diagram_stratum(DIAGRAM.diagram).cls),
    "cusp degree": (lambda: stratum_degree(SingularitySpec.cusp(4)),
                    lambda: with_incidence(SingularitySpec.cusp(4))),
    "diagram degree": (lambda: stratum_degree(DIAGRAM), lambda: with_incidence(DIAGRAM)),
}


@pytest.mark.parametrize("name", RECIPE_DEGREES)
def test_a_recipe_degree_takes_no_class_product(monkeypatch, name):
    degree, cls = RECIPE_DEGREES[name]
    want = top_of(cls())
    memo.cache_clear()
    _memoised_degree.cache_clear()

    def refuse(*args):
        raise AssertionError("a class product or power was taken")

    monkeypatch.setattr(CohClass, "__mul__", refuse)
    monkeypatch.setattr(CohClass, "__pow__", refuse)
    # the builders multiply nothing either
    assert degree().degree == want


def test_node_pair_parts_multiply_out_the_recipe():
    # the recursion's right-hand side is the stratum's dividend: its recipe
    # multiplied out, here by products and sums written out term by term
    spec = SingularitySpec.kbranch(2, 1, 1)
    s = node_pair_stratum(spec)
    names = cone_line_names(3)
    assert s.ambient.names == ("X", "Y", "L") + names and len(s.summands) == 3
    assert [weight for weight, _ in s.summands] == [1, 2, 1]
    terms = [product_of([x ** e for x, e in factors]).scaled(weight)
             for weight, factors in s.summands]
    assert s.dividend == terms[0] + terms[1] + terms[2]
    assert s.kill == kill_tangent_cone_class(s.ambient, 4, list(zip(names, (2, 1, 1))))
    assert s.cls * s.kill == s.dividend


def test_a_recipe_stratum_multiplies_out_once():
    s = kbranch_stratum(3, 1)
    assert s.summands is not None and s._dividend is None
    dividend = s.dividend
    assert s.dividend is dividend and s.cls * s.kill == dividend
    assert s.cls is s.cls
