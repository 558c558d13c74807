import math

import pytest

from bistrata.coeffring import ParamPoly, binomial
from bistrata.cohring import CohClass, VarSpec
from bistrata.collide import NewtonDiagram, SingularitySpec, collide_omp
from bistrata.degrees import gysin_degree, reference_kbranch, reference_two_omp
from bistrata.divisors import incidence_class
from bistrata.strata import (
    cone_line_names,
    cusp_stratum,
    diagram_stratum,
    kbranch_stratum,
    node_pair_recursion_parts,
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
    s = cusp_stratum(2)
    # (F+(d-1)X)^3 (F+(d-4)X+2L) (F+(d-3)X)
    assert s.cls.total_degree == 5
    assert s.valid_from_d == 3
    assert cusp_stratum(3).valid_from_d == 4
    # homogeneity: no stored monomial exceeds the total degree
    for exp in s.cls.terms:
        assert sum(exp) <= s.cls.total_degree
    with pytest.raises(ValueError):
        cusp_stratum(1)


@pytest.mark.parametrize("p", range(2, 7))
def test_diagram_stratum_equals_cusp_chain(p):
    nd = NewtonDiagram.from_points([(p, 0), (0, p + 1)])
    assert diagram_stratum(nd).cls == cusp_stratum(p).cls


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
    rhs, kill, ambient, names = node_pair_recursion_parts(SingularitySpec.cusp(3))
    assert names == ("L1",)
    cls = rhs.divide_exact(kill)
    assert cls * kill == rhs
    s = node_pair_stratum(SingularitySpec.cusp(3))
    assert s.cls == cls
    assert s.valid_from_d == 6


def test_recursion_rejects_unsupported_types():
    with pytest.raises(ValueError):
        node_pair_recursion_parts(SingularitySpec.omp(3))


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
