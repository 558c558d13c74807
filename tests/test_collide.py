from fractions import Fraction

import pytest

from bistrata.collide import (
    NewtonDiagram,
    SingularitySpec,
    collide_omp,
    cusp_diagram,
    is_linear,
    residual_multiplicity,
)
from bistrata.strata import stratum_for


def test_collision_diagrams():
    assert collide_omp(3, 1).vertices == ((0, 6), (2, 2), (4, 0))
    # two nodes merge into two smooth branches of contact two
    assert collide_omp(1, 1).vertices == ((0, 4), (2, 0))
    assert collide_omp(2, 1).vertices == ((0, 5), (2, 1), (3, 0))


def test_collision_multiplicity_and_linearity():
    for p in range(1, 13):
        for q in range(1, p + 1):
            nd = collide_omp(p, q)
            assert nd.multiplicity == p + 1
            assert is_linear(nd)
            for (a1, b1), (a2, b2) in nd.faces():
                slope = abs(Fraction(b2 - b1, a2 - a1))
                assert Fraction(1, 2) <= slope <= 2


def test_collide_rejects_bad_order():
    with pytest.raises(ValueError):
        collide_omp(1, 2)
    with pytest.raises(ValueError):
        collide_omp(2, 0)


def test_residual_multiplicity():
    assert residual_multiplicity(2, 1) == 2
    assert residual_multiplicity(1, 1) == 2
    assert residual_multiplicity(5, 3) == 4
    for p in range(1, 13):
        for q in range(1, p + 1):
            assert 0 < residual_multiplicity(p, q) <= collide_omp(p, q).multiplicity
    with pytest.raises(ValueError):
        residual_multiplicity(1, 2)


def test_is_linear_examples():
    assert is_linear(NewtonDiagram(((0, 3), (2, 0))))       # cusp p=2
    assert not is_linear(NewtonDiagram(((0, 2), (5, 0))))   # contact order 5 branch pair
    assert is_linear(NewtonDiagram(((0, 4), (4, 0))))       # ordinary quadruple point
    for m in range(2, 9):
        assert is_linear(NewtonDiagram(((0, m), (m, 0))))


def test_staircase_validation():
    with pytest.raises(ValueError):
        NewtonDiagram(((0, 3), (1, 3)))      # b not strictly decreasing
    with pytest.raises(ValueError):
        NewtonDiagram(((1, 3), (0, 5)))      # a not increasing
    with pytest.raises(ValueError):
        NewtonDiagram(((0, 4), (2, 3), (3, 1)))  # slopes -1/2, -2: not convex
    with pytest.raises(ValueError):
        NewtonDiagram(((0, -1), (2, -3)))    # leaves the quadrant
    # steep-then-shallow chains are fine
    NewtonDiagram(((0, 4), (1, 2), (2, 1)))
    NewtonDiagram(((0, 4), (1, 1), (3, 0)))


def test_from_points_normalizes():
    nd = NewtonDiagram.from_points([(2, 0), (2, 0), (0, 4)])
    assert nd.vertices == ((0, 4), (2, 0))
    # collinear middle point is absorbed
    nd = NewtonDiagram.from_points([(0, 4), (1, 2), (2, 0)])
    assert nd.vertices == ((0, 4), (2, 0))
    # dominated points are interior
    nd = NewtonDiagram.from_points([(0, 4), (2, 0), (5, 0), (1, 4)])
    assert nd.vertices == ((0, 4), (2, 0))


def test_kill_points_of_cusp_diagram():
    nd = NewtonDiagram(((0, 4), (3, 0)))  # cusp p=3
    assert nd.multiplicity == 3
    assert nd.kill_points() == [(0, 3), (1, 2), (2, 1)]


def test_kill_points_of_collision_diagram():
    assert collide_omp(2, 1).kill_points() == [(0, 3), (0, 4), (1, 2)]


def test_singularity_spec_validation():
    with pytest.raises(ValueError):
        SingularitySpec.omp(1)
    with pytest.raises(ValueError):
        SingularitySpec.cusp(1)
    with pytest.raises(ValueError):
        SingularitySpec.kbranch()
    with pytest.raises(ValueError):
        SingularitySpec.kbranch(2, 0)
    with pytest.raises(ValueError):
        SingularitySpec.kbranch(1)


def test_determinacy_orders():
    assert SingularitySpec.omp(4).determinacy_order == 4
    assert SingularitySpec.cusp(3).determinacy_order == 4
    assert SingularitySpec.kbranch(1, 1).determinacy_order == 2
    assert SingularitySpec.kbranch(2, 1).determinacy_order == 4
    nd = NewtonDiagram(((0, 5), (1, 3), (3, 0)))
    assert SingularitySpec.from_diagram(nd).determinacy_order == 5


def test_validity_bounds():
    # two ordinary points of multiplicities p+1, q+1 give p+q+2
    omp, cusp = SingularitySpec.omp, SingularitySpec.cusp
    assert stratum_for(omp(4), omp(2)).valid_from_d == 6
    assert stratum_for(omp(2), omp(2)).valid_from_d == 4
    assert stratum_for(cusp(3), omp(2)).valid_from_d == 6


def test_mirrored_swaps_coordinates():
    nd = NewtonDiagram(((0, 5), (1, 3), (3, 0)))
    assert nd.mirrored().vertices == ((0, 3), (3, 1), (5, 0))
    assert nd.mirrored().mirrored() == nd
    assert nd.mirrored().kill_points() == sorted((b, a) for a, b in nd.kill_points())


def test_canonical_sorts_kbranch_multiplicities_descending():
    kb = SingularitySpec.kbranch
    assert kb(1, 2).canonical() == kb(2, 1)
    assert kb(1, 3, 1, 2).canonical() == kb(3, 2, 1, 1)
    descending = kb(3, 2, 2, 1)
    assert descending.canonical() is descending
    assert stratum_for(kb(1, 2)) == stratum_for(kb(2, 1))


def test_canonical_maps_cusp_spellings_to_cusp():
    for p in (2, 3, 7):
        cusp = SingularitySpec.cusp(p)
        assert cusp.canonical() is cusp
        assert SingularitySpec.kbranch(p).canonical() == cusp
        nd = cusp_diagram(p)
        assert nd.vertices == ((0, p + 1), (p, 0))
        assert SingularitySpec.from_diagram(nd).canonical() == cusp
        assert SingularitySpec.from_diagram(nd.mirrored()).canonical() == cusp
    # multiplicity 1 is a smooth point: it stays a diagram, in canonical orientation
    smooth = SingularitySpec.from_diagram(NewtonDiagram(((0, 2), (1, 0))))
    assert smooth.canonical() is smooth
    mirrored = SingularitySpec.from_diagram(NewtonDiagram(((0, 1), (2, 0))))
    assert mirrored.canonical() == smooth
    # a diagram near the cusp's is not the cusp
    tacnode = SingularitySpec.from_diagram(NewtonDiagram(((0, 4), (2, 0))))
    assert tacnode.canonical() is tacnode
