"""Cohomology classes of lifted equisingular strata.

A lifted stratum traces the singular points, their tangent lines and (for
two-point strata) the connecting line, which turns the stratum into a
projective fibration over an incidence variety; its class is then a product
of explicit divisor classes.  Generators: X and Y for the two points, L for
the connecting line, L1.. for tangent-cone lines.

Three construction routes appear:

* closed-form products (ordinary points, cusps, two ordinary points);
* diagram products: multiplicity conditions times one vertex-erasing
  divisor per lattice point missing under the Newton staircase;
* the cone-kill division: killing the tangent cone raises the multiplicity
  from p to p+1, so the class is an ordinary-point class divided by the
  killing divisor.  Marked-branch types divide the ordinary-point
  conditions with their incidences; the degeneration recursion beside a
  node first subtracts the residual classes supported over the
  merged-points locus.  The division is exact because the killing divisor
  is F + (nilpotent part).
"""

from __future__ import annotations

import math

from ._value import Value
from .coeffring import ParamPoly
from .cohring import CohClass, VarSpec, product_of
from .collide import NewtonDiagram, SingularitySpec, is_linear
from .divisors import (
    diagonal_class,
    exceptional_class,
    incidence_class,
    kill_tangent_cone_class,
    monomial_kill_class,
    omp_conditions_class,
)


class StratumClass(Value):
    """A lifted stratum class with its extraction metadata."""

    __slots__ = _fields = ("cls", "aut_order", "valid_from_d", "route")

    def __init__(self, cls: CohClass, aut_order: int, valid_from_d: int, route: str):
        self._assign(cls=cls, aut_order=aut_order, valid_from_d=valid_from_d, route=route)

    @property
    def ambient(self) -> VarSpec:
        return self.cls.ambient


def cone_line_names(k: int) -> tuple[str, ...]:
    return tuple(f"L{i}" for i in range(1, k + 1))


def omp_stratum(p: int) -> StratumClass:
    """Ordinary point of multiplicity p+1, traced by the point only."""
    if p < 1:
        raise ValueError("p must be >= 1")
    ambient = VarSpec.projective(("X",))
    cls = omp_conditions_class(ambient, p)
    return StratumClass(cls, aut_order=1, valid_from_d=p + 1, route="complete intersection")


def _branch_symmetry(mults: tuple[int, ...]) -> int:
    """Order of the deck symmetry permuting branches of equal multiplicity."""
    aut = 1
    for value in set(mults):
        aut *= math.factorial(mults.count(value))
    return aut


def kbranch_stratum(*mults: int) -> StratumClass:
    """Pairwise non-tangent branches with tangent cone l1^p1 .. lk^pk.

    The lifting traces the point and all k tangent lines.  Killing the
    tangent cone raises the multiplicity from p to p+1, so the class is the
    ordinary-point conditions times the incidences, divided by the kill
    divisor:

        (F + (d-p)X)^M * prod(X + L_i) / (F + (d-p)X - sum p_i L_i),

    M = binomial(p+2, 2).  The quotient is the geometric sum
    sum_j (F + (d-p)X)^(M-1-j) * (sum p_i L_i)^j times the incidences,
    because (sum p_i L_i)^M = 0 once each L_i^3 = 0 and M > 2k.  Multiplying
    by the kill divisor is injective on bounded classes, so ``divide_exact``
    finds that quotient and checks it by multiplying back.  Identical branch
    multiplicities are permuted by the deck symmetry, recorded in aut_order.
    """
    spec = SingularitySpec.kbranch(*mults)
    p = sum(mults)
    names = cone_line_names(len(mults))
    ambient = VarSpec.projective(("X",) + names)
    conditions = product_of([omp_conditions_class(ambient, p)]
                            + [incidence_class(ambient, "X", name) for name in names])
    cls = conditions.divide_exact(kill_tangent_cone_class(ambient, p, list(zip(names, mults))))
    return StratumClass(cls, aut_order=_branch_symmetry(mults),
                        valid_from_d=spec.determinacy_order,
                        route="marked-branch product")


def cusp_stratum(p: int) -> StratumClass:
    """One branch of multiplicity p with contact order p+1 against its tangent.

    Class over {X, L}: the multiplicity-p conditions times one vertex kill
    per degree-p monomial off the tangent cone,

        (F + (d-p+1)X)^binomial(p+1, 2) * prod_i (F + (d+i-2p)X + (p-2i)L).

    The incidence of the point with the tangent line is not included; Gysin
    extraction multiplies it in.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    ambient = VarSpec.projective(("X", "L"))
    factors = [omp_conditions_class(ambient, p - 1)]
    for i in range(p):
        # kills the monomial with exponent p-i along the tangent, i transverse
        factors.append(monomial_kill_class(ambient, p - i, i))
    cls = product_of(factors)
    return StratumClass(cls, aut_order=1, valid_from_d=p + 1, route="kill chain")


def _diagram_product(nd: NewtonDiagram, ambient: VarSpec,
                     point: str = "X", line: str = "L") -> CohClass:
    """Multiplicity conditions of a diagram times its vertex-kill divisors.

    The diagram is read with the traced tangent line along its vertical
    axis: the kill class of the lattice point (a, b) therefore has b as the
    along-line exponent and a as the transverse one.
    """
    m = nd.multiplicity
    factors = [omp_conditions_class(ambient, m - 1, point)]
    for a, b in nd.kill_points():
        factors.append(monomial_kill_class(ambient, b, a, point, line))
    return product_of(factors)


def diagram_stratum(nd: NewtonDiagram) -> StratumClass:
    """Stratum of a linear diagram type over {X, L}, bare of incidences."""
    if not is_linear(nd):
        raise ValueError(f"diagram {nd.vertices} is not a linear type")
    if nd.multiplicity < 2:
        raise ValueError("smooth points have no stratum")
    ambient = VarSpec.projective(("X", "L"))
    cls = _diagram_product(nd, ambient)
    valid = max(a + b for a, b in nd.vertices)
    return StratumClass(cls, aut_order=1, valid_from_d=valid, route="diagram product")


def _two_omp_product(ambient: VarSpec, p: int, q: int) -> CohClass:
    """Product form of the two ordinary points class over x, y and the line."""
    return product_of(_two_omp_factors(ambient, p, q))


def _two_omp_factors(ambient: VarSpec, p: int, q: int) -> list[CohClass]:
    """The factors of ``_two_omp_product``: incidences, conditions, linear factors."""
    exceptional = exceptional_class(ambient)
    factors = [
        incidence_class(ambient, "X", "L"),
        incidence_class(ambient, "Y", "L"),
        omp_conditions_class(ambient, p),
    ]
    for i in range(q + 1):
        for j in range(q - i + 1):
            linear = CohClass.divisor(ambient, 1, {
                "Y": ParamPoly((-i - j, 1)),
                "X": ParamPoly.const(i),
                "L": ParamPoly.const(-j),
            })
            factors.append(linear - exceptional.scaled(p + 1 + i - j))
    return factors


def two_omp_stratum(p: int, q: int) -> StratumClass:
    """Two ordinary points of multiplicities p+1 >= q+1 with the connecting line.

    The construction is asymmetric, so p < q is rejected rather than
    silently swapped; callers wanting an unordered pair sort the
    multiplicities first (``stratum_for`` does).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if p < q:
        raise ValueError(
            f"the product form needs p >= q (got p={p}, q={q}); "
            "substitute max and min of the two parameters")
    ambient = VarSpec.projective(("X", "Y", "L"))
    cls = _two_omp_product(ambient, p, q)
    return StratumClass(cls, aut_order=2 if p == q else 1,
                        valid_from_d=p + q + 2, route="two-point product")


def _dispatch_order(sx: SingularitySpec, sy: SingularitySpec | None = None
                    ) -> tuple[SingularitySpec, SingularitySpec | None]:
    """The types of a stratum as ``stratum_for`` dispatches on them.

    Each type is put in canonical form (``SingularitySpec.canonical``).  A
    pair is unordered: two ordinary points come with the higher
    multiplicity first, otherwise a type that is not an ordinary point
    comes first.  Both orders of a pair therefore give one result, which
    also keys the degree memo of ``stratum_degree``.
    """
    sx = sx.canonical()
    if sy is None:
        return sx, None
    sy = sy.canonical()
    if sx.kind == "omp" and (sy.kind != "omp" or sy.mults[0] > sx.mults[0]):
        sx, sy = sy, sx
    return sx, sy


def stratum_for(sx: SingularitySpec, sy: SingularitySpec | None = None) -> StratumClass:
    """The one dispatch from singularity types to a stratum construction.

    One type gives its single-point stratum.  A pair is unordered: two
    ordinary points use the closed product form (multiplicities sorted
    descending first), and a cusp or marked-branch type beside a node uses
    the degeneration recursion; other pairs raise ValueError.  Diagram
    types are first put in canonical orientation (``SingularitySpec.
    canonical``), so a mirrored diagram gives the same class and a
    homogeneous one is an ordinary point.

    The class is returned bare.  For cusp and diagram types it lives over
    {X, L} but leaves out the incidence of the point with its tangent line
    L; the degree layer multiplies that in before Gysin extraction, while
    the ``class`` verb prints the stratum exactly as its route builds it.
    """
    sx, sy = _dispatch_order(sx, sy)
    if sy is None:
        if sx.kind == "omp":
            return omp_stratum(sx.mults[0] - 1)
        if sx.kind == "cusp":
            return cusp_stratum(sx.mults[0])
        if sx.kind == "kbranch":
            return kbranch_stratum(*sx.mults)
        if sx.kind == "diagram":
            return diagram_stratum(sx.diagram)
        raise ValueError(f"unsupported singularity kind {sx.kind!r}")
    if sx.kind == "omp":  # then both are ordinary points
        return two_omp_stratum(sx.mults[0] - 1, sy.mults[0] - 1)
    if sy.kind == "omp" and sy.mults[0] == 2 and sx.kind in ("cusp", "kbranch"):
        return node_pair_stratum(sx)
    raise ValueError(
        f"unsupported pair ({sx.describe()}, {sy.describe()}): two ordinary "
        "points, or a cusp/kbranch type beside a node, are available")


# -- degeneration recursion for a node partner ---------------------------------

def residual_tangency_one_diagram(p: int) -> NewtonDiagram:
    """Diagram of the residual stratum along the generic-line locus.

    Multiplicity p+1 together with vanishing of the (p+1)-st derivative
    tensor contracted p times along the merged line: after the Euler
    relations that erases the two monomials (1, p) and (0, p+1).
    """
    return NewtonDiagram.from_points([(0, p + 2), (2, p - 1), (p + 1, 0)])


def residual_tangency_two_diagram(p: int) -> NewtonDiagram:
    """Diagram of the residual stratum along a simple-tangent coincidence.

    Contracting the (p+1)-st derivative tensor p+1 times along the line
    erases the single monomial (0, p+1).
    """
    return NewtonDiagram.from_points([(0, p + 2), (1, p), (p + 1, 0)])


def node_pair_recursion_parts(sx: SingularitySpec):
    """Right-hand side and killing divisor of the recursion for (sx, node).

    Supported sx kinds are cusp and kbranch: exactly the types whose cone
    kill lands on an ordinary point, for which the residual components and
    their tangency degrees (2 along the generic-line locus, 1 along each
    simple-tangent coincidence, none along multiple-tangent coincidences)
    are established.  Returns (rhs, kill, ambient, line_names).
    """
    if sx.kind == "cusp":
        cone = (sx.mults[0],)
    elif sx.kind == "kbranch":
        cone = sx.mults
    else:
        raise ValueError(
            f"recursion route supports cusp and kbranch types, not {sx.kind!r}")
    p = sum(cone)
    if p < 2:
        raise ValueError("the singular point needs multiplicity >= 2")
    names = cone_line_names(len(cone))
    ambient = VarSpec.projective(("X", "Y", "L") + names)
    cone_pairs = list(zip(names, cone))

    kill = kill_tangent_cone_class(ambient, p, cone_pairs)
    marked = product_of([incidence_class(ambient, "X", name) for name in names])

    # cone killed: an ordinary point of multiplicity p+1 beside the node
    degenerate = _two_omp_product(ambient, p, 1) * marked

    merged = diagonal_class(ambient, "X", "Y", 2)
    s1 = _diagram_product(residual_tangency_one_diagram(p), ambient)
    s1 = s1 * incidence_class(ambient, "X", "L") * marked
    # the kill divisor has tangency degree 2 along the generic-line locus
    rhs = degenerate + (merged * s1).scaled(2)

    simple_lines = [name for name, mult in cone_pairs if mult == 1]
    if simple_lines:
        # On {l = l_i} the incidences of x with l and with l_i coincide, so
        # only the marked-line incidences enter; adding (X+L) as well would
        # overshoot the codimension by one.
        s2 = _diagram_product(residual_tangency_two_diagram(p), ambient) * marked
        # tangency degree 1 along each simple-tangent coincidence
        diagonals = [diagonal_class(ambient, "L", name, 2) for name in simple_lines]
        rhs = rhs + sum(diagonals[1:], diagonals[0]) * (merged * s2)
    return rhs, kill, ambient, names


def node_pair_stratum(sx: SingularitySpec) -> StratumClass:
    """Lifted stratum of sx at one point and a node at another, by recursion."""
    rhs, kill, ambient, names = node_pair_recursion_parts(sx)
    cls = rhs.divide_exact(kill)
    aut = 1
    if sx.kind == "kbranch":
        aut = _branch_symmetry(sx.mults)
        if sx.mults == (1, 1):
            aut *= 2  # both points are then plain nodes, unordered
    valid = sx.determinacy_order + 2
    return StratumClass(cls, aut_order=aut, valid_from_d=valid,
                        route="degeneration recursion via ordinary point")
