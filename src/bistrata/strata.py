"""Cohomology classes of lifted equisingular strata.

A lifted stratum traces the singular points, their tangent lines and (for
two-point strata) the connecting line, which turns the stratum into a
projective fibration over an incidence variety; its class is then a product
of explicit divisor classes.  Generators: X and Y for the two points, L for
the connecting line, L1.. for tangent-cone lines.

Three construction routes appear:

* closed-form products (ordinary points, two ordinary points);
* diagram products: multiplicity conditions times one vertex-erasing
  divisor per lattice point missing under the Newton staircase (diagram
  types and the cusp);
* the cone-kill division: killing the tangent cone raises the multiplicity
  from p to p+1, so the class is an ordinary-point class divided by the
  killing divisor.  Marked-branch types divide the ordinary-point
  conditions with their incidences; the degeneration recursion beside a
  node first subtracts the residual classes supported over the
  merged-points locus.  The division is exact because the killing divisor
  is F + (nilpotent part).

Every stratum has one description, a recipe (``StratumClass``): a list of
summands, each an integer weight times (factor class, exponent) pairs,
whose sum is the dividend, and a kill divisor, or None for a product
stratum.  An ordinary point is one factor, F + (d-p)X to the power
M = binomial(p+2, 2); a diagram stratum adds its vertex kills; kbranch has
the conditions factor and the incidences over its kill divisor; a node
pair has the recursion's terms, two or three.  The two-point product is
built eagerly, and holds its class as the recipe of one factor.  A degree
is one coefficient of the dividend or of its quotient, which
``recipe_quotient_top`` computes from the factors on one Kronecker
evaluation, without building the dividend or the quotient; every kbranch
and node-pair recipe lies in the range where the kill divisor's series is
the quotient.  Only a read of the class multiplies the recipe out (the
stratum's ``dividend``, kept once formed) and, when there is a kill
divisor, divides.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._value import Value
from .coeffring import ParamPoly
from .cohring import CohClass, VarSpec, product_of
from .collide import NewtonDiagram, SingularitySpec, cusp_diagram, is_linear
from .divisors import (
    _omp_conditions_factor,
    diagonal_class,
    exceptional_class,
    incidence_class,
    kill_tangent_cone_class,
    monomial_kill_class,
    omp_conditions_class,
)


class StratumClass(Value):
    """A lifted stratum as a recipe, with its extraction metadata.

    The recipe is ``summands``, each an integer weight times a list of
    (factor class, exponent) pairs, and ``kill``, a divisor or None.  The
    dividend is the sum of the weighted products; the class is the dividend
    divided by the kill divisor, or the dividend itself when ``kill`` is
    None.  ``gysin_degree`` reads the degree from the recipe alone
    (``recipe_quotient_top``), with no class in between.  The first read of
    ``dividend`` multiplies the recipe out and keeps the result; the first
    read of ``cls`` divides that kept dividend with ``divide_exact``,
    multiply-back check included, when there is a kill divisor, and keeps
    the class.  Equality, hashing, repr and pickling are those of the
    class, so they read it.  The constructor takes a class that is already
    built: its recipe is the one factor [(1, [(cls, 1)])], with no kill.
    """

    _fields = ("cls", "aut_order", "valid_from_d", "route")
    __slots__ = ("_cls", "_dividend", "summands", "kill", "ambient", "aut_order",
                 "valid_from_d", "route")

    def __init__(self, cls: CohClass, aut_order: int, valid_from_d: int, route: str):
        self._assign(_cls=cls, _dividend=cls, summands=[(1, [(cls, 1)])], kill=None,
                     ambient=cls.ambient, aut_order=aut_order, valid_from_d=valid_from_d,
                     route=route)

    @classmethod
    def by_recipe(cls, summands: list[tuple[int, list[tuple[CohClass, int]]]],
                  kill: CohClass | None, aut_order: int, valid_from_d: int,
                  route: str) -> "StratumClass":
        """The stratum whose class is sum(weight * prod(factor^exponent)),
        divided by kill unless it is None, multiplied out (and divided) when
        first read."""
        stratum = object.__new__(cls)
        stratum._assign(_cls=None, _dividend=None, summands=summands, kill=kill,
                        ambient=summands[0][1][0][0].ambient, aut_order=aut_order,
                        valid_from_d=valid_from_d, route=route)
        return stratum

    @property
    def dividend(self) -> CohClass:
        if self._dividend is None:
            self._assign(_dividend=_multiplied_out(self.summands))
        return self._dividend

    @property
    def cls(self) -> CohClass:
        if self._cls is None:
            dividend = self.dividend
            self._assign(_cls=dividend if self.kill is None else dividend.divide_exact(self.kill))
        return self._cls


def _multiplied_out(summands: list[tuple[int, list[tuple[CohClass, int]]]]) -> CohClass:
    """The dividend of a recipe, sum(weight * prod(factor^exponent)), by the
    ring's own products: each summand is one ``product_of``."""
    total = None
    for weight, factors in summands:
        term = product_of([x if e == 1 else x ** e for x, e in factors])
        if weight != 1:
            term = term.scaled(weight)
        total = term if total is None else total + term
    return total


def cone_line_names(k: int) -> tuple[str, ...]:
    return tuple(f"L{i}" for i in range(1, k + 1))


def omp_stratum(p: int) -> StratumClass:
    """Ordinary point of multiplicity p+1, traced by the point only."""
    if p < 1:
        raise ValueError("p must be >= 1")
    ambient = VarSpec.projective(("X",))
    return StratumClass.by_recipe([(1, [_omp_conditions_factor(ambient, p)])], None,
                                  aut_order=1, valid_from_d=p + 1,
                                  route="complete intersection")


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

    The stratum is a recipe of one summand: the conditions as the factor
    F + (d-p)X to the power M, and the incidences.  The dividend has total
    degree M + k, and the quotient's top monomial has visible level 2 + 2k.
    M >= k + 3 holds for every type (p >= k and p >= 2), so the degree is
    read from the recipe by the kill divisor's series
    (``recipe_quotient_top``), and only a read of ``cls`` multiplies it
    out and divides.

    A single branch is the cusp: ``stratum_for`` builds it by its diagram
    product, and ``verify`` compares that with this division.
    """
    spec = SingularitySpec.kbranch(*mults)
    p = sum(mults)
    names = cone_line_names(len(mults))
    ambient = VarSpec.projective(("X",) + names)
    factors = ([_omp_conditions_factor(ambient, p)]
               + [(incidence_class(ambient, "X", name), 1) for name in names])
    kill = kill_tangent_cone_class(ambient, p, list(zip(names, mults)))
    return StratumClass.by_recipe([(1, factors)], kill, aut_order=_branch_symmetry(mults),
                                  valid_from_d=spec.determinacy_order,
                                  route="marked-branch product")


def _diagram_factors(nd: NewtonDiagram, ambient: VarSpec, point: str = "X",
                     line: str = "L") -> list[tuple[CohClass, int]]:
    """Multiplicity conditions of a diagram and its vertex-kill divisors,
    as (factor, exponent) pairs."""
    kills = _vertex_kills(nd, ambient, point, line)
    return [_omp_conditions_factor(ambient, nd.multiplicity - 1, point)] + [(x, 1) for x in kills]


def _vertex_kills(nd: NewtonDiagram, ambient: VarSpec,
                  point: str = "X", line: str = "L") -> list[CohClass]:
    """The vertex-kill divisors of a diagram.

    The diagram is read with the traced tangent line along its vertical
    axis: the kill class of the lattice point (a, b) therefore has b as the
    along-line exponent and a as the transverse one.
    """
    return [monomial_kill_class(ambient, b, a, point, line) for a, b in nd.kill_points()]


def diagram_stratum(nd: NewtonDiagram) -> StratumClass:
    """Stratum of a linear diagram type over {X, L}, bare of incidences."""
    if not is_linear(nd):
        raise ValueError(f"diagram {nd.vertices} is not a linear type")
    if nd.multiplicity < 2:
        raise ValueError("smooth points have no stratum")
    ambient = VarSpec.projective(("X", "L"))
    valid = max(a + b for a, b in nd.vertices)
    return StratumClass.by_recipe([(1, _diagram_factors(nd, ambient))], None, aut_order=1,
                                  valid_from_d=valid, route="diagram product")


def _two_omp_factors(ambient: VarSpec, p: int, q: int) -> list[CohClass]:
    """The factors of the two ordinary points class over x, y and the line:
    incidences, conditions, linear factors."""
    return [incidence_class(ambient, "X", "L"), incidence_class(ambient, "Y", "L"),
            omp_conditions_class(ambient, p)] + _two_omp_linear_factors(ambient, p, q)


def _two_omp_linear_factors(ambient: VarSpec, p: int, q: int) -> list[CohClass]:
    """The linear factors of the y conditions, offset by the exceptional divisor."""
    exceptional = exceptional_class(ambient)
    factors = []
    for i in range(q + 1):
        for j in range(q - i + 1):
            linear = CohClass.divisor(ambient, 1, {"Y": ParamPoly((-i - j, 1)), "X": i, "L": -j})
            factors.append(linear + exceptional.scaled(j - i - p - 1))
    return factors


def two_omp_stratum(p: int, q: int) -> StratumClass:
    """Two ordinary points of multiplicities p+1 >= q+1 with the connecting line.

    The construction is asymmetric, so p < q is rejected rather than
    silently swapped; callers wanting an unordered pair sort the
    multiplicities first (``stratum_for`` does).  The class is the product
    of ``_two_omp_factors``, built here: the stratum holds it as the recipe
    of one factor.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if p < q:
        raise ValueError(
            f"the product form needs p >= q (got p={p}, q={q}); "
            "substitute max and min of the two parameters")
    ambient = VarSpec.projective(("X", "Y", "L"))
    cls = product_of(_two_omp_factors(ambient, p, q))
    return StratumClass(cls, aut_order=2 if p == q else 1,
                        valid_from_d=p + q + 2, route="two-point product")


def _dispatch_order(sx: SingularitySpec, sy: SingularitySpec | None = None
                    ) -> tuple[SingularitySpec, SingularitySpec | None]:
    """The types of a stratum as ``stratum_for`` dispatches on them.

    Each type is put in canonical form (``SingularitySpec.canonical``).  A
    pair is unordered: two ordinary points come with the higher
    multiplicity first, otherwise a type that is not an ordinary point
    comes first.  Both orders of a pair therefore give one result, which
    also keys the stratum memo of ``stratum_for`` and the degree memo of
    ``stratum_degree``.
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
    the degeneration recursion; other pairs raise ValueError.  Types are
    first put in normal form (``SingularitySpec.canonical``): a mirrored
    diagram gives the same class, a homogeneous one is an ordinary point,
    and kbranch:p and the cusp diagram are cusp:p, built by its diagram
    product.

    The class is returned bare.  For cusp and diagram types it lives over
    {X, L} but leaves out the incidence of the point with its tangent line
    L; the degree layer adds that to the recipe as one more factor before
    Gysin extraction, while the ``class`` verb prints the stratum exactly
    as its route builds it.

    Strata are memoised for the life of the process (``_memoised_stratum``),
    so both orders and every spelling of one stratum return the same object;
    its class must not be changed in place.  A refused type or pair raises
    on every call and is never stored.
    """
    return _memoised_stratum(*_dispatch_order(sx, sy))


@lru_cache(maxsize=32)
def _memoised_stratum(sx: SingularitySpec, sy: SingularitySpec | None) -> StratumClass:
    """``stratum_for`` of types already in ``_dispatch_order``.

    The bound of 32 entries is fixed from the traffic: a warm query stream
    asks for about 16 distinct classes, 0.16 MiB together.  An entry holds
    its recipe: small factor classes and the kill divisor, 14 KiB for
    kbranch 1^8 and 24 KiB for node pair kbranch 1^5, not a dividend; a
    two-point product holds its whole class.  Reading the class multiplies
    the recipe out, divides when there is a kill divisor, and the entry
    keeps the result, a few KiB for an ordinary point or a cusp.  For
    kbranch 1^8 it keeps a 13 KiB dividend and a 0.9 MiB quotient, for
    kbranch 1^9 14 KiB and 1.9 MiB.  32 read entries of that last size hold
    about 61 MiB, and each further branch multiplies a quotient by about
    2.3.
    """
    return _build_stratum(sx, sy)


def _build_stratum(sx: SingularitySpec, sy: SingularitySpec | None) -> StratumClass:
    """The dispatch of ``stratum_for``, unmemoised, on types already in
    ``_dispatch_order``.  The degree memo builds through it, so a degree
    miss leaves no class behind."""
    if sy is None:
        if sx.kind == "omp":
            return omp_stratum(sx.mults[0] - 1)
        if sx.kind == "cusp":
            return diagram_stratum(cusp_diagram(sx.mults[0]))
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


def _node_pair_recipe(sx: SingularitySpec):
    """Recipe and killing divisor of the recursion for (sx, node).

    Supported sx kinds are cusp and kbranch: exactly the types whose cone
    kill lands on an ordinary point, for which the residual components and
    their tangency degrees (2 along the generic-line locus, 1 along each
    simple-tangent coincidence, none along multiple-tangent coincidences)
    are established.  The right-hand side is the sum of three summands:
    the degenerate term, 2 * merged * s1, and sum(diagonals) * merged * s2
    (the last only when a tangent is simple).  Returns (summands, kill).
    """
    if sx.kind not in ("cusp", "kbranch"):
        raise ValueError(
            f"recursion route supports cusp and kbranch types, not {sx.kind!r}")
    cone = sx.mults
    p = sum(cone)
    if p < 2:
        raise ValueError("the singular point needs multiplicity >= 2")
    names = cone_line_names(len(cone))
    ambient = VarSpec.projective(("X", "Y", "L") + names)
    cone_pairs = list(zip(names, cone))

    kill = kill_tangent_cone_class(ambient, p, cone_pairs)
    # every summand holds these two: the conditions of multiplicity p+1 (the
    # residual diagrams have that multiplicity too) and the marked incidences
    conditions = _omp_conditions_factor(ambient, p)
    marked = [(incidence_class(ambient, "X", name), 1) for name in names]
    on_line = incidence_class(ambient, "X", "L")

    # cone killed: an ordinary point of multiplicity p+1 beside the node
    degenerate = ([(on_line, 1), (incidence_class(ambient, "Y", "L"), 1), conditions]
                  + [(x, 1) for x in _two_omp_linear_factors(ambient, p, 1)])
    merged = (diagonal_class(ambient, "X", "Y", 2), 1)
    s1 = ([conditions, (on_line, 1)]
          + [(x, 1) for x in _vertex_kills(residual_tangency_one_diagram(p), ambient)])
    # the kill divisor has tangency degree 2 along the generic-line locus
    summands = [(1, marked + degenerate), (2, marked + [merged] + s1)]

    simple_lines = [name for name, mult in cone_pairs if mult == 1]
    if simple_lines:
        # On {l = l_i} the incidences of x with l and with l_i coincide, so
        # only the marked-line incidences enter; adding (X+L) as well would
        # overshoot the codimension by one.
        s2 = [conditions] + [(x, 1) for x in
                             _vertex_kills(residual_tangency_two_diagram(p), ambient)]
        # tangency degree 1 along each simple-tangent coincidence
        diagonals = [diagonal_class(ambient, "L", name, 2) for name in simple_lines]
        summands.append((1, marked + [(sum(diagonals[1:], diagonals[0]), 1), merged] + s2))
    return summands, kill


def node_pair_stratum(sx: SingularitySpec) -> StratumClass:
    """Lifted stratum of sx at one point and a node at another, by recursion.

    The stratum is the recursion's recipe over the kill divisor
    (``StratumClass.by_recipe``), so the recursion's right-hand side is the
    stratum's ``dividend``.  For k cone lines the right-hand side has
    total degree M + 5 + k, M = binomial(p+2, 2), and the quotient's top
    monomial has visible level 6 + 2k; M >= k + 2 always holds, so the
    degree is read from the recipe by the kill divisor's series
    (``recipe_quotient_top``), and only a read of ``cls`` multiplies the
    recipe out and divides.
    """
    summands, kill = _node_pair_recipe(sx)
    aut = _branch_symmetry(sx.mults)
    if sx.mults == (1, 1):
        aut *= 2  # both points are then plain nodes, unordered
    valid = sx.determinacy_order + 2
    return StratumClass.by_recipe(summands, kill, aut_order=aut, valid_from_d=valid,
                                  route="degeneration recursion via ordinary point")
