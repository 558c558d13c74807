"""Named divisor and cycle classes on products of planes with the curve system.

Each constructor returns the class of a geometric condition as a CohClass
over an explicitly supplied VarSpec, so the same condition can be written in
any ambient that contains the generators it mentions.  Conventions:

* points of the plane carry generators like "X", "Y"; lines of the dual
  plane carry "L", "L1", ..; every generator is truncated at 3;
* ``monomial_kill_class(a, b)`` is the divisor erasing the Newton-diagram
  vertex with exponent a along the traced tangent line and exponent b
  transverse to it.  The orientation (which axis the traced line occupies)
  is fixed by requiring the chain of kills on the cusp diagram, times the
  incidence of the point with its tangent, to equal the cone-kill division
  of ``kbranch_stratum(p)``; a ``verify`` identity and a test pin this.

The builders make ring data from the package's own integers, so no term
goes through ``CohClass``'s validating constructor: each divisor passes
plain ints (and ``ParamPoly`` only for a coefficient linear in d) to
``CohClass.divisor``, and ``diagonal_class`` writes its packed keys
directly, one ``1 << shift`` field per generator, skipping every monomial
at a truncation.  Every builder that names several generators needs them
distinct, and refuses a name given twice with ValueError rather than
collapse it into a plausible wrong class: a point and a line of one name
(``incidence_class``, ``monomial_kill_class``), one point twice
(``diagonal_class``, ``exceptional_class``), and a cone line given twice
or named as the point (``kill_tangent_cone_class``).
"""

from __future__ import annotations

from collections.abc import Sequence

from .coeffring import ParamPoly, binomial
from .cohring import CohClass, VarSpec


def incidence_class(ambient: VarSpec, point: str, line: str) -> CohClass:
    """Class of {the point lies on the line}: point + line generators."""
    for name in (point, line):
        idx = ambient.index(name)  # raises KeyError for unknown generators
        if ambient.truncations[idx] != 3:
            raise ValueError(f"generator {name} must have truncation 3")
    if point == line:
        raise ValueError(f"the point and the line must be two generators, got {point!r} twice")
    return CohClass.divisor(ambient, 0, {point: 1, line: 1})


def diagonal_class(ambient: VarSpec, a: str, b: str, n: int) -> CohClass:
    """Coincidence of two points of an n-dimensional projective space.

    The class is sum(a^(n-i) * b^i for i in 0..n), reduced modulo the
    truncations.  With n = 2 this is the diagonal of the plane (or of the
    dual plane, giving the class of {l = l_i} for two marked lines).
    """
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    ia, ib = ambient.index(a), ambient.index(b)
    if ia == ib:
        raise ValueError(f"the two points must be two generators, got {a!r} twice")
    ta, tb = ambient.truncations[ia], ambient.truncations[ib]
    sa, sb = ambient._layout[0][ia], ambient._layout[0][ib]
    one = ParamPoly.const(1)
    # a^(n-i) * b^i has packed key (n-i) << sa | i << sb and visible level n
    terms = {(n - i) << sa | i << sb: one for i in range(n + 1) if n - i < ta and i < tb}
    return CohClass(ambient, n, terms, _packed_keys=True)


def exceptional_class(ambient: VarSpec, x: str = "X", y: str = "Y", line: str = "L") -> CohClass:
    """Exceptional divisor of the blowup of the point pair space along its diagonal."""
    if len({x, y, line}) != 3:
        raise ValueError(
            f"the two points and the line must be three generators, got {[x, y, line]}")
    return CohClass.divisor(ambient, 0, {x: 1, y: 1, line: -1})


def monomial_kill_class(ambient: VarSpec, a: int, b: int,
                        point: str = "X", line: str = "L") -> CohClass:
    """Divisor erasing a Newton-diagram vertex.

    ``a`` is the exponent along the traced tangent line, ``b`` the exponent
    transverse to it; the class is F + (d-b-2a)*point + (a-b)*line.  Special
    cases: (a, 0) rectifies the traced branch to contact order a+1, and
    (0, p) kills a one-line tangent cone of multiplicity p.
    """
    if a < 0 or b < 0:
        raise ValueError("exponents must be non-negative")
    if point == line:
        raise ValueError(f"the point and the line must be two generators, got {point!r} twice")
    return CohClass.divisor(ambient, 1, {
        point: ParamPoly((-b - 2 * a, 1)),
        line: a - b,
    })


def kill_tangent_cone_class(ambient: VarSpec, p: int,
                            cone: Sequence[tuple[str, int]],
                            point: str = "X") -> CohClass:
    """Divisor raising the multiplicity from p to p+1.

    ``cone`` lists the tangent lines with their multiplicities; these must
    sum to p, and the lines and the point must be distinct generators.  The
    class is F + (d-p)*point - sum(p_i * L_i).
    """
    total = sum(m for _, m in cone)
    if total != p:
        raise ValueError(f"tangent cone multiplicities sum to {total}, expected {p}")
    names = [point] + [name for name, _ in cone]
    if len(set(names)) != len(names):
        raise ValueError(
            f"the point and the cone lines must be {len(names)} generators, got {names}")
    parts: dict[str, ParamPoly | int] = {point: ParamPoly((-p, 1))}
    for name, mult in cone:
        parts[name] = -mult
    return CohClass.divisor(ambient, 1, parts)


def omp_conditions_class(ambient: VarSpec, p: int, point: str = "X") -> CohClass:
    """Vanishing of all order-p derivatives at a point: multiplicity >= p+1.

    The conditions are a smooth global complete intersection, so the class
    is (F + (d-p)*point)^binomial(p+2, 2).
    """
    factor, power = _omp_conditions_factor(ambient, p, point)
    return factor ** power


def _omp_conditions_factor(ambient: VarSpec, p: int, point: str = "X") -> tuple[CohClass, int]:
    """``omp_conditions_class`` as a factor and its exponent, unmultiplied:
    (F + (d-p)*point, binomial(p+2, 2)).  Strata recipes hold it so."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return CohClass.divisor(ambient, 1, {point: ParamPoly((-p, 1))}), binomial(p + 2, 2)
