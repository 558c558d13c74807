"""Gysin extraction, the degree of a stratum, closed-form recovery and the
reference-formula catalog.

The degree of a stratum is the coefficient of the top monomial in the
auxiliary generators (exponent truncation-1 on each), divided by the order
of the symmetry that permutes identical singularity data.  The catalog
transcribes published closed forms literally, with rational intermediate
arithmetic and an integrality assertion, since several of them carry
fractional prefactors that must clear on integer inputs.

``stratum_degree`` results are memoised for the life of the process in a
bounded LRU of 1024 entries, keyed on the canonical unordered type pair and
holding only the small ``DegreeResult``, never a class.  A refused type or
pair raises on every call and is never stored.  The builders and
``stratum_for`` are not memoised, so the ``class`` verb and the ``verify``
identities built through the builders rebuild every time.  A one-shot CLI
process sees no change.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from ._value import Value
from .coeffring import InterpolationError, ParamPoly, binomial
from .collide import SingularitySpec
from .divisors import incidence_class
from .strata import StratumClass, _dispatch_order, stratum_for


class DegreeResult(Value):
    """An enumerative degree: raw top coefficient over a symmetry divisor.

    ``degree`` is the integer polynomial extracted from the lifted class;
    the honest curve count is degree / aut_applied.  The quotient can have
    half-integral coefficients (already for two plain nodes), so the
    division is recorded and performed exactly on values.
    """

    __slots__ = _fields = ("degree", "aut_applied", "valid_from_d", "route")

    def __init__(self, degree: ParamPoly, aut_applied: int, valid_from_d: int, route: str):
        self._assign(degree=degree, aut_applied=aut_applied, valid_from_d=valid_from_d,
                     route=route)

    def value_at(self, d0: int) -> int:
        """Exact count at d = d0; a failed division signals a modeling bug."""
        raw = self.degree(d0)
        if raw % self.aut_applied:
            raise ArithmeticError(
                f"value {raw} at d={d0} not divisible by the symmetry order "
                f"{self.aut_applied}")
        return raw // self.aut_applied

    def __str__(self) -> str:
        if self.aut_applied == 1:
            return str(self.degree)
        return f"({self.degree})/{self.aut_applied}"

    def to_json(self) -> dict:
        return {
            "degree": self.degree.to_json(),
            "aut_applied": self.aut_applied,
            "valid_from_d": self.valid_from_d,
            "route": self.route,
        }


def gysin_degree(s: StratumClass) -> DegreeResult:
    """Top-monomial coefficient of a lifted stratum, with its symmetry divisor."""
    raw = s.cls.coefficient(s.ambient.top_exponent())
    return DegreeResult(raw, s.aut_order, s.valid_from_d, s.route)


def stratum_degree(sx: SingularitySpec, sy: SingularitySpec | None = None) -> DegreeResult:
    """Enumerative degree of the stratum of one type, or of an unordered pair.

    The stratum comes from ``stratum_for``, with the same supported types
    and pairs.  A single cusp or diagram stratum comes bare of the
    point-on-tangent incidence, which is multiplied in here.  Results are
    memoised per process (see the module docstring); errors are not.
    """
    return _memoised_degree(*_dispatch_order(sx, sy))


# A fixed bound: a warm process asks a few hundred distinct pairs, and an
# entry holds one small DegreeResult.
@lru_cache(maxsize=1024)
def _memoised_degree(sx: SingularitySpec, sy: SingularitySpec | None) -> DegreeResult:
    """``stratum_degree`` of types already in ``_dispatch_order``."""
    s = stratum_for(sx, sy)
    if sy is None and sx.kind in ("cusp", "diagram"):
        s = StratumClass(s.cls * incidence_class(s.ambient, "X", "L"),
                         s.aut_order, s.valid_from_d, s.route)
    return gysin_degree(s)


class ClosedForm(Value):
    """Exact bivariate closed form of a degree family.

    The polynomial lives in the variables (p, z) with z = d - p, stored in
    the basis binomial(p - p_base, i) * z^j with integer grid entries:
    grid[i] holds the z-coefficients of the i-th forward difference.  This
    is the canonical integer representation of an integer-valued family
    (monomial coefficients of such families are genuinely fractional).
    """

    __slots__ = _fields = ("p_base", "grid", "holdout")

    def __init__(self, p_base: int, grid: tuple[tuple[int, ...], ...], holdout: int):
        self._assign(p_base=p_base, grid=grid, holdout=holdout)

    def at_p(self, p0: int) -> ParamPoly:
        """The exact d-polynomial of the family member at integer p0."""
        acc = ParamPoly()
        for i, row in enumerate(self.grid):
            acc = acc + binomial(p0 - self.p_base, i) * ParamPoly(row)
        return acc.shifted(-p0)  # substitute z = d - p0

    def p_degree(self) -> int:
        return len(self.grid) - 1


def closed_form_in_p(family: Callable[[int], ParamPoly],
                     p_start: int, p_end: int) -> ClosedForm:
    """Recover the closed form of a degree family as a polynomial in (p, d-p).

    Samples at the consecutive parameters p_start..p_end are rewritten in
    z = d - p, where the published forms have small p-degree, and assembled
    by exact forward differences.  A held-out sample at p_end + 1 guards
    against an insufficient degree bound and raises InterpolationError when
    it disagrees.
    """
    if p_end - p_start + 1 < 2:
        raise InterpolationError("need at least two samples")
    level = [family(p0).shifted(p0) for p0 in range(p_start, p_end + 1)]  # d = z + p0
    rows = []
    while level:
        rows.append(level[0].coeffs)
        level = [b - a for a, b in zip(level, level[1:])]
    while len(rows) > 1 and not rows[-1]:
        rows.pop()
    form = ClosedForm(p_start, tuple(rows), p_end + 1)
    if form.at_p(form.holdout) != family(form.holdout):
        raise InterpolationError(
            f"held-out sample at p={form.holdout} disagrees: degree bound too low")
    return form


# -- reference formulas ---------------------------------------------------------


def _int(x: Fraction | int) -> int:
    frac = Fraction(x)
    if frac.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {frac}")
    return int(frac)


def _zpoly(p: int, *terms: tuple[int, Fraction | int]) -> ParamPoly:
    """Polynomial sum(c_k * (d-p)^k) from (k, c_k) pairs; asserts integrality."""
    z = ParamPoly((-p, 1))
    acc = ParamPoly()
    for k, c in terms:
        acc = acc + _int(c) * z ** k
    return acc


def reference_omp(p: int) -> ParamPoly:
    """Ordinary point of multiplicity p+1: binom(binom(p+2,2),2) (d-p)^2."""
    return _zpoly(p, (2, binomial(binomial(p + 2, 2), 2)))


def reference_kbranch(mults: Sequence[int]) -> ParamPoly:
    """Marked-branch type with tangent cone l1^p1 .. lk^pk, symmetry divided out."""
    k = len(mults)
    p = sum(mults)
    big_m = binomial(p + 2, 2)
    fact = [1, 1]
    for i in range(2, k + 2):
        fact.append(fact[-1] * i)
    sym = 1
    for v in set(mults):
        sym *= fact[list(mults).count(v)]
    prod_p = 1
    for m in mults:
        prod_p *= m
    pair_sum = sum(mults[i] * mults[j] for i in range(k) for j in range(i + 1, k))
    quad = Fraction(prod_p) * fact[k] * binomial(big_m - 1 - k, 2)
    lin = Fraction(prod_p) * fact[k - 1] * binomial(k + 1, 2) * binomial(big_m - 2 - k, 1) * p
    const = Fraction(0)
    if k >= 2:
        const = Fraction(prod_p) * fact[k - 2] * binomial(k, 2) * binomial(k + 2, 2) * pair_sum
    return _zpoly(p, (2, quad / sym), (1, lin / sym), (0, const / sym))


def reference_cusp_with_smooth_contact(p: int) -> ParamPoly:
    """Type (x1^(p-1)+x2^p)(x1+x2^2): one tangent line of full multiplicity."""
    if p < 3:
        raise ValueError("the type needs p >= 3")
    quad = Fraction(p * (p + 4) * (p - 1), 8) * (2 * p ** 3 + 7 * p ** 2 - 5 * p - 2)
    # literal transcription: the linear piece carries (d-p)(d-2(p+1))
    lin = (binomial(p + 2, 2) - 3) * p * p
    z = ParamPoly((-p, 1))
    return _zpoly(p, (2, quad)) + lin * z * ParamPoly((-2 * (p + 1), 1))


def reference_two_omp(p: int, q: int) -> ParamPoly:
    """Raw (symmetry-undivided) degree for ordinary points of multiplicities p+1 >= q+1.

    Only q <= 3 has a published closed form; for p = q the honest count is
    half of this value.
    """
    if not p >= q >= 1:
        raise ValueError(f"need p >= q >= 1, got ({p}, {q})")
    if q == 1:
        return 9 * binomial(p + 3, 4) * ParamPoly((-p, 1)) ** 3 * ParamPoly((p - 2, 1)) \
            + _zpoly(p,
                     (2, -Fraction(3, 4) * binomial(p + 2, 3) * (10 * p * p + 39 * p + 7)),
                     (1, 3 * binomial(p + 2, 3) * (6 + 5 * p)))
    if q == 2:
        return 45 * binomial(p + 3, 4) * ParamPoly((-p, 1)) ** 3 * ParamPoly((p - 4, 1)) \
            + _zpoly(p,
                     (2, -Fraction(5, 8) * (p + 1)
                      * (14 * p ** 4 + 105 * p ** 3 + 147 * p ** 2 + 114 * p - 80)),
                     (1, 2 * (8 + 3 * p + p * p) * (35 * p * p + 20 * p - 12)),
                     (0, -6 * (85 * p * p + 45 * p - 28)))
    if q == 3:
        return 135 * binomial(p + 3, 4) * ParamPoly((-p, 1)) ** 3 * ParamPoly((p - 6, 1)) \
            + _zpoly(p,
                     (2, -Fraction(5, 8)
                      * (54 * p ** 5 + 527 * p ** 4 + 948 * p ** 3
                         + 1853 * p ** 2 - 894 * p - 1152)),
                     (1, 2 * (16 + 3 * p + p * p) * (270 * p * p - 20 * p - 117)),
                     (0, -14 * (830 * p * p - 105 * p - 348)))
    raise ValueError(f"no published closed form for q = {q}")


def reference_pair_correction(key: str, p: int) -> ParamPoly:
    """Connected part S of deg = deg(x) deg(node) + S for the listed families."""
    z = ParamPoly((-p, 1))
    if key == "omp-node":
        return _zpoly(p,
                      (2, -Fraction(3, 4) * binomial(p + 2, 3) * (3 * p + 4)
                       * (p * p + 3 * p + 4)),
                      (1, 3 * binomial(p + 2, 3) * (5 * p + 6)))
    if key == "omp-triple":
        return _zpoly(p,
                      (2, -Fraction(5, 8) * (p + 1) * (3 * p - 1)
                       * (p * p + 3 * p + 8) * (p * p + 3 * p + 10)),
                      (1, 2 * (p * p + 3 * p + 8) * (35 * p * p + 20 * p - 12)),
                      (0, -6 * (85 * p * p + 45 * p - 28)))
    if key == "omp-quadruple":
        return _zpoly(p,
                      (2, -Fraction(5, 8) * (3 * p + 2) * (3 * p - 2)
                       * (p * p + 3 * p + 16) * (p * p + 3 * p + 18)),
                      (1, 2 * (p * p + 3 * p + 16) * (270 * p * p - 20 * p - 117)),
                      (0, -14 * (830 * p * p - 105 * p - 348)))
    if key == "cusp-node":
        return _zpoly(p,
                      (2, -Fraction(3, 8) * p ** 4 * (3 + p) * (p * p + 3 * p - 2)),
                      (1, -Fraction(3, 2) * (p - 1) * p ** 3 * (p * p + 3 * p - 2)),
                      (0, 3 * p ** 4))
    if key == "cusp-branch-node":
        return _zpoly(p,
                      (2, -Fraction(p * p * (5 + p), 8) * (2 + 5 * p + p * p)
                       * (2 + 11 * p + 6 * p * p)),
                      (1, Fraction((p + 1) * (p + 5) * p ** 3, 4)
                       * (2 * p + 3) * (3 * p + 4)),
                      (0, -Fraction(p * p * (p - 1), 8)
                       * (6 * p ** 4 + 41 * p ** 3 + 55 * p ** 2 + 64 * p + 92)))
    if key == "cusp-two-branch-node":
        return _zpoly(p,
                      (2, -Fraction(p * (1 + p) * (p + 6), 4) * (p * p + 7 * p + 4)
                       * (9 * p * p + 34 * p + 24)),
                      (1, p * (p * p + 7 * p + 4)
                       * (9 * p ** 4 + 79 * p ** 3 + 220 * p ** 2 + 216 * p + 63)),
                      (0, -p * (9 * p ** 6 + 124 * p ** 5 + 587 * p ** 4
                                + 1316 * p ** 3 + 1480 * p ** 2 + 654 * p + 60)))
    if key == "smooth-contact-node":
        return _zpoly(p,
                      (2, -9 * binomial(p + 3, 4) * p * (4 + p + 2 * p * p)),
                      (1, -Fraction(3, 2) * p * p * (3 + p) * (p ** 3 - 3 * p * p - p - 8)),
                      (0, 3 * p * (p ** 4 + 3 * p ** 3 + 3 * p ** 2 + 4 * p - 4)))
    if key == "tacnodal-pair-node":
        if p <= 2:
            raise ValueError("the type needs p > 2")
        return _zpoly(p,
                      (2, -Fraction(3, 8) * (p * p + 3 * p + 6) * (p * p + 3 * p + 8)
                       * (3 * p ** 3 + 6 * p * p + 12 * p + 5)),
                      (1, Fraction(3, 2) * (p * p + 3 * p + 6)
                       * (3 * p ** 4 + 23 * p ** 3 + 48 * p ** 2 + 81 * p + 29)),
                      (0, -3 * (57 + 182 * p + 118 * p * p + 51 * p ** 3 + 10 * p ** 4)))
    raise ValueError(f"unknown correction family {key!r}")


class ReferenceFormula(Value):
    """A literal transcription of a published degree, with its parameter domain.

    ``evaluate`` maps (p, q) to the polynomial in d, ``validity`` maps
    (p, q) to the least d the formula holds for.
    """

    __slots__ = _fields = ("key", "evaluate", "p_min", "uses_q", "validity")

    def __init__(self, key: str, evaluate: Callable[[int, int], ParamPoly], p_min: int,
                 uses_q: bool, validity: Callable[[int, int], int]):
        self._assign(key=key, evaluate=evaluate, p_min=p_min, uses_q=uses_q,
                     validity=validity)

    def domain(self, p_max: int, q_max: int):
        for p in range(self.p_min, p_max + 1):
            if self.uses_q:
                for q in range(1, min(p, q_max) + 1):
                    yield p, q
            else:
                yield p, 0


def _node_deg() -> ParamPoly:
    return reference_omp(1)


REFERENCE_FORMULAS: tuple[ReferenceFormula, ...] = (
    ReferenceFormula("omp", lambda p, q: reference_omp(p), 1, False,
                     lambda p, q: p + 1),
    ReferenceFormula("kbranch-pair", lambda p, q: reference_kbranch((p, q)), 1, True,
                     lambda p, q: SingularitySpec.kbranch(p, q).determinacy_order),
    ReferenceFormula("smooth-contact", lambda p, q: reference_cusp_with_smooth_contact(p),
                     3, False, lambda p, q: p + 2),
    ReferenceFormula("two-omp-q1", lambda p, q: reference_two_omp(p, 1), 1, False,
                     lambda p, q: p + 3),
    ReferenceFormula("two-omp-q2", lambda p, q: reference_two_omp(p, 2), 2, False,
                     lambda p, q: p + 4),
    ReferenceFormula("two-omp-q3", lambda p, q: reference_two_omp(p, 3), 3, False,
                     lambda p, q: p + 5),
    ReferenceFormula("omp-node",
                     lambda p, q: reference_omp(p) * _node_deg()
                     + reference_pair_correction("omp-node", p),
                     1, False, lambda p, q: p + 3),
    ReferenceFormula("omp-triple",
                     lambda p, q: reference_omp(p) * reference_omp(2)
                     + reference_pair_correction("omp-triple", p),
                     2, False, lambda p, q: p + 4),
    ReferenceFormula("omp-quadruple",
                     lambda p, q: reference_omp(p) * reference_omp(3)
                     + reference_pair_correction("omp-quadruple", p),
                     3, False, lambda p, q: p + 5),
    ReferenceFormula("cusp-node",
                     lambda p, q: reference_kbranch((p,)) * _node_deg()
                     + reference_pair_correction("cusp-node", p),
                     2, False, lambda p, q: p + 3),
    ReferenceFormula("cusp-branch-node",
                     lambda p, q: reference_kbranch((p, 1)) * _node_deg()
                     + reference_pair_correction("cusp-branch-node", p),
                     2, False, lambda p, q: p + 4),
    # this family's printed identity relates symmetry-undivided degrees on
    # both sides (the two smooth branches are interchangeable, order 2)
    ReferenceFormula("cusp-two-branch-node",
                     lambda p, q: 2 * reference_kbranch((p, 1, 1)) * _node_deg()
                     + reference_pair_correction("cusp-two-branch-node", p),
                     2, False, lambda p, q: p + 5),
    ReferenceFormula("smooth-contact-node",
                     lambda p, q: reference_cusp_with_smooth_contact(p) * _node_deg()
                     + reference_pair_correction("smooth-contact-node", p),
                     3, False, lambda p, q: p + 4),
    ReferenceFormula("tacnodal-pair-node",
                     lambda p, q: (reference_tacnodal_pair(p) * _node_deg()
                                   + reference_pair_correction("tacnodal-pair-node", p)),
                     3, False, lambda p, q: p + 4),
)


def reference_tacnodal_pair(p: int) -> ParamPoly:
    """Type (x1^(p-2)+x2^(p-2))(x1^2-x2^4): computed from its diagram product.

    No closed form for the single-point factor is printed beside the pair
    formula; the class route supplies it.
    """
    from .collide import NewtonDiagram
    if p <= 2:
        raise ValueError("the type needs p > 2")
    nd = NewtonDiagram.from_points([(p, 0), (2, p - 2), (0, p + 2)])
    return stratum_degree(SingularitySpec.from_diagram(nd)).degree
