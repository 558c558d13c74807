"""Gysin extraction, the degree of a stratum, closed-form recovery and the
reference-formula catalog.

The degree of a stratum is the coefficient of the top monomial in the
auxiliary generators (exponent truncation-1 on each), divided by the order
of the symmetry that permutes identical singularity data.  Every stratum
gives that coefficient from its recipe on packed factors
(``recipe_quotient_top``): a product stratum as the top term of its last
packed product, a cone-kill stratum by the kill divisor's finite series.
So a degree never multiplies out a dividend or divides a class.  The catalog
transcribes published closed forms in exact integer arithmetic, as
coefficients of powers of d - p, and expands each into a polynomial in d by
the binomial theorem on ints (``_zpoly``), with no polynomial product.
Several of them carry fractional prefactors that must clear on integer
inputs: each such coefficient is computed as one integer product and divided
by the prefactor's denominator once, under an exactness assertion.

``stratum_degree`` results are memoised for the life of the process in a
bounded LRU of 1024 entries, keyed on the canonical unordered type pair and
holding only the small ``DegreeResult``, never a class.  ``stratum_for``
keeps its own LRU of 32 whole strata on the same key, for the ``class``
verb and library callers; a degree miss builds through the unmemoised
dispatch and does not fill it.  A refused type or pair raises on every call
and is stored in neither.  The builders themselves are not memoised.  The
``verify`` identities that check a degree read it through
``stratum_degree``, as ``degree`` and ``table`` do; two of them compare a
memoised degree with a fresh build, and the class identities (the cusp's
diagram chain, the divided classes' top coefficients) call the builders
every time.
A one-shot CLI process sees no change.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import lru_cache

from ._value import Value
from .coeffring import InterpolationError, ParamPoly, _stripped, binomial
from .cohring import recipe_quotient_top
from .collide import NewtonDiagram, SingularitySpec
from .divisors import incidence_class
from .strata import StratumClass, _build_stratum, _dispatch_order


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
    """Top-monomial coefficient of a lifted stratum, with its symmetry divisor.

    Every stratum gives it from its recipe on packed factors
    (``recipe_quotient_top``): the top of the product, or by the kill
    divisor's finite series when there is one.  Neither its dividend nor
    its class is built here; a stratum built from a class gives that
    class's top coefficient, as the recipe of one factor.
    """
    raw = recipe_quotient_top(s.summands, s.kill)
    return DegreeResult(raw, s.aut_order, s.valid_from_d, s.route)


def stratum_degree(sx: SingularitySpec, sy: SingularitySpec | None = None) -> DegreeResult:
    """Enumerative degree of the stratum of one type, or of an unordered pair.

    The stratum is built by the dispatch of ``stratum_for``, with the same
    supported types and pairs, but not through its memo.  A single cusp or
    diagram stratum comes bare of the point-on-tangent incidence, which is
    added here to its recipe as one more factor, so no class product is
    taken.  Results are memoised per process (see the module docstring);
    errors are not.
    """
    return _memoised_degree(*_dispatch_order(sx, sy))


# A fixed bound: a warm process asks a few hundred distinct pairs, and an
# entry holds one small DegreeResult.
@lru_cache(maxsize=1024)
def _memoised_degree(sx: SingularitySpec, sy: SingularitySpec | None) -> DegreeResult:
    """``stratum_degree`` of types already in ``_dispatch_order``."""
    s = _build_stratum(sx, sy)
    if sy is None and sx.kind in ("cusp", "diagram"):
        incidence = (incidence_class(s.ambient, "X", "L"), 1)
        s = StratumClass.by_recipe([(weight, factors + [incidence])
                                    for weight, factors in s.summands],
                                   s.kill, s.aut_order, s.valid_from_d, s.route)
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


def _ratio(num: int, den: int) -> int:
    """The exact quotient num / den (den > 0); a remainder raises ArithmeticError.

    A transcribed coefficient with a fractional prefactor is one integer
    product divided here once, so only the finished value must be divisible.
    """
    quotient, remainder = divmod(num, den)
    if remainder:
        g = math.gcd(num, den)
        raise ArithmeticError(f"expected an integer, got {num // g}/{den // g}")
    return quotient


def _zpoly(p: int, *terms: tuple[int, int]) -> ParamPoly:
    """Polynomial sum(c_k * (d-p)^k) from (k, c_k) pairs.

    Expanded in integers by the binomial theorem, c (d-p)^k = sum over j of
    c binom(k, j) (-p)^(k-j) d^j, so no polynomial is multiplied.
    """
    out = [0] * (1 + max(terms)[0])  # the largest k
    for k, c in terms:
        power = 1  # (-p)^(k-j)
        for j in range(k, -1, -1):
            out[j] += c * math.comb(k, j) * power
            power *= -p
    return _stripped(out)


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
    quad = prod_p * fact[k] * binomial(big_m - 1 - k, 2)
    lin = prod_p * fact[k - 1] * binomial(k + 1, 2) * binomial(big_m - 2 - k, 1) * p
    const = 0
    if k >= 2:
        const = prod_p * fact[k - 2] * binomial(k, 2) * binomial(k + 2, 2) * pair_sum
    return _zpoly(p, (2, _ratio(quad, sym)), (1, _ratio(lin, sym)), (0, _ratio(const, sym)))


def reference_cusp_with_smooth_contact(p: int) -> ParamPoly:
    """Type (x1^(p-1)+x2^p)(x1+x2^2): one tangent line of full multiplicity."""
    if p < 3:
        raise ValueError("the type needs p >= 3")
    quad = _ratio(p * (p + 4) * (p - 1) * (2 * p ** 3 + 7 * p ** 2 - 5 * p - 2), 8)
    # the printed linear piece carries (d-p)(d-2(p+1)) = z^2 - (p+2) z in z = d-p
    lin = (binomial(p + 2, 2) - 3) * p * p
    return _zpoly(p, (2, quad + lin), (1, -(p + 2) * lin))


def reference_two_omp(p: int, q: int) -> ParamPoly:
    """Raw (symmetry-undivided) degree for ordinary points of multiplicities p+1 >= q+1.

    Only q <= 3 has a published closed form; for p = q the honest count is
    half of this value.
    """
    if not p >= q >= 1:
        raise ValueError(f"need p >= q >= 1, got ({p}, {q})")
    if q == 1:
        lead = 9
        rest = ((2, _ratio(-3 * binomial(p + 2, 3) * (10 * p * p + 39 * p + 7), 4)),
                (1, 3 * binomial(p + 2, 3) * (6 + 5 * p)))
    elif q == 2:
        lead = 45
        rest = ((2, _ratio(-5 * (p + 1)
                           * (14 * p ** 4 + 105 * p ** 3 + 147 * p ** 2 + 114 * p - 80), 8)),
                (1, 2 * (8 + 3 * p + p * p) * (35 * p * p + 20 * p - 12)),
                (0, -6 * (85 * p * p + 45 * p - 28)))
    elif q == 3:
        lead = 135
        rest = ((2, _ratio(-5 * (54 * p ** 5 + 527 * p ** 4 + 948 * p ** 3
                                 + 1853 * p ** 2 - 894 * p - 1152), 8)),
                (1, 2 * (16 + 3 * p + p * p) * (270 * p * p - 20 * p - 117)),
                (0, -14 * (830 * p * p - 105 * p - 348)))
    else:
        raise ValueError(f"no published closed form for q = {q}")
    # the printed leading term lead * binom(p+3, 4) * (d-p)^3 (d+p-2q), where
    # d+p-2q = z + 2(p-q) in z = d-p
    top = lead * binomial(p + 3, 4)
    return _zpoly(p, (4, top), (3, 2 * (p - q) * top), *rest)


def reference_pair_correction(key: str, p: int) -> ParamPoly:
    """Connected part S of deg = deg(x) deg(node) + S for the listed families."""
    if key == "omp-node":
        return _zpoly(p,
                      (2, _ratio(-3 * binomial(p + 2, 3) * (3 * p + 4)
                                 * (p * p + 3 * p + 4), 4)),
                      (1, 3 * binomial(p + 2, 3) * (5 * p + 6)))
    if key == "omp-triple":
        return _zpoly(p,
                      (2, _ratio(-5 * (p + 1) * (3 * p - 1)
                                 * (p * p + 3 * p + 8) * (p * p + 3 * p + 10), 8)),
                      (1, 2 * (p * p + 3 * p + 8) * (35 * p * p + 20 * p - 12)),
                      (0, -6 * (85 * p * p + 45 * p - 28)))
    if key == "omp-quadruple":
        return _zpoly(p,
                      (2, _ratio(-5 * (3 * p + 2) * (3 * p - 2)
                                 * (p * p + 3 * p + 16) * (p * p + 3 * p + 18), 8)),
                      (1, 2 * (p * p + 3 * p + 16) * (270 * p * p - 20 * p - 117)),
                      (0, -14 * (830 * p * p - 105 * p - 348)))
    if key == "cusp-node":
        return _zpoly(p,
                      (2, _ratio(-3 * p ** 4 * (3 + p) * (p * p + 3 * p - 2), 8)),
                      (1, _ratio(-3 * (p - 1) * p ** 3 * (p * p + 3 * p - 2), 2)),
                      (0, 3 * p ** 4))
    if key == "cusp-branch-node":
        return _zpoly(p,
                      (2, _ratio(-p * p * (5 + p) * (2 + 5 * p + p * p)
                                 * (2 + 11 * p + 6 * p * p), 8)),
                      (1, _ratio((p + 1) * (p + 5) * p ** 3
                                 * (2 * p + 3) * (3 * p + 4), 4)),
                      (0, _ratio(-p * p * (p - 1)
                                 * (6 * p ** 4 + 41 * p ** 3 + 55 * p ** 2 + 64 * p + 92), 8)))
    if key == "cusp-two-branch-node":
        return _zpoly(p,
                      (2, _ratio(-p * (1 + p) * (p + 6) * (p * p + 7 * p + 4)
                                 * (9 * p * p + 34 * p + 24), 4)),
                      (1, p * (p * p + 7 * p + 4)
                       * (9 * p ** 4 + 79 * p ** 3 + 220 * p ** 2 + 216 * p + 63)),
                      (0, -p * (9 * p ** 6 + 124 * p ** 5 + 587 * p ** 4
                                + 1316 * p ** 3 + 1480 * p ** 2 + 654 * p + 60)))
    if key == "smooth-contact-node":
        return _zpoly(p,
                      (2, -9 * binomial(p + 3, 4) * p * (4 + p + 2 * p * p)),
                      (1, _ratio(-3 * p * p * (3 + p) * (p ** 3 - 3 * p * p - p - 8), 2)),
                      (0, 3 * p * (p ** 4 + 3 * p ** 3 + 3 * p ** 2 + 4 * p - 4)))
    if key == "tacnodal-pair-node":
        if p <= 2:
            raise ValueError("the type needs p > 2")
        return _zpoly(p,
                      (2, _ratio(-3 * (p * p + 3 * p + 6) * (p * p + 3 * p + 8)
                                 * (3 * p ** 3 + 6 * p * p + 12 * p + 5), 8)),
                      (1, _ratio(3 * (p * p + 3 * p + 6)
                                 * (3 * p ** 4 + 23 * p ** 3 + 48 * p ** 2 + 81 * p + 29), 2)),
                      (0, -3 * (57 + 182 * p + 118 * p * p + 51 * p ** 3 + 10 * p ** 4)))
    raise ValueError(f"unknown correction family {key!r}")


class ReferenceFormula(Value):
    """A literal transcription of a published degree, with its parameter domain.

    ``evaluate`` maps (p, q) to the polynomial in d.
    """

    __slots__ = _fields = ("key", "evaluate", "p_min", "uses_q")

    def __init__(self, key: str, evaluate: Callable[[int, int], ParamPoly], p_min: int,
                 uses_q: bool):
        self._assign(key=key, evaluate=evaluate, p_min=p_min, uses_q=uses_q)

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
    ReferenceFormula("omp", lambda p, q: reference_omp(p), 1, False),
    ReferenceFormula("kbranch-pair", lambda p, q: reference_kbranch((p, q)), 1, True),
    ReferenceFormula("smooth-contact", lambda p, q: reference_cusp_with_smooth_contact(p),
                     3, False),
    ReferenceFormula("two-omp-q1", lambda p, q: reference_two_omp(p, 1), 1, False),
    ReferenceFormula("two-omp-q2", lambda p, q: reference_two_omp(p, 2), 2, False),
    ReferenceFormula("two-omp-q3", lambda p, q: reference_two_omp(p, 3), 3, False),
    ReferenceFormula("omp-node",
                     lambda p, q: reference_omp(p) * _node_deg()
                     + reference_pair_correction("omp-node", p),
                     1, False),
    ReferenceFormula("omp-triple",
                     lambda p, q: reference_omp(p) * reference_omp(2)
                     + reference_pair_correction("omp-triple", p),
                     2, False),
    ReferenceFormula("omp-quadruple",
                     lambda p, q: reference_omp(p) * reference_omp(3)
                     + reference_pair_correction("omp-quadruple", p),
                     3, False),
    ReferenceFormula("cusp-node",
                     lambda p, q: reference_kbranch((p,)) * _node_deg()
                     + reference_pair_correction("cusp-node", p),
                     2, False),
    ReferenceFormula("cusp-branch-node",
                     lambda p, q: reference_kbranch((p, 1)) * _node_deg()
                     + reference_pair_correction("cusp-branch-node", p),
                     2, False),
    # this family's printed identity relates symmetry-undivided degrees on
    # both sides (the two smooth branches are interchangeable, order 2)
    ReferenceFormula("cusp-two-branch-node",
                     lambda p, q: 2 * reference_kbranch((p, 1, 1)) * _node_deg()
                     + reference_pair_correction("cusp-two-branch-node", p),
                     2, False),
    ReferenceFormula("smooth-contact-node",
                     lambda p, q: reference_cusp_with_smooth_contact(p) * _node_deg()
                     + reference_pair_correction("smooth-contact-node", p),
                     3, False),
    ReferenceFormula("tacnodal-pair-node",
                     lambda p, q: (reference_tacnodal_pair(p) * _node_deg()
                                   + reference_pair_correction("tacnodal-pair-node", p)),
                     3, False),
)


def reference_tacnodal_pair(p: int) -> ParamPoly:
    """Type (x1^(p-2)+x2^(p-2))(x1^2-x2^4): computed from its diagram product.

    No closed form for the single-point factor is printed beside the pair
    formula; the class route supplies it.
    """
    if p <= 2:
        raise ValueError("the type needs p > 2")
    nd = NewtonDiagram.from_points([(p, 0), (2, p - 2), (0, p + 2)])
    return stratum_degree(SingularitySpec.from_diagram(nd)).degree
