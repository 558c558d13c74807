"""Identity suites: every closed form in the package checked against another route.

Each runner returns (name, passed, detail) triples so the command line can
print one line per identity and the test suite can assert on the same data.

An identity that checks the degree of a type or pair reads it through
``stratum_degree``, the entry point whose results ``degree`` and ``table``
print, so it covers the dispatch, the normal forms and the process-wide
memo as well as the builder.  Two identities compare a memoised degree
with a fresh build (``two_omp_stratum(6, 3)`` and ``node_pair_stratum``
of ``cusp:4``), so every call still runs the builders and the ring kernel,
and a bad memo entry cannot hide behind itself.

A cone-kill degree is read from the stratum's recipe by the kill divisor's
finite series, on packed factors and without any class (``gysin_degree``).
Three identities compare it with the top coefficient of the divided class,
on fresh builds of ``cusp:4`` beside a node, kbranch (2,1) and kbranch 1^3.
The two sides run different kernels: the degree comes from the packed
recipe executor, the class from the product kernel, which multiplies the
recipe out, and the division kernel, with its multiply-back check.  So
every call also runs ``divide_exact``.  A fourth fresh build, ``cusp:3``
beside a node, compares the top coefficient of its divided class (the
class ``class`` prints) with the printed cusp-node row.

Each call does only the work its identities compare.  The ring suite's
1000 random triples are drawn once per process and kept in a memo of one
entry (``_ring_triples``, 0.19 MB by tracemalloc); the memo holds inputs,
never results, so every call still multiplies, adds and compares every
triple.  The catalog's integrality identities evaluate each formula on its
parameter grid and do not evaluate the polynomials at d: a non-integral
coefficient raises inside ``evaluate``, and a polynomial with int
coefficients is an int at every int d.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from functools import lru_cache

from .coeffring import ParamPoly, _stripped
from .cohring import CohClass, VarSpec
from .collide import SingularitySpec, cusp_diagram
from .degrees import (
    closed_form_in_p,
    gysin_degree,
    reference_kbranch,
    reference_omp,
    reference_pair_correction,
    reference_two_omp,
    stratum_degree,
    REFERENCE_FORMULAS,
)
from .divisors import diagonal_class, exceptional_class, incidence_class
from .strata import (
    StratumClass,
    _diagram_factors,
    _multiplied_out,
    kbranch_stratum,
    node_pair_stratum,
    two_omp_stratum,
)

Check = tuple[str, bool, str]


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), detail)


def _random_poly(rng: random.Random) -> ParamPoly:
    """1 to 5 coefficients in -9..9, the stream that
    ``ParamPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])`` draws.

    ``randint(a, b)`` takes ``getrandbits(k)`` at k = the bit length of
    ``b - a + 1`` until a draw falls below that width; drawing the same way
    directly gives the same numbers without ``randint``'s argument handling.
    """
    bits = rng.getrandbits
    length = bits(3)
    while length >= 5:
        length = bits(3)
    coeffs = []
    for _ in range(length + 1):
        c = bits(5)
        while c >= 19:
            c = bits(5)
        coeffs.append(c - 9)
    return _stripped(coeffs)


# One entry: a process asks for the default (triples, seed) only, and an
# entry holds its 3 * triples small polynomials (0.19 MB by tracemalloc at 1000).
@lru_cache(maxsize=1)
def _ring_triples(triples: int, seed: int) -> tuple[tuple[ParamPoly, ParamPoly, ParamPoly], ...]:
    """The ring suite's random triples, drawn once per process.

    A memo of inputs only: every ``ring_checks`` call still multiplies, adds
    and compares every triple.
    """
    rng = random.Random(seed)
    return tuple((_random_poly(rng), _random_poly(rng), _random_poly(rng))
                 for _ in range(triples))


def ring_checks(triples: int = 1000, seed: int = 20260809) -> list[Check]:
    out = []
    ok_assoc = ok_comm = ok_dist = True
    for a, b, c in _ring_triples(triples, seed):
        ab = a * b
        ok_assoc = ok_assoc and ab * c == a * (b * c)
        ok_comm = ok_comm and ab == b * a
        ok_dist = ok_dist and a * (b + c) == ab + a * c
    out.append(_check(f"coefficient ring axioms on {triples} random triples",
                      ok_assoc and ok_comm and ok_dist))
    amb = VarSpec.projective(("X", "Y", "L"))
    ok_nil = all(CohClass.generator(amb, g) ** 3 == CohClass.zero(amb, 3)
                 for g in ("X", "Y", "L"))
    out.append(_check("nilpotency of the plane generators", ok_nil))
    blowup = incidence_class(amb, "X", "L") * incidence_class(amb, "Y", "L")
    lhs = exceptional_class(amb) * blowup
    rhs = incidence_class(amb, "X", "L") * diagonal_class(amb, "X", "Y", 2)
    out.append(_check("blowup pushforward identity (X+Y-L)(L+X)(L+Y) = (L+X)(X^2+XY+Y^2)",
                      lhs == rhs))
    return out


def _two_omp_degree(p: int, q: int) -> ParamPoly:
    """Raw degree of ordinary points of multiplicities p+1 and q+1, as ``degree`` prints it."""
    return stratum_degree(SingularitySpec.omp(p + 1), SingularitySpec.omp(q + 1)).degree


def _series_check(what: str, stratum: StratumClass) -> Check:
    # the degree by the kill series on the packed recipe, against the class
    # that the first read of ``cls`` multiplies out and divides, multiply-back
    # check included
    series = gysin_degree(stratum).degree
    divided = stratum.cls.coefficient(stratum.ambient.top_exponent())
    return _check(f"{what}: the kill divisor's series equals the division's top coefficient",
                  series == divided)


def _marked_branch_check(k: int, partner: SingularitySpec | None = None) -> Check:
    # k marked tangents, permuted by k!; both degrees are read from the memo
    marked = stratum_degree(SingularitySpec.kbranch(*[1] * k), partner).degree
    plain = stratum_degree(SingularitySpec.omp(k), partner).degree
    where = f" beside {partner.describe()}" if partner else ""
    return _check(f"kbranch 1^{k}{where} equals {k}! times omp:{k}",
                  marked == math.factorial(k) * plain)


def one_point_checks() -> list[Check]:
    out = []
    for p in range(1, 11):
        got = stratum_degree(SingularitySpec.omp(p + 1)).degree
        out.append(_check(f"ordinary point p={p}: class route equals printed formula",
                          got == reference_omp(p)))
    for p in range(2, 7):
        ambient = VarSpec.projective(("X", "L1"))
        chain = _multiplied_out([(1, _diagram_factors(cusp_diagram(p), ambient, line="L1"))])
        out.append(_check(
            f"cusp p={p}: diagram chain times (X+L1) equals the cone-kill division",
            chain * incidence_class(ambient, "X", "L1") == kbranch_stratum(p).cls))
    for k in range(2, 6):
        out.append(_marked_branch_check(k))
    for mults in ((2, 1), (1, 1, 1)):
        out.append(_series_check(SingularitySpec.kbranch(*mults).describe(),
                                 kbranch_stratum(*mults)))
    deg = stratum_degree(SingularitySpec.cusp(2)).degree
    hand = 12 * ParamPoly((-1, 1)) * ParamPoly((-2, 1))
    out.append(_check("cusp p=2 degree equals the hand expansion 12(d-1)(d-2)",
                      deg == hand))
    return out


def corollary_checks(p_max: int = 6) -> list[Check]:
    out = []
    for q in (1, 2, 3):
        for p in range(q, p_max + 1):
            out.append(_check(
                f"two ordinary points (p={p}, q={q}): product equals the closed form",
                _two_omp_degree(p, q) == reference_two_omp(p, q)))
    fresh = gysin_degree(two_omp_stratum(6, 3))
    out.append(_check("two ordinary points (p=6, q=3): memoised degree equals a fresh build",
                      stratum_degree(SingularitySpec.omp(7), SingularitySpec.omp(4)) == fresh))
    pair = stratum_degree(SingularitySpec.omp(2), SingularitySpec.omp(2))
    out.append(_check("two nodes: 21 cubics through 7 points",
                      pair.value_at(3) == 21, f"got {pair.value_at(3)}"))
    out.append(_check("two nodes: 225 quartics through 12 points",
                      pair.value_at(4) == 225, f"got {pair.value_at(4)}"))
    return out


def interpolation_checks() -> list[Check]:
    out = []
    fam: Callable[[int], ParamPoly] = lambda p: _two_omp_degree(p, 1)
    form = closed_form_in_p(fam, 1, 8)
    ref = closed_form_in_p(lambda p: reference_two_omp(p, 1), 1, 8)
    out.append(_check("q=1 family p=1..8: recovered grid matches the printed form",
                      form.grid == ref.grid and form.p_base == ref.p_base))
    out.append(_check("q=1 family: held-out sample at p=9 matches",
                      form.at_p(9) == fam(9)))
    fam2 = lambda p: _two_omp_degree(p, 2)
    form2 = closed_form_in_p(fam2, 2, 9)
    ref2 = closed_form_in_p(lambda p: reference_two_omp(p, 2), 2, 9)
    out.append(_check("q=2 family p=2..9: recovered grid matches the printed form",
                      form2.grid == ref2.grid))
    return out


def _cusp_node_row(p: int) -> ParamPoly:
    """The catalog's cusp-node row: cusp:p beside a node (aut 1)."""
    return (reference_kbranch((p,)) * reference_omp(1)
            + reference_pair_correction("cusp-node", p))


def recursion_checks() -> list[Check]:
    out = []
    node = SingularitySpec.omp(2)
    for p in (3, 4):
        got = stratum_degree(SingularitySpec.cusp(p), node)
        out.append(_check(
            f"cusp p={p} beside a node: recursion equals the printed closed form",
            got.degree == _cusp_node_row(p)))
    stratum = node_pair_stratum(SingularitySpec.cusp(4))
    out.append(_check("cusp p=4 beside a node: memoised degree equals a fresh build",
                      stratum_degree(SingularitySpec.cusp(4), node) == gysin_degree(stratum)))
    out.append(_series_check("cusp p=4 beside a node", stratum))
    # the division route, whose class ``class`` prints, against the printed
    # row: the degree identities above read the kill series instead
    stratum = node_pair_stratum(SingularitySpec.cusp(3))
    divided = stratum.cls.coefficient(stratum.ambient.top_exponent())
    out.append(_check("cusp p=3 beside a node: the divided class's top coefficient "
                      "equals the printed closed form", divided == _cusp_node_row(3)))
    # ordinary point with marked tangents: recursion against the direct product route
    got = stratum_degree(SingularitySpec.kbranch(1, 1, 1), node)
    out.append(_check(
        "ordinary triple point beside a node: recursion equals the direct route",
        got.degree == 6 * reference_two_omp(2, 1)))
    for k in (2, 4):
        out.append(_marked_branch_check(k, node))
    for p in (2, 3):
        got = stratum_degree(SingularitySpec.kbranch(p, 1), node)
        want = (reference_kbranch((p, 1)) * reference_omp(1)
                + reference_pair_correction("cusp-branch-node", p))
        out.append(_check(
            f"branch pair ({p},1) beside a node: recursion equals the printed form",
            got.degree == want))
    return out


def integrality_checks(p_max: int = 8, q_max: int = 8) -> list[Check]:
    out = []
    for formula in REFERENCE_FORMULAS:
        worst = None
        total = 0
        try:
            # a non-integral coefficient raises inside ``evaluate`` (``_ratio``),
            # and a polynomial with int coefficients is an int at every int d:
            # each (p, q) counts six values of d, unevaluated
            for p, q in formula.domain(p_max, q_max):
                formula.evaluate(p, q)
                total += 6
        except ArithmeticError as exc:  # non-integral transcription value
            worst = str(exc)
        out.append(_check(
            f"catalog formula {formula.key}: integral on {total} grid points",
            worst is None, worst or ""))
    ok = True
    for p in (1, 2, 3):
        raw = _two_omp_degree(p, p)
        ok = ok and all(raw(d) % 2 == 0 for d in range(2 * p + 2, 2 * p + 8))
    out.append(_check("equal multiplicities: raw two-point degree is even", ok))
    return out


def catalog_checks(p_max: int = 8) -> list[Check]:
    # the rows of an ordinary point beside one of multiplicity q+1 = 2, 3, 4,
    # against the two-ordinary-point forms the catalog prints on their own
    out = []
    rows = {formula.key: formula for formula in REFERENCE_FORMULAS}
    for key, q in (("omp-node", 1), ("omp-triple", 2), ("omp-quadruple", 3)):
        formula = rows[key]
        ok = all(formula.evaluate(p, 0) == reference_two_omp(p, q)
                 for p, _ in formula.domain(p_max, 0))
        out.append(_check(f"catalog row {key} equals two ordinary points (q={q}) "
                          f"for p={formula.p_min}..{p_max}", ok))
    return out


SUITES: dict[str, Callable[[], list[Check]]] = {
    "ring": ring_checks,
    "corollary": corollary_checks,
    "appendix": lambda: one_point_checks() + integrality_checks() + catalog_checks(),
    "recursion": recursion_checks,
    "interpolation": interpolation_checks,
}


def run_suite(name: str) -> list[Check]:
    if name == "all":
        checks = []
        for suite in SUITES.values():
            checks.extend(suite())
        return checks
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)} and 'all'")
    return SUITES[name]()
