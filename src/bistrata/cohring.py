"""Truncated multigraded cohomology ring with an implicit free generator.

Classes live in Z[g1, .., gn]/(g1^t1, .., gn^tn) [F] with polynomial
coefficients in the curve degree d.  The hyperplane class F of the curve
system is never truncated at the degrees that occur here, so it is not
stored: a class keeps its ``total_degree`` (the number of degree-1 factors
accumulated) and only the exponents of the nilpotent generators.  The F
exponent of a stored monomial is total_degree minus the sum of its visible
exponents, which is kept non-negative.

Every divisor class multiplied in this package is homogeneous of
cohomological degree 2 with F coefficient 0 or 1, so this encoding is exact
and keeps multiplication by F invertible on bounded classes.  That
invertibility is what ``divide_exact`` uses to undo a degeneration.

Public construction validates every term.  The ring operations build their
results from terms that are already valid, so they skip that check: a sum,
negation or scaling keeps each exponent, and a product adds exponents, drops
every monomial that reaches a truncation, and adds the total degrees, so
sum(exp) <= total_degree holds again.  They only drop zero coefficients.

Products run on one kernel (``CohClass.__mul__``) that uses Kronecker
substitution in d: each coefficient polynomial is packed once per product
into a single integer, its value at d = 2^w, with a field width w chosen
from the operands so that no output coefficient can overflow its field.  A
surviving pair of input terms then costs one big-integer multiply and one
addition into the packed row of its product monomial, and each finished
row is read back into signed w-bit digits and becomes one ParamPoly through
the public constructor.  Exponents are packed into integers inside the
product only, with one field per generator and a guard bit on top of each
field (see ``VarSpec._layout``), so the truncation test of a term pair is
one addition and one mask.  The public key of ``terms`` stays the exponent
tuple: JSON, coefficient lookup and grading read tuples, and a product
decodes each output tuple once from its packed key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import lshift
from typing import Iterable, Mapping, Sequence

from .coeffring import ParamPoly


class ExactDivisionError(ArithmeticError):
    """A class division that should be exact left a remainder."""


@dataclass(frozen=True)
class VarSpec:
    """Ordered nilpotent generators (name, truncation)."""

    generators: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.generators]
        if len(set(names)) != len(names):
            raise ValueError(f"generator names must be unique: {names}")
        for name, trunc in self.generators:
            if trunc < 1:
                raise ValueError(f"truncation of {name} must be >= 1, got {trunc}")

    @classmethod
    def projective(cls, names: Iterable[str]) -> "VarSpec":
        """Generators of projective-plane factors: every truncation is 3."""
        return cls(tuple((n, 3) for n in names))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.generators)

    @property
    def truncations(self) -> tuple[int, ...]:
        return tuple(t for _, t in self.generators)

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.generators):
            if n == name:
                return i
        raise KeyError(f"unknown generator {name!r}; have {self.names}")

    def exponent(self, parts: Mapping[str, int]) -> tuple[int, ...]:
        """Exponent vector with the named entries set, zero elsewhere."""
        exp = [0] * len(self.generators)
        for name, e in parts.items():
            exp[self.index(name)] = e
        return tuple(exp)

    def top_exponent(self) -> tuple[int, ...]:
        """Exponent truncation-1 on every generator: the Gysin monomial."""
        return tuple(t - 1 for t in self.truncations)

    @cached_property
    def _layout(self) -> tuple[tuple[int, ...], int, int]:
        """Packed-exponent layout of a product: (shifts, bias, guard).

        Generator i owns the bits [w*i, w*i + w) of a packed exponent, with
        w = max(truncation).bit_length() + 1, so 2^(w-1) > t_i for every
        truncation t_i.  The left factor of a product adds the bias
        2^(w-1) - t_i to each of its fields; the field of a packed sum then
        holds e1 + e2 + 2^(w-1) - t_i, which lies in [0, 2^w) because
        e1, e2 < t_i, so no field carries into the next.  Its top bit (the
        guard) is set iff e1 + e2 >= t_i, so a term pair survives the
        truncations iff (p1 + p2) & guard == 0.  Computed once per VarSpec;
        equality and hashing still see the generators only.
        """
        width = max(self.truncations, default=1).bit_length() + 1
        half = 1 << (width - 1)
        shifts = tuple(width * i for i in range(len(self.generators)))
        bias = sum((half - t) << s for t, s in zip(self.truncations, shifts))
        guard = sum(half << s for s in shifts)
        return shifts, bias, guard


def _coerce_poly(value) -> ParamPoly:
    if isinstance(value, ParamPoly):
        return value
    if isinstance(value, int):
        return ParamPoly.const(value)
    raise TypeError(f"coefficient must be ParamPoly or int, not {value!r}")


def _packed(exps: Iterable[tuple[int, ...]], coeffs: Iterable[tuple[int, ...]],
            shifts: tuple[int, ...], offset: int, w: int) -> list[tuple[int, int]]:
    """(packed exponent + offset, coefficient value at d = 2^w) per term."""
    out = []
    for e, cs in zip(exps, coeffs):
        v = 0
        for c in reversed(cs):  # Horner from the top coefficient down
            v = (v << w) + c
        out.append((sum(map(lshift, e, shifts)) + offset, v))
    return out


class CohClass:
    """An element of the truncated ring, graded by total_degree."""

    __slots__ = ("ambient", "total_degree", "terms")

    def __init__(self, ambient: VarSpec, total_degree: int,
                 terms: Mapping[tuple[int, ...], ParamPoly], *, _checked: bool = True):
        """Class with the given terms; zero coefficients are dropped.

        Every exponent must have one entry per generator, each in
        [0, truncation), and sum to at most total_degree (the implicit F
        exponent is non-negative).  ``_checked=False`` is for the ring
        operations only: their terms are ParamPoly coefficients on exponents
        that already satisfy these invariants, so only zeros are removed.
        """
        self.ambient = ambient
        self.total_degree = total_degree
        if not _checked:
            self.terms = {e: c for e, c in terms.items() if c.coeffs}
            return
        if total_degree < 0:
            raise ValueError("total_degree must be non-negative")
        cleaned: dict[tuple[int, ...], ParamPoly] = {}
        truncs = ambient.truncations
        for exp, coeff in terms.items():
            coeff = _coerce_poly(coeff)
            if coeff.is_zero():
                continue
            if len(exp) != len(truncs):
                raise ValueError(f"exponent {exp} has wrong arity for {ambient.names}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            if any(e >= t for e, t in zip(exp, truncs)):
                raise ValueError(f"exponent {exp} not reduced modulo truncations {truncs}")
            if sum(exp) > total_degree:
                raise ValueError(
                    f"monomial {exp} exceeds total_degree {total_degree}; "
                    "the implicit F exponent would be negative")
            cleaned[tuple(exp)] = coeff
        self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ambient: VarSpec, total_degree: int = 0) -> "CohClass":
        return cls(ambient, total_degree, {})

    @classmethod
    def one(cls, ambient: VarSpec) -> "CohClass":
        return cls(ambient, 0, {tuple([0] * len(ambient.generators)): ParamPoly.const(1)})

    @classmethod
    def divisor(cls, ambient: VarSpec, f_part, parts: Mapping[str, object] = ()) -> "CohClass":
        """Degree-1 class f_part * F + sum(parts[g] * g)."""
        terms: dict[tuple[int, ...], ParamPoly] = {}
        f_poly = _coerce_poly(f_part)
        if not f_poly.is_zero():
            terms[tuple([0] * len(ambient.generators))] = f_poly
        for name, coeff in dict(parts).items():
            poly = _coerce_poly(coeff)
            if poly.is_zero():
                continue
            terms[ambient.exponent({name: 1})] = poly
        return cls(ambient, 1, terms)

    @classmethod
    def generator(cls, ambient: VarSpec, name: str) -> "CohClass":
        return cls.divisor(ambient, 0, {name: 1})

    # -- ring structure ------------------------------------------------------

    def _require_same_ambient(self, other: "CohClass"):
        if self.ambient != other.ambient:
            raise ValueError(
                f"ambient mismatch: {self.ambient.names} vs {other.ambient.names}")

    def __add__(self, other: "CohClass") -> "CohClass":
        self._require_same_ambient(other)
        if self.total_degree != other.total_degree:
            raise ValueError(
                "cannot add classes of total degree "
                f"{self.total_degree} and {other.total_degree}")
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            terms[exp] = terms[exp] + coeff if exp in terms else coeff
        return CohClass(self.ambient, self.total_degree, terms, _checked=False)

    def __neg__(self) -> "CohClass":
        return CohClass(self.ambient, self.total_degree,
                        {e: -c for e, c in self.terms.items()}, _checked=False)

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (-other)

    def scaled(self, factor) -> "CohClass":
        """Multiply every coefficient by an integer or ParamPoly (degree 0 in F)."""
        poly = _coerce_poly(factor)
        return CohClass(self.ambient, self.total_degree,
                        {e: c * poly for e, c in self.terms.items()}, _checked=False)

    def __mul__(self, other: "CohClass") -> "CohClass":
        """Product by Kronecker substitution: one integer multiply per term pair.

        Exponents are packed by ``VarSpec._layout``: a pair dies to the
        truncations iff its biased packed sum hits a guard bit.  The packed
        sum of a surviving pair keys the row of its output monomial; the
        monomial's exponent tuple is decoded from that key once, less the
        bias, when the finished row is stored.

        Each coefficient polynomial c_0 + c_1 d + ... is packed as its value
        at d = 2^w, so the product of two packed coefficients is the packed
        product polynomial and a row is the packed sum of its pairs' products.
        With b1 and b2 the largest coefficient bit lengths of the two
        operands, n the shorter of their longest coefficient tuples and P the
        smaller of their term counts (a bound on the pairs that reach one
        output monomial, since a left exponent and the output exponent fix
        the right one), every output coefficient r is a sum of at most n*P
        products of absolute value below 2^(b1+b2), so

            |r| < n*P * 2^(b1+b2) <= 2^(w-1)  for  w = b1 + b2 + bitlen(n*P) + 1.

        Each row is therefore read back exactly as balanced base-2^w digits
        in [-2^(w-1), 2^(w-1)), lowest first; a row whose packed sum is 0 is
        a cancelled monomial and is dropped.  No ParamPoly exists until each
        finished row becomes one through the public constructor.
        """
        self._require_same_ambient(other)
        total_degree = self.total_degree + other.total_degree
        if not self.terms or not other.terms:
            return CohClass(self.ambient, total_degree, {}, _checked=False)
        shifts, bias, guard = self.ambient._layout
        lcoeffs = [c.coeffs for c in self.terms.values()]
        rcoeffs = [c.coeffs for c in other.terms.values()]
        n = min(max(map(len, lcoeffs)), max(map(len, rcoeffs)))
        w = (max(map(abs, chain.from_iterable(lcoeffs))).bit_length()
             + max(map(abs, chain.from_iterable(rcoeffs))).bit_length()
             + (n * min(len(lcoeffs), len(rcoeffs))).bit_length() + 1)
        left = _packed(self.terms, lcoeffs, shifts, bias, w)
        right = _packed(other.terms, rcoeffs, shifts, 0, w)
        rows: dict[int, int] = {}
        get = rows.get
        for p1, a in left:
            for p2, b in right:
                key = p1 + p2
                if key & guard:
                    continue  # nilpotent: the monomial dies
                rows[key] = get(key, 0) + a * b
        mask = (1 << w) - 1
        half = 1 << (w - 1)
        full = 1 << w
        field = ((guard & -guard) << 1) - 1  # one exponent field: its guard bit and below
        out = {}
        for key, v in rows.items():
            if not v:
                continue  # every coefficient cancelled
            row = []
            while v:
                c = v & mask
                if c >= half:
                    c -= full
                row.append(c)
                v = (v - c) >> w
            key -= bias
            out[tuple([(key >> s) & field for s in shifts])] = ParamPoly(row)
        return CohClass(self.ambient, total_degree, out, _checked=False)

    def __pow__(self, n: int) -> "CohClass":
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = CohClass.one(self.ambient)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohClass):
            return NotImplemented
        return (self.ambient == other.ambient
                and self.total_degree == other.total_degree
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.ambient, self.total_degree, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    # -- extraction and division ---------------------------------------------

    def coefficient(self, monomial) -> ParamPoly:
        """ParamPoly coefficient of a monomial; zero if absent.

        ``monomial`` is an exponent tuple or a {name: exponent} mapping.  An
        exponent that no class can hold (wrong arity, negative, or at a
        truncation) raises ValueError instead of reading as zero.
        """
        if isinstance(monomial, Mapping):
            exp = self.ambient.exponent(monomial)
        else:
            exp = tuple(monomial)
        truncs = self.ambient.truncations
        if len(exp) != len(truncs):
            raise ValueError(f"exponent {exp} has wrong arity")
        if any(e < 0 for e in exp):
            raise ValueError(f"negative exponent in {exp}")
        if any(e >= t for e, t in zip(exp, truncs)):
            raise ValueError(f"monomial {exp} exceeds truncations {truncs}")
        return self.terms.get(exp, ParamPoly())

    def graded_parts(self) -> dict[int, dict[tuple[int, ...], ParamPoly]]:
        """Terms grouped by visible degree (sum of nilpotent exponents)."""
        parts: dict[int, dict[tuple[int, ...], ParamPoly]] = {}
        for exp, coeff in self.terms.items():
            parts.setdefault(sum(exp), {})[exp] = coeff
        return parts

    def divide_exact(self, b: "CohClass") -> "CohClass":
        """Solve a * b == self for a, where b = F + N with N nilpotent.

        b must have total_degree 1 and F coefficient exactly 1.  Multiplying
        by b is injective on bounded classes because F is invertible there,
        so the quotient is found by matching implicit F degrees from the top
        down.  N is homogeneous of visible degree 1, so the part a_L of the
        quotient at visible degree L satisfies

            a_L = self_L - a_(L-1) * N,    a_(-1) = 0,

        one product with N per level, accumulated into a single dict.  The
        product a * b is then compared with self: a nonzero remainder means
        the defining equation was inconsistent and raises
        ExactDivisionError.
        """
        self._require_same_ambient(b)
        if b.total_degree != 1:
            raise ValueError("divisor must have total_degree 1")
        zero_exp = tuple([0] * len(self.ambient.generators))
        if b.terms.get(zero_exp, ParamPoly()) != ParamPoly.const(1):
            raise ValueError("divisor must have F coefficient 1")
        if self.is_zero():
            raise ValueError("cannot divide the zero class")
        if self.total_degree < 1:
            raise ExactDivisionError("dividend has total_degree 0")
        ambient = self.ambient
        nilpotent = CohClass(ambient, 1,
                             {e: c for e, c in b.terms.items() if e != zero_exp},
                             _checked=False)
        target = self.graded_parts()
        t_quot = self.total_degree - 1
        quotient_terms: dict[tuple[int, ...], ParamPoly] = {}
        level_cls = CohClass.zero(ambient, t_quot)
        for level in range(0, t_quot + 1):
            terms = target.get(level, {})
            if level_cls.terms:
                for exp, coeff in (level_cls * nilpotent).terms.items():
                    terms[exp] = terms[exp] - coeff if exp in terms else -coeff
            level_cls = CohClass(ambient, t_quot, terms, _checked=False)
            quotient_terms.update(level_cls.terms)
        quotient = CohClass(ambient, t_quot, quotient_terms, _checked=False)
        if quotient * b != self:
            raise ExactDivisionError("division left a nonzero remainder")
        return quotient

    # -- serialization and display ---------------------------------------------

    def to_json(self) -> dict:
        variables = [{"name": n, "trunc": t} for n, t in self.ambient.generators]
        names = self.ambient.names
        terms = []
        for exp in sorted(self.terms):
            exps = {names[i]: e for i, e in enumerate(exp) if e != 0}
            terms.append({"exps": exps, "coeff": self.terms[exp].to_json()})
        return {"variables": variables, "total_degree": self.total_degree, "terms": terms}

    @classmethod
    def from_json(cls, data: Mapping) -> "CohClass":
        ambient = VarSpec(tuple((v["name"], v["trunc"]) for v in data["variables"]))
        terms = {}
        for item in data["terms"]:
            exp = ambient.exponent(dict(item["exps"]))
            terms[exp] = ParamPoly.from_json(item["coeff"])
        return cls(ambient, data["total_degree"], terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.ambient.names
        pieces = []
        for exp in sorted(self.terms):
            factors = []
            f_exp = self.total_degree - sum(exp)
            if f_exp == 1:
                factors.append("F")
            elif f_exp > 1:
                factors.append(f"F^{f_exp}")
            for name, e in zip(names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors) if factors else "1"
            coeff = self.terms[exp]
            if coeff == ParamPoly.const(1) and factors:
                pieces.append(mono)
            else:
                pieces.append(f"({coeff})*{mono}" if factors else f"({coeff})")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"<CohClass deg={self.total_degree} over {self.ambient.names}: {self}>"


def product_of(factors: Sequence[CohClass]) -> CohClass:
    """Deterministic balanced product of many classes.

    Balancing keeps intermediate coefficient degrees small on long
    products; the association order never changes the result.
    """
    items = list(factors)
    if not items:
        raise ValueError("empty product has no ambient to live in")
    while len(items) > 1:
        nxt = [items[i] * items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]
