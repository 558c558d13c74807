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

Terms are stored keyed by the packed exponent: generator i owns one
bit field of an integer key, at the shift ``VarSpec._layout`` gives it, and
an exponent tuple e is stored as sum(e_i << shift_i).  Tuples exist only at
the edges of the class: the public constructor validates tuples and encodes
each once, ``terms`` decodes every key on each read, ``coefficient``
encodes the one monomial it is asked for, and JSON and display decode
once per call.  Inside the ring nothing is encoded or decoded: sums,
negation, scaling, equality and hashing work on the packed dict, and a
product adds packed keys.

Products run on one kernel (``CohClass.__mul__``) that uses Kronecker
substitution in d: each coefficient polynomial is packed once per product
into a single integer, its value at d = 2^w, with a field width w chosen
from the operands so that no output coefficient can overflow its field.  A
surviving pair of input terms then costs one big-integer multiply and one
addition into the packed row of its product monomial, and each finished
row is read back into signed w-bit digits and becomes one ParamPoly through
its trusted constructor.  Each exponent field has a guard bit on top (see
``VarSpec._layout``), so once the left factor's keys carry a bias, the
truncation test of a term pair is one addition and one mask.

Division by a divisor F + N (``CohClass.divide_exact``) runs on the same
packed integers.  The dividend and N are packed once, at one field width
taken from a bound on the quotient's coefficients that its docstring
proves; each visible level of the quotient is then solved with integer
multiplies and subtractions only, and the quotient is read back once at
the end.  Packing (``_packed``) and reading back (``_unpacked``) have one
implementation each, shared by the product and the division.  The quotient
is checked by multiplying it back through the product kernel.
"""

from __future__ import annotations

from itertools import chain
from operator import lshift
from typing import Collection, Iterable, Mapping, Sequence

from ._value import Value
from .coeffring import ParamPoly


class ExactDivisionError(ArithmeticError):
    """A class division that should be exact left a remainder."""


def _is_int(value) -> bool:
    """An int that is not a bool: the only exponent, degree or truncation."""
    return isinstance(value, int) and not isinstance(value, bool)


def _packed_layout(truncations: tuple[int, ...]) -> tuple[tuple[int, ...], int, int, int]:
    """Packed-exponent layout: (shifts, field, bias, guard).

    Generator i owns the bits [w*j, w*j + w) of a packed exponent, with
    j = n - 1 - i for n generators (generator 0 in the top field) and
    w = max(truncation).bit_length() + 1, so 2^(w-1) > t_i for every
    truncation t_i; field = 2^w - 1 masks one field.  A class stores each
    exponent unbiased, as sum(e_i << w*j), so unbiased keys sort as their
    exponent tuples do.  The left factor of a product adds the bias
    2^(w-1) - t_i to each of its fields; the field of a packed sum then
    holds e1 + e2 + 2^(w-1) - t_i, which lies in [0, 2^w) because
    e1, e2 < t_i, so no field carries into the next.  Its top bit (the
    guard) is set iff e1 + e2 >= t_i, so a term pair survives the
    truncations iff (p1 + p2) & guard == 0, and the packed sum less the
    bias is the unbiased key of the product monomial.  ``VarSpec`` keeps it
    as ``_layout``; equality and hashing still see the generators only.
    """
    width = max(truncations, default=1).bit_length() + 1
    half = 1 << (width - 1)
    shifts = tuple(width * j for j in reversed(range(len(truncations))))
    bias = sum((half - t) << s for t, s in zip(truncations, shifts))
    guard = sum(half << s for s in shifts)
    return shifts, (1 << width) - 1, bias, guard


class VarSpec(Value):
    """Ordered nilpotent generators (name, truncation)."""

    _fields = ("generators",)
    __slots__ = ("generators", "truncations", "_indices", "_layout")

    def __init__(self, generators: tuple[tuple[str, int], ...]):
        for name, trunc in generators:
            if not isinstance(name, str):
                raise ValueError(f"generator name must be a string, got {name!r}")
            if not _is_int(trunc):
                raise ValueError(f"truncation of {name} must be an integer, got {trunc!r}")
            if trunc < 1:
                raise ValueError(f"truncation of {name} must be >= 1, got {trunc}")
        names = [n for n, _ in generators]
        if len(set(names)) != len(names):
            raise ValueError(f"generator names must be unique: {names}")
        truncations = tuple(t for _, t in generators)
        # generator name -> position
        indices = {n: i for i, n in enumerate(names)}
        self._assign(generators=generators, truncations=truncations, _indices=indices,
                     _layout=_packed_layout(truncations))

    # every sum and product compares ambients: read the field directly,
    # not through the generic _values()
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self) -> int:
        return hash((self.generators,))

    @classmethod
    def projective(cls, names: Iterable[str]) -> "VarSpec":
        """Generators of projective-plane factors: every truncation is 3."""
        return cls(tuple((n, 3) for n in names))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.generators)

    def index(self, name: str) -> int:
        try:
            return self._indices[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}; have {self.names}") from None

    def exponent(self, parts: Mapping[str, int]) -> tuple[int, ...]:
        """Exponent vector with the named entries set, zero elsewhere.

        A name that is not a generator raises ValueError: the mapping comes
        from outside the ring (``coefficient``, ``from_json``).
        """
        indices = self._indices
        exp = [0] * len(indices)
        for name, e in parts.items():
            i = indices.get(name)
            if i is None:
                raise ValueError(f"unknown generator {name!r}; have {self.names}")
            exp[i] = e
        return tuple(exp)

    def top_exponent(self) -> tuple[int, ...]:
        """Exponent truncation-1 on every generator: the Gysin monomial."""
        return tuple(t - 1 for t in self.truncations)

    def _checked_key(self, exp: Sequence[int]) -> int:
        """Packed key of an exponent tuple that a class can hold.

        The tuple needs one int (not a bool) per generator, each in
        [0, truncation); anything else raises ValueError.
        """
        truncs = self.truncations
        if len(exp) != len(truncs):
            raise ValueError(f"exponent {exp} has wrong arity for {self.names}")
        if not all(map(_is_int, exp)):
            raise ValueError(f"exponent {exp} must hold integers")
        if any(e < 0 for e in exp):
            raise ValueError(f"negative exponent in {exp}")
        if any(e >= t for e, t in zip(exp, truncs)):
            raise ValueError(f"exponent {exp} not reduced modulo truncations {truncs}")
        return sum(map(lshift, exp, self._layout[0]))

    def _exponents(self, keys: Collection[int]) -> Iterable[tuple[int, ...]]:
        """Exponent tuples of unbiased packed keys, in the order given."""
        shifts, field, _, _ = self._layout
        if not shifts:
            return [()] * len(keys)
        # one pass per field over every key is about twice as fast as one
        # tuple per key
        return zip(*[[(key >> s) & field for key in keys] for s in shifts])


def _coerce_poly(value) -> ParamPoly:
    if isinstance(value, ParamPoly):
        return value
    if isinstance(value, int):
        return ParamPoly.const(value)
    raise TypeError(f"coefficient must be ParamPoly or int, not {value!r}")


def _packed(terms: Iterable[tuple[int, tuple[int, ...]]], offset: int,
            w: int) -> list[tuple[int, int]]:
    """(packed key + offset, coefficient value at d = 2^w) per (key, coeffs)."""
    out = []
    for key, cs in terms:
        v = 0
        for c in reversed(cs):  # Horner from the top coefficient down
            v = (v << w) + c
        out.append((key + offset, v))
    return out


def _unpacked(rows: Iterable[tuple[int, int]], bias: int, w: int) -> dict[int, ParamPoly]:
    """Unbiased key -> ParamPoly of each nonzero (biased packed key, value).

    Each value is read back as balanced base-2^w digits in
    [-2^(w-1), 2^(w-1)), lowest first, which is exact when every coefficient
    lies in that range; a value of 0 is a cancelled monomial and is dropped.
    The digit loop ends on a nonzero top digit, so each row is a canonical
    ParamPoly and is built by its trusted constructor; the key only loses
    its bias.
    """
    trusted = ParamPoly._trusted
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    full = 1 << w
    out = {}
    for key, v in rows:
        if not v:
            continue  # every coefficient cancelled
        row = []
        while v:
            c = v & mask
            if c >= half:
                c -= full
            row.append(c)
            v = (v - c) >> w
        out[key - bias] = trusted(row)
    return out


class CohClass:
    """An element of the truncated ring, graded by total_degree."""

    __slots__ = ("ambient", "total_degree", "_terms")

    def __init__(self, ambient: VarSpec, total_degree: int,
                 terms: Mapping[tuple[int, ...], ParamPoly], *, _packed_keys: bool = False):
        """Class with the given terms; zero coefficients are dropped.

        ``terms`` maps exponent tuples to ParamPoly or int coefficients.
        total_degree and every exponent entry must be an int (not a bool).
        Every exponent must have one entry per generator, each in
        [0, truncation), and sum to at most total_degree (the implicit F
        exponent is non-negative).  ``_packed_keys=True`` is for the ring
        operations only: ``terms`` is then a dict from unbiased packed keys
        to nonzero ParamPoly coefficients, on exponents that already satisfy
        these invariants, and is stored as given.
        """
        self.ambient = ambient
        self.total_degree = total_degree
        if _packed_keys:
            self._terms = terms
            return
        if not _is_int(total_degree):
            raise ValueError(f"total_degree must be an integer, got {total_degree!r}")
        if total_degree < 0:
            raise ValueError("total_degree must be non-negative")
        cleaned: dict[int, ParamPoly] = {}
        for exp, coeff in terms.items():
            coeff = _coerce_poly(coeff)
            if coeff.is_zero():
                continue
            key = ambient._checked_key(exp)
            if sum(exp) > total_degree:
                raise ValueError(
                    f"monomial {exp} exceeds total_degree {total_degree}; "
                    "the implicit F exponent would be negative")
            cleaned[key] = coeff
        self._terms = cleaned

    @property
    def terms(self) -> dict[tuple[int, ...], ParamPoly]:
        """Exponent tuple -> nonzero coefficient, decoded on each read.

        The dict is a fresh copy: changing it does not change the class.
        """
        return dict(zip(self.ambient._exponents(self._terms), self._terms.values()))

    def _sorted_terms(self) -> list[tuple[tuple[int, ...], ParamPoly]]:
        """(exponent tuple, coefficient) pairs in increasing exponent order.

        Unbiased keys sort as their exponent tuples do (``VarSpec._layout``),
        so the ints are sorted and only then decoded.
        """
        keys = sorted(self._terms)
        return list(zip(self.ambient._exponents(keys), map(self._terms.__getitem__, keys)))

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
        # classes of one stratum share one VarSpec: identity settles most calls
        if self.ambient is not other.ambient and self.ambient != other.ambient:
            raise ValueError(
                f"ambient mismatch: {self.ambient.names} vs {other.ambient.names}")

    def __add__(self, other: "CohClass") -> "CohClass":
        self._require_same_ambient(other)
        if self.total_degree != other.total_degree:
            raise ValueError(
                "cannot add classes of total degree "
                f"{self.total_degree} and {other.total_degree}")
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            terms[key] = terms[key] + coeff if key in terms else coeff
        return CohClass(self.ambient, self.total_degree,
                        {key: c for key, c in terms.items() if c.coeffs}, _packed_keys=True)

    def __neg__(self) -> "CohClass":
        return CohClass(self.ambient, self.total_degree,
                        {key: -c for key, c in self._terms.items()}, _packed_keys=True)

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (-other)

    def scaled(self, factor) -> "CohClass":
        """Multiply every coefficient by an integer or ParamPoly (degree 0 in F)."""
        poly = _coerce_poly(factor)
        # Z[d] has no zero divisors: a product of nonzero coefficients is nonzero
        terms = {key: c * poly for key, c in self._terms.items()} if poly else {}
        return CohClass(self.ambient, self.total_degree, terms, _packed_keys=True)

    def __mul__(self, other: "CohClass") -> "CohClass":
        """Product by Kronecker substitution: one integer multiply per term pair.

        Keys are packed exponents laid out by ``VarSpec._layout``: with the
        bias added to the left factor's keys, a pair dies to the truncations
        iff its packed sum hits a guard bit.  The packed sum of a surviving
        pair keys the row of its output monomial, and that sum less the bias
        is the monomial's stored key, so no exponent tuple is read or built.

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

        Each row is therefore read back exactly by ``_unpacked``; a row whose
        packed sum is 0 is a cancelled monomial and is dropped.  No ParamPoly
        exists until each finished row becomes one.
        """
        self._require_same_ambient(other)
        total_degree = self.total_degree + other.total_degree
        if not self._terms or not other._terms:
            return CohClass(self.ambient, total_degree, {}, _packed_keys=True)
        _, _, bias, guard = self.ambient._layout
        lcoeffs = [c.coeffs for c in self._terms.values()]
        rcoeffs = [c.coeffs for c in other._terms.values()]
        n = min(max(map(len, lcoeffs)), max(map(len, rcoeffs)))
        w = (max(map(abs, chain.from_iterable(lcoeffs))).bit_length()
             + max(map(abs, chain.from_iterable(rcoeffs))).bit_length()
             + (n * min(len(lcoeffs), len(rcoeffs))).bit_length() + 1)
        left = _packed(zip(self._terms, lcoeffs), bias, w)
        right = _packed(zip(other._terms, rcoeffs), 0, w)
        rows: dict[int, int] = {}
        get = rows.get
        for p1, a in left:
            for p2, b in right:
                key = p1 + p2
                if key & guard:
                    continue  # nilpotent: the monomial dies
                rows[key] = get(key, 0) + a * b
        return CohClass(self.ambient, total_degree, _unpacked(rows.items(), bias, w),
                        _packed_keys=True)

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
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self.ambient, self.total_degree, frozenset(self._terms.items())))

    def is_zero(self) -> bool:
        return not self._terms

    # -- extraction and division ---------------------------------------------

    def coefficient(self, monomial) -> ParamPoly:
        """ParamPoly coefficient of a monomial; zero if absent.

        ``monomial`` is an exponent tuple or a {name: exponent} mapping.  An
        exponent that no class can hold (wrong arity, an entry that is not
        an int or is a bool, negative, or at a truncation) raises ValueError
        instead of reading as zero.
        """
        if isinstance(monomial, Mapping):
            exp = self.ambient.exponent(monomial)
        else:
            exp = tuple(monomial)
        return self._terms.get(self.ambient._checked_key(exp), ParamPoly())

    def divide_exact(self, b: "CohClass") -> "CohClass":
        """Solve a * b == self for a, where b = F + N with N nilpotent.

        b must have total_degree 1 and F coefficient exactly 1.  Multiplying
        by b is injective on bounded classes because F is invertible there,
        so the quotient is found by matching implicit F degrees from the top
        down.  N is homogeneous of visible degree 1, so the part a_L of the
        quotient at visible degree L satisfies

            a_L = self_L - a_(L-1) * N,    a_(-1) = 0,

        for L = 0 .. min(t_quot, sum(t_i - 1)), with t_quot = total_degree - 1
        and t_i the truncations: no exponent of a lies above either.

        The whole recursion runs on Kronecker-packed integers.  The dividend's
        terms are grouped by level from their packed keys (the level of a key
        is the sum of its fields), and the dividend and N are packed once at
        d = 2^w, with keys biased as in ``__mul__`` (a pair dies to the
        truncations iff its biased packed sum hits a guard bit); each level
        starts from the packed dividend terms of that level and subtracts one
        big-integer product per surviving pair of an a_(L-1) term and an N
        term.  Packing is evaluation at d = 2^w, a ring map, so the packed a_L
        are exact for every w; w only has to make the single read-back of the
        quotient exact, that is |c| < 2^(w-1) for every integer coefficient c
        of every a_L.

        The bound.  Let r be the L1 norm of N (the sum of |c| over every term
        of N and every power of d), S_L the largest |coefficient| of self at
        visible level L, and B_L = S_L + r*B_(L-1) with B_(-1) = 0.  Then
        every coefficient of a_L is at most B_L in absolute value.  By
        induction on L: the d^k coefficient of a_(L-1)*N at the monomial e is
        a sum over the terms u of N and the powers d^j of N's coefficients,
        of a_(L-1)[e - u][d^(k-j)] * N[u][d^j].  The pair (u, j) fixes both
        factors, so each coefficient of N appears at most once, and the sum
        is at most r*B_(L-1) in absolute value; the dividend's coefficient
        adds at most S_L.  With w = max(B_L).bit_length() + 1 every
        coefficient satisfies |c| <= B_L < 2^(w-1).

        The quotient, read back once into packed keys, is then multiplied
        back by b through ``__mul__`` and compared with self.  That product
        is independent of the packed recursion, so a nonzero remainder (the
        defining equation was inconsistent, or a field overflowed) raises
        ExactDivisionError instead of returning a wrong quotient.
        """
        self._require_same_ambient(b)
        if b.total_degree != 1:
            raise ValueError("divisor must have total_degree 1")
        if b._terms.get(0, ParamPoly()) != ParamPoly.const(1):  # key 0: the monomial F
            raise ValueError("divisor must have F coefficient 1")
        if self.is_zero():
            raise ValueError("cannot divide the zero class")
        if self.total_degree < 1:
            raise ExactDivisionError("dividend has total_degree 0")
        ambient = self.ambient
        shifts, field, bias, guard = ambient._layout
        t_quot = self.total_degree - 1
        levels: list[list[tuple[int, tuple[int, ...]]]] = [
            [] for _ in range(min(t_quot, sum(ambient.top_exponent())) + 1)]
        for key, c in self._terms.items():
            level = sum([(key >> s) & field for s in shifts])
            if level < len(levels):
                levels[level].append((key, c.coeffs))
        nilpotent = [(key, c.coeffs) for key, c in b._terms.items() if key]
        r = sum(map(abs, chain.from_iterable(cs for _, cs in nilpotent)))
        bound = widest = 0
        for part in levels:
            peak = max(map(abs, chain.from_iterable(cs for _, cs in part)), default=0)
            bound = peak + r * bound
            widest = max(widest, bound)
        w = widest.bit_length() + 1
        right = _packed(nilpotent, 0, w)
        solved: list[tuple[int, int]] = []
        below: list[tuple[int, int]] = []  # packed a_(L-1)
        for part in levels:
            rows = dict(_packed(part, bias, w))
            get = rows.get
            for p1, a in below:
                for p2, c in right:
                    key = p1 + p2
                    if key & guard:
                        continue  # nilpotent: the monomial dies
                    rows[key] = get(key, 0) - a * c
            below = [(key, v) for key, v in rows.items() if v]
            solved += below
        quotient = CohClass(ambient, t_quot, _unpacked(solved, bias, w), _packed_keys=True)
        # the packed rows are dead: free them, so the check product's own
        # packing does not raise the peak memory of a division
        del levels, solved, below, rows
        if quotient * b != self:
            raise ExactDivisionError("division left a nonzero remainder")
        return quotient

    # -- serialization and display ---------------------------------------------

    def to_json(self) -> dict:
        variables = [{"name": n, "trunc": t} for n, t in self.ambient.generators]
        names = self.ambient.names
        terms = [{"exps": {names[i]: e for i, e in enumerate(exp) if e != 0},
                  "coeff": coeff.to_json()}
                 for exp, coeff in self._sorted_terms()]
        return {"variables": variables, "total_degree": self.total_degree, "terms": terms}

    @classmethod
    def from_json(cls, data: Mapping) -> "CohClass":
        """Inverse of ``to_json``; a monomial named by two terms raises ValueError."""
        ambient = VarSpec(tuple((v["name"], v["trunc"]) for v in data["variables"]))
        terms = {}
        for item in data["terms"]:
            exp = ambient.exponent(dict(item["exps"]))
            if exp in terms:
                raise ValueError(f"two terms name the monomial {exp}")
            terms[exp] = ParamPoly.from_json(item["coeff"])
        return cls(ambient, data["total_degree"], terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        names = self.ambient.names
        pieces = []
        for exp, coeff in self._sorted_terms():
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
