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
The package's own divisor builders (``divisors``, and the linear factors of
``strata``) are ring-built data too: they write packed keys directly, with
int or ParamPoly coefficients, through ``CohClass.divisor`` or
``_packed_keys=True``, and only the names they are given are checked.

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
row is read back into signed w-bit digits and becomes one ParamPoly without
the public constructor's checks.  Each exponent field has a guard bit on
top (see ``VarSpec._layout``), so once the left factor's keys carry a bias,
the truncation test of a term pair is one addition and one mask.  That loop
over term pairs is written once (``_accumulate``); the product, the
division and the packed recipe products all run on it.

Division by a divisor F + N (``CohClass.divide_exact``) runs on the same
packed integers.  The dividend and -N are packed once, at one field width
taken from a bound on the quotient's coefficients that its docstring
proves; each visible level of the quotient is then the packed dividend of
that level plus the pair loop over the level below times -N, and the
quotient is read back once at the end.  Packing (``_packed``) and reading
back (``_unpacked``) have one implementation each, shared by the product
and the division.  The quotient is checked by multiplying it back through
the product kernel.

A degree needs one coefficient, the top monomial's, of a quotient or of a
product, and it has one entry point, ``recipe_quotient_top``.  From a
recipe, a weighted sum of products of factor classes, it packs every
factor once at one width and multiplies and sums on packed rows.  With a
kill divisor it reads the top coefficient of the quotient by the
divisor's series (``_series_top``): where the quotient's top level keeps a
power of F, the quotient is the finite series
sum_j (-N)^j * dividend / F^(j+1).  Without one, the recipe is a product
and its last packed product forms the top term alone.  No class exists
between the factors and the top coefficient; a built class is the recipe
of one factor.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping, Sequence
from itertools import chain
from math import comb, factorial, prod
from operator import lshift

from ._value import Value
from .coeffring import ParamPoly, _require_int


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


def _check_total_degree(total_degree) -> None:
    if not _is_int(total_degree):
        raise ValueError(f"total_degree must be an integer, got {total_degree!r}")
    if total_degree < 0:
        raise ValueError("total_degree must be non-negative")


def _json_object(value, what: str) -> Mapping:
    """value, which must be a JSON object; anything else raises ValueError."""
    if type(value) is not dict and not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _json_field(obj, key: str, what: str):
    """obj[key] of a JSON object; anything else raises ValueError."""
    try:
        return _json_object(obj, what)[key]
    except KeyError:
        raise ValueError(f"{what} has no {key!r} field") from None


def _json_array_field(obj, key: str, what: str) -> Sequence:
    """obj[key], which must be a JSON array; anything else raises ValueError."""
    value = _json_field(obj, key, what)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key!r} of {what} must be a JSON array, got {type(value).__name__}")
    return value


def _coerce_poly(value) -> ParamPoly:
    if value.__class__ is ParamPoly:
        return value
    if isinstance(value, int):
        return ParamPoly.const(value)  # no check for an exact int; a bool raises
    if isinstance(value, ParamPoly):
        return value
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
    ParamPoly and its coefficients are set without the public constructor's
    checks; the key only loses its bias.
    """
    new = object.__new__
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
        poly = new(ParamPoly)
        poly.coeffs = tuple(row)
        out[key - bias] = poly
    return out


def _accumulate(rows: dict[int, int], left: Iterable[tuple[int, int]], bias: int,
                right: Sequence[tuple[int, int]], guard: int) -> None:
    """rows[p1 + bias + p2] += a * b for every pair of a left term (p1, a)
    and a right term (p2, b) that survives the truncations: the one loop
    over term pairs.  p1 + bias carries the bias of ``VarSpec._layout``
    (bias is 0 for left keys that already carry it) and p2 none, so a pair
    dies iff its packed sum hits a guard bit, and the sum of a surviving
    pair is its monomial's biased key."""
    get = rows.get
    for p1, a in left:
        p1 += bias
        for p2, b in right:
            key = p1 + p2
            if key & guard:
                continue  # nilpotent: the monomial dies
            rows[key] = get(key, 0) + a * b


def _packed_product(left: list[tuple[int, int]], right: list[tuple[int, int]],
                    bias: int, guard: int, mask: int = 0,
                    target: int = 0) -> list[tuple[int, int]]:
    """Product of two packed classes at one width, by ``_accumulate``.

    Keys are unbiased on both sides and on the result; a row whose value
    is 0 is dropped.  With a mask, only the monomials whose fields under
    it equal target's are formed.  target holds the top exponent in those
    fields, so no field borrows in target - (k & mask): the right terms
    that a left key k meets are the ones with those fields, and the left
    terms are grouped by the fields they need.  Without a mask every pair
    is formed, with no grouping: most calls are the full products of a
    power or a balanced product, where a grouping pass per call costs more
    than the pairs it would skip.
    """
    rows: dict[int, int] = {}
    if not mask:
        _accumulate(rows, left, bias, right, guard)
    else:
        groups: dict[int, list[tuple[int, int]]] = {}
        for term in right:
            groups.setdefault(term[0] & mask, []).append(term)
        needs: dict[int, list[tuple[int, int]]] = {}
        for term in left:
            needs.setdefault(target - (term[0] & mask), []).append(term)
        for fields, part in needs.items():
            _accumulate(rows, part, bias, groups.get(fields, ()), guard)
    return [(key - bias, v) for key, v in rows.items() if v]


def _packed_power(x: list[tuple[int, int]], e: int, bias: int,
                  guard: int) -> list[tuple[int, int]]:
    """x^e of a packed class by binary powering, with no product by one."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else _packed_product(result, x, bias, guard)
        e >>= 1
        if not e:
            return [(0, 1)] if result is None else result
        x = _packed_product(x, x, bias, guard)


def _packed_product_of(items: list[list[tuple[int, int]]], bias: int,
                       guard: int) -> list[tuple[int, int]]:
    """Balanced product of packed classes, paired as ``product_of`` pairs
    classes; the product of none is one."""
    if not items:
        return [(0, 1)]
    while len(items) > 1:
        nxt = [_packed_product(items[i], items[i + 1], bias, guard)
               for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def _norm(coeffs: Iterable[ParamPoly]) -> int:
    """L1 norm: the sum of |c| over every coefficient of every polynomial."""
    return sum(sum(map(abs, c.coeffs)) for c in coeffs)


def _check_division(ambient: VarSpec, total_degree: int, is_zero: bool, b: "CohClass") -> None:
    """The argument checks of every division by b, ``divide_exact`` and
    ``recipe_quotient_top``, for a dividend over ambient of the given total
    degree."""
    if ambient is not b.ambient and ambient != b.ambient:
        raise ValueError(f"ambient mismatch: {ambient.names} vs {b.ambient.names}")
    if b.total_degree != 1:
        raise ValueError("divisor must have total_degree 1")
    if b._terms.get(0, ParamPoly()) != ParamPoly.const(1):  # key 0: the monomial F
        raise ValueError("divisor must have F coefficient 1")
    if is_zero:
        raise ValueError("cannot divide the zero class")
    if total_degree < 1:
        raise ExactDivisionError("dividend has total_degree 0")


def _series_height(ambient: VarSpec, total_degree: int) -> int:
    """H = |top|, the top monomial's visible level, for a dividend of
    total_degree in the range where the kill divisor's series is the
    quotient (total_degree - 1 >= H); below it ExactDivisionError."""
    height = sum(ambient.top_exponent())
    if total_degree - 1 < height:
        raise ExactDivisionError(
            f"the top monomial needs total_degree - 1 >= {height} for the series "
            f"to be the quotient; the dividend has total_degree {total_degree}")
    return height


def _absent_fields(ambient: VarSpec, b: "CohClass") -> int:
    """Mask of the fields of the generators that b's nilpotent part lacks.
    A dividend term reaches the top coefficient of its quotient by b only
    with those fields at the top exponent (``_series_top``)."""
    shifts, field, _, _ = ambient._layout
    return sum(field << s for s in shifts if 1 << s not in b._terms)


def _series_top(ambient: VarSpec, rows: Iterable[tuple[int, int]], b: "CohClass",
                w: int) -> ParamPoly:
    """Top coefficient of a dividend over b = F + N, by the kill divisor's series.

    ``rows`` are the dividend's terms as (unbiased packed key, value at
    d = 2^w); b is a checked divisor.  Let top be the exponent
    truncation-1 on every generator and H = |top| its visible level.  When
    total_degree - 1 >= H (``_series_height``), every visible level of the
    quotient keeps a non-negative power of F, so F + N is a unit on the
    quotient's degree and the quotient is the finite series

        dividend / (F + N) = sum_j (-N)^j * dividend / F^(j+1),

    which ends at j = H because N is nilpotent of visible degree 1.  A
    term e of the dividend reaches the top monomial through j = H - |e|
    factors of N, with the exponent m = top - e; the g^m coefficient of
    N^j is the multinomial j!/prod(m_g!) * prod(n_g^m_g), for n_g the
    coefficient of the generator g in N.  So

        top = sum_e rows[e] * (-1)^j * j!/prod(m_g!) * prod(n_g^m_g).

    To stay in integers, the generator g contributes
    n_g^m_g * (t_g - 1)!/m_g!, and the whole sum, which is then
    D = prod((t_g - 1)!) times the packed top, is divided by D exactly once.

    Packing is evaluation at d = 2^w, a ring map, so the packed sum is the
    image of the true top for every w; the read-back at width w is exact
    when every coefficient c of the top has |c| < 2^(w-1).  With r the L1
    norm of N, the L1 norm of the g^m coefficient of N^j is at most r^j
    (the multinomial sum of the norms is (sum |n_g|)^j), so every |c| is
    at most sum_e ||dividend[e]|| * r^(H - |e|), with ||dividend[e]|| the
    L1 norm of the term's coefficient.  ``_recipe_bound`` bounds that sum.
    """
    shifts, field, _, _ = ambient._layout
    top = ambient.top_exponent()
    n = dict(_packed(((key, c.coeffs) for key, c in b._terms.items() if key), 0, w))
    # A generator absent from N has n_g = 0: only terms with m_g = 0 reach the
    # top, each with the factor (t_g - 1)!/0! that D divides out again, so
    # other terms are skipped and the generator drops out of D.
    present = [(s, t) for s, t in zip(shifts, ambient.truncations) if 1 << s in n]
    absent = _absent_fields(ambient, b)
    # per generator of N: its shift and n_g^k * (t_g - 1)!/k! for k < t_g
    weights = [(s, [n[1 << s] ** k * (factorial(t - 1) // factorial(k)) for k in range(t)])
               for s, t in present]
    top_key = sum(e << s for e, s in zip(top, shifts))
    by_order = [0] * (sum(top) + 1)  # the packed sums at each j
    for key, a in rows:
        m = top_key - key  # no field borrows: each exponent is below its truncation
        if m & absent:
            continue
        j = 0
        for s, powers in weights:
            k = (m >> s) & field
            j += k
            a *= powers[k]
        by_order[j] += a
    total = sum(v * factorial(j) * (-1) ** j for j, v in enumerate(by_order))
    scale = prod(factorial(t - 1) for _, t in present)
    return _unpacked([(0, total // scale)], 0, w).get(0, ParamPoly())


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
        _check_total_degree(total_degree)
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
        # packed keys directly: F's is 0, a generator's is 1 at its field's shift
        f_poly = _coerce_poly(f_part)
        terms = {0: f_poly} if f_poly else {}
        for name, coeff in (parts if parts.__class__ is dict else dict(parts)).items():
            poly = _coerce_poly(coeff)
            if poly:
                i = ambient._indices.get(name)
                if i is None or ambient.truncations[i] == 1:  # unknown, or g = 0
                    ambient._checked_key(ambient.exponent({name: 1}))  # ValueError
                terms[1 << ambient._layout[0][i]] = poly
        return cls(ambient, 1, terms, _packed_keys=True)

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
        if factor.__class__ is not int:  # ParamPoly * int needs no constant polynomial
            factor = _coerce_poly(factor)
        # Z[d] has no zero divisors: a product of nonzero coefficients is nonzero
        terms = {key: c * factor for key, c in self._terms.items()} if factor else {}
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
        rows: dict[int, int] = {}
        _accumulate(rows, _packed(zip(self._terms, lcoeffs), 0, w), bias,
                    _packed(zip(other._terms, rcoeffs), 0, w), guard)
        return CohClass(self.ambient, total_degree, _unpacked(rows.items(), bias, w),
                        _packed_keys=True)

    def __pow__(self, n: int) -> "CohClass":
        _require_int(n, "exponent")
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
        is the sum of its fields), and the dividend and -N are packed once at
        d = 2^w, the dividend's keys biased as in ``__mul__`` (a pair dies to
        the truncations iff its biased packed sum hits a guard bit); each
        level starts from the packed dividend terms of that level and adds
        one big-integer product per surviving pair of an a_(L-1) term and a
        term of -N (``_accumulate``).  Packing is evaluation at d = 2^w, a
        ring map, so the packed a_L are exact for every w; w only has to make
        the single read-back of the quotient exact, that is |c| < 2^(w-1)
        for every integer coefficient c of every a_L.

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
        _check_division(self.ambient, self.total_degree, self.is_zero(), b)
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
        minus_n = [(key, -v) for key, v in _packed(nilpotent, 0, w)]
        solved: list[tuple[int, int]] = []
        below: list[tuple[int, int]] = []  # packed a_(L-1)
        for part in levels:
            rows = dict(_packed(part, bias, w))
            _accumulate(rows, below, 0, minus_n, guard)  # below is biased
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
        """Inverse of ``to_json``; every term is checked once, into its key.

        The checks are the public constructor's, with its messages: an
        unknown generator, an exponent entry that is not an int (or is a
        bool), negative or at its truncation, a monomial above total_degree.
        A monomial named by two terms, a malformed coefficient (see
        ``ParamPoly.from_json``) and a payload of the wrong shape (not an
        object, a missing field, "variables" or "terms" not an array,
        "exps" not an object) raise ValueError too.  Unlike the constructor,
        a term whose coefficient is zero has its exponent checked as well
        before it is dropped.
        """
        ambient = VarSpec(tuple(
            (_json_field(v, "name", "a variable"), _json_field(v, "trunc", "a variable"))
            for v in _json_array_field(data, "variables", "a class")))
        items = _json_array_field(data, "terms", "a class")
        total_degree = _json_field(data, "total_degree", "a class")
        _check_total_degree(total_degree)
        indices, truncs, shifts = ambient._indices, ambient.truncations, ambient._layout[0]
        parse = ParamPoly.from_json
        terms: dict[int, ParamPoly] = {}
        for item in items:
            exps = _json_object(_json_field(item, "exps", "a term"), "'exps' of a term")
            coeff = parse(_json_field(item, "coeff", "a term"))
            key = level = 0
            for name, e in exps.items():
                i = indices.get(name)
                if i is None or e.__class__ is not int or not 0 <= e < truncs[i]:
                    # raises as the constructor would; an int subclass in range passes
                    ambient._checked_key(ambient.exponent(exps))
                key += e << shifts[i]
                level += e
            if key in terms:
                raise ValueError(f"two terms name the monomial {ambient.exponent(exps)}")
            if level > total_degree:
                raise ValueError(
                    f"monomial {ambient.exponent(exps)} exceeds total_degree {total_degree}; "
                    "the implicit F exponent would be negative")
            terms[key] = coeff
        return cls(ambient, total_degree, {key: c for key, c in terms.items() if c.coeffs},
                   _packed_keys=True)

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


def recipe_quotient_top(summands: Sequence[tuple[int, Sequence[tuple[CohClass, int]]]],
                        b: CohClass | None) -> ParamPoly:
    """Top-monomial coefficient of a recipe divided by b, from its factors alone.

    A recipe is a sequence of summands (weight, factors): an int weight and
    a sequence of (class, exponent) pairs over one ambient, b's when b is
    given.  It stands for the dividend sum(weight * prod(class^exponent)),
    and the result equals ``dividend.divide_exact(b)``'s top coefficient; a
    built dividend is the recipe [(1, [(dividend, 1)])].  With b None there
    is no division: the result is the top coefficient of the dividend
    itself, the degree of a stratum that is a product.  No class is built
    in between: each factor is packed once, at d = 2^W for one width W;
    powers and balanced products run on packed rows with the pair loop of
    ``__mul__`` (``_accumulate``: biased left keys, guard mask); the
    weighted summands are summed in packed form; and the kill divisor's
    series (``_series_top``) reads back the top coefficient alone, or with
    b None the last product's one top row is read back.

    Two steps save work without changing the value.  The factors that every
    summand holds (one class at one exponent) are multiplied once, after the
    sum: sum_s w_s * C * P_s = C * sum_s w_s * P_s.  And that last product
    forms only the terms that can reach the top, those with the top
    exponent in every generator that b's nilpotent part lacks; with b None
    every generator counts as lacking, so it forms the top term alone.

    Why it is exact.  Packing is evaluation at d = 2^W, a ring map from
    Z[d][g]/(g^t) to Z[g]/(g^t), so every packed power, product and sum is
    the image of the true one, for any W.  A row whose value is 0 is 0 in
    that image and contributes 0 to every later product and sum, so it is
    dropped.  W matters only for the final read-back, which is exact when
    every coefficient c of the top has |c| < 2^(W-1).  ``_recipe_bound``
    bounds |c| with the L1 norm ||x||, the sum of |c| over every term of x
    and every power of d, and H = sum(t_g - 1), the top monomial's level:

    * ||xy|| <= ||x|| ||y||: a coefficient of xy sums products of one
      coefficient of x and one of y, each pair at most once, and the
      truncations only drop terms.  ||sum w_i x_i|| <= sum |w_i| ||x_i||.
    * For a divisor x = F + N (total degree 1, F coefficient 1),
      x^e = sum_k C(e, k) F^(e-k) N^k, and N^k = 0 for k > H: N has visible
      degree 1, and no monomial above level H survives the truncations.
      So ||x^e|| <= sum over k <= min(e, H) of C(e, k) ||N||^k, with
      ||N|| = ||x|| - 1 (``_power_bound``); for any other factor
      ||x^e|| <= ||x||^e.  Hence ||dividend|| <= D, the sum over the
      summands of |weight| times the product of those bounds.
    * With r = ||N|| for b = F + N, every |c| is at most
      sum_e ||dividend[e]|| r^(H - |e|) (``_series_top`` derives it), which
      is at most ||dividend|| * max(1, r)^H <= D * max(1, r)^H.

    W is one bit wider than D * max(1, r)^H.  That bound is at least D, so
    it bounds every coefficient of the dividend too: a nonzero dividend
    keeps a nonzero packed row, and the zero check is exact as well.  With
    b None the result is a coefficient of the dividend, so W is one bit
    wider than D.

    The checks are those of ``divide_exact`` (``_check_division``) and the
    series' range check (``_series_height``): a recipe below the range
    raises ExactDivisionError.  A factor over another ambient, a negative
    exponent, a summand without factors, no summand at all, or summands of
    different total degrees raise ValueError.  With b None only these
    recipe checks apply: a zero dividend, or one below the top monomial's
    level, has the top coefficient 0.
    """
    total_degree, bound = _recipe_bound(summands, b)
    ambient = summands[0][1][0][0].ambient if b is None else b.ambient
    shifts, field, bias, guard = ambient._layout
    w = bound.bit_length() + 1

    rests = [(weight, list(factors)) for weight, factors in summands]
    shared = []  # the (class, exponent) pairs that every summand holds
    for x, e in summands[0][1]:
        spots = [next((i for i, (y, k) in enumerate(rest) if y is x and k == e), None)
                 for _, rest in rests]
        if None not in spots:
            shared.append((x, e))
            for (_, rest), i in zip(rests, spots):
                del rest[i]

    packed: dict[int, list[tuple[int, int]]] = {}  # id(class) -> its packed terms

    def power(x: CohClass, e: int) -> list[tuple[int, int]]:
        terms = packed.get(id(x))
        if terms is None:
            terms = packed[id(x)] = _packed(
                ((key, c.coeffs) for key, c in x._terms.items()), 0, w)
        return _packed_power(terms, e, bias, guard)

    rows: dict[int, int] = {}
    get = rows.get
    for weight, rest in rests:
        for key, v in _packed_product_of([power(x, e) for x, e in rest], bias, guard):
            rows[key] = get(key, 0) + weight * v
    weighted = [(key, v) for key, v in rows.items() if v]
    common = _packed_product_of([power(x, e) for x, e in shared], bias, guard)
    top_key = sum(map(lshift, ambient.top_exponent(), shifts))
    if b is None:
        mask = sum(field << s for s in shifts)
        top = _packed_product(weighted, common, bias, guard, mask, top_key)
        return _unpacked(top, 0, w).get(top_key, ParamPoly())
    mask = _absent_fields(ambient, b)
    dividend = _packed_product(weighted, common, bias, guard, mask, top_key & mask)
    # the zero check needs the whole product only when no top term is left
    is_zero = not dividend and not _packed_product(weighted, common, bias, guard)
    _check_division(ambient, total_degree, is_zero, b)
    _series_height(ambient, total_degree)
    return _series_top(ambient, dividend, b, w)


def _recipe_bound(summands: Sequence[tuple[int, Sequence[tuple[CohClass, int]]]],
                  b: CohClass | None) -> tuple[int, int]:
    """(total degree, bound) of a recipe's dividend over b = F + N.

    Every coefficient of the top of dividend / b, and of the dividend
    itself, is at most the bound, D * max(1, r)^H in absolute value:
    ``recipe_quotient_top`` proves it from the series bound of
    ``_series_top``.  With b None the bound is D.  The recipe is validated
    on the way, as that function states; with b None its factors must share
    the first factor's ambient.
    """
    if not summands:
        raise ValueError("a recipe needs at least one summand")
    if not all(factors for _, factors in summands):
        raise ValueError("empty product has no ambient to live in")
    anchor = summands[0][1][0][0] if b is None else b
    height = sum(anchor.ambient.top_exponent())
    total_degree = None
    dividend_bound = 0
    for weight, factors in summands:
        degree, bound = 0, abs(weight)
        for x, e in factors:
            x._require_same_ambient(anchor)
            if e < 0:
                raise ValueError("negative powers are not defined")
            degree += e * x.total_degree
            bound *= _power_bound(x, e, height)
        if total_degree is None:
            total_degree = degree
        elif degree != total_degree:
            raise ValueError(
                f"cannot add classes of total degree {total_degree} and {degree}")
        dividend_bound += bound
    if b is None:
        return total_degree, dividend_bound
    r = _norm(c for key, c in b._terms.items() if key)
    return total_degree, dividend_bound * max(1, r) ** height


def _power_bound(x: CohClass, e: int, height: int) -> int:
    """A bound on ||x^e||, the L1 norm, for a class over generators whose
    top monomial has level ``height``: the binomial sum for a divisor
    F + N, ||x||^e otherwise (``recipe_quotient_top`` proves both)."""
    norm = _norm(x._terms.values())
    if x.total_degree == 1 and x._terms.get(0) == ParamPoly.const(1):
        return sum(comb(e, k) * (norm - 1) ** k for k in range(min(e, height) + 1))
    return norm ** e


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
