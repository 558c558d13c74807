"""Exact univariate polynomials in the curve degree d.

Every cohomology-class coefficient in this package is a polynomial in the
symbolic curve degree d with arbitrary-precision integer coefficients.  The
representation is dense (degrees stay small, about 10 at most in practice)
and canonical: the highest stored coefficient is nonzero unless the
polynomial is zero.

The public constructor copies, type-checks and strips its input; a bool
is not an integer coefficient and raises TypeError there, in ``const``, as
an operand and as an exponent of ``**``.  The ring's own results skip the
constructor: the kernels and ``_stripped`` set the coefficients on a bare
instance, since they are ints this module computed, and ``const`` of an
exact ``int`` does the same.  An ``int`` operand of ``*``, ``+`` or ``-``,
on either side, is combined with the coefficients directly, without being
made a constant polynomial first; ``shifted`` runs Horner in d + a on a
list of ints, and a shift that is not an int (a bool included) raises
TypeError.

A sum, difference or product of two polynomials whose operands have at
most ``_KERNEL_CAP`` = 8 coefficients each runs a straight-line kernel of
its ordered shape (la, lb) = (len(self), len(other)): unpack both tuples
into locals and build the result with each entry as one expression.  The
three operations keep one table each (``_ADD``, ``_SUB``, ``_MUL``),
indexed ``table[la][lb]`` for lengths 0..8; a longer operand falls out of
the table as an IndexError and takes the loop.  Shapes are ordered, so
``a * b`` and ``b * a`` run two different kernels and nothing swaps the
operands.  Every entry starts as a warm-up stub that runs the operation's
loop for the shape's first ``_COMPILE_AT`` - 1 = 63 uses and then
compiles the shape's kernel with ``exec`` and puts it in its place, so
import compiles nothing and a process that uses a shape a few times pays
for no compile.  The source is built from the operation's name and the
two lengths alone, so no input reaches ``exec``.  On the ring suite's
operands (1-5 coefficients, on a 2-vCPU virtual machine under Python
3.11) a product takes 0.75 us against 0.90 through a kernel dict keyed by
the sorted shape, a sum 0.49 us against 0.77 for the loop, and a
difference 0.53 us against 1.59 for negating and adding.  The cap bounds
each table to 81 kernels and a compile to about 0.3 ms (8 x 8).  Longer
operands keep the loops: a compile grows with la * lb (0.3 s at
300 x 300), so without a cap one rare long product could cost more to
compile than every kernel saves.  The program's own longest factors have
9 coefficients, in 45 of the 6910 products of ``verify --suite all``.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable

# a coefficient entry of the JSON schema: an optionally signed ASCII decimal integer
_DECIMAL = re.compile(r"[+-]?[0-9]+")


class InterpolationError(ValueError):
    """Interpolation produced a non-integral or inconsistent result."""


class ParamPoly:
    """Dense integer polynomial in d, coefficients ascending by power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if c.__class__ is not int and (not isinstance(c, int) or isinstance(c, bool)):
                raise TypeError(f"integer coefficients required, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "ParamPoly":
        if c.__class__ is not int:
            return cls((c,))  # checked: a bool or a non-int raises TypeError
        poly = object.__new__(cls)
        poly.coeffs = (c,) if c else ()
        return poly

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree in d; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is ParamPoly:
            return self.coeffs == other.coeffs
        if isinstance(other, int) and not isinstance(other, bool):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented  # a bool included: it is no coefficient
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "ParamPoly":
        if isinstance(value, ParamPoly):
            return value
        if isinstance(value, int):
            return ParamPoly.const(value)  # a bool raises TypeError there
        raise TypeError(f"cannot combine ParamPoly with {value!r}")

    def __add__(self, other) -> "ParamPoly":
        if other.__class__ is not ParamPoly:
            if other.__class__ is int:
                if not other:
                    return self
                out = list(self.coeffs) or [0]
                out[0] += other
                return _stripped(out)
            other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        try:
            kernel = _ADD[len(a)][len(b)]
        except IndexError:  # a summand longer than the cap
            return _add_loop(a, b)
        return kernel(a, b)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return _stripped([-c for c in self.coeffs])

    def __sub__(self, other) -> "ParamPoly":
        if other.__class__ is not ParamPoly:
            if other.__class__ is int:
                return self + -other
            other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        try:
            kernel = _SUB[len(a)][len(b)]
        except IndexError:  # an operand longer than the cap
            return _sub_loop(a, b)
        return kernel(a, b)

    def __rsub__(self, other) -> "ParamPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "ParamPoly":
        if other.__class__ is not ParamPoly:
            if other.__class__ is int:
                # a nonzero int times a canonical polynomial keeps its top entry nonzero
                poly = object.__new__(ParamPoly)
                poly.coeffs = tuple([c * other for c in self.coeffs]) if other else ()
                return poly
            other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        try:
            kernel = _MUL[len(a)][len(b)]
        except IndexError:  # a factor longer than the cap
            return _mul_loop(a, b)
        return kernel(a, b)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ParamPoly":
        _require_int(n, "exponent")
        if n < 0:
            raise ValueError("negative powers are not defined")
        if n == 0:
            return ParamPoly.const(1)
        # binary powering that neither multiplies by 1 nor squares past the top bit
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __call__(self, d0: int) -> int:
        """Exact value at d = d0 (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * d0 + c
        return acc

    def shifted(self, a: int) -> "ParamPoly":
        """Return P(d + a), the Taylor shift of the variable by a.

        The shift must be an int: a float would leave float coefficients,
        and a bool is no integer here, as in ``const``; both raise TypeError.
        """
        _require_int(a, "shift")
        # Horner in (d + a) on a list of ints: pass i is a synthetic division
        # by (d - a) of entries i.., which leaves in entry i the coefficient
        # of d^i in P(d + a); the top entry never changes, so none is stripped
        cs = list(self.coeffs)
        top = len(cs) - 1
        for i in range(top):
            for j in range(top - 1, i - 1, -1):
                cs[j] += a * cs[j + 1]
        return _stripped(cs)

    # -- serialization and display ------------------------------------------

    def to_json(self) -> list[str]:
        """JSON form: array of decimal coefficient strings, ascending in d."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: list[str]) -> "ParamPoly":
        """Inverse of ``to_json``; every entry must be a decimal string.

        A JSON number, a bool or any other string (``int`` would accept
        floats, ``true``, whitespace and underscores) raises ValueError, so
        outside input never truncates into a plausible coefficient.
        """
        if not isinstance(data, list):
            raise ValueError(f"coefficient must be a JSON array, got {data!r}")
        match = _DECIMAL.fullmatch
        for s in data:
            if not (isinstance(s, str) and match(s)):
                raise ValueError(f"coefficient entry must be a decimal string, got {s!r}")
        # the entries are now decimal strings: int() of each needs no type check
        return _stripped(list(map(int, data)))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            if power == 0:
                body = str(abs(c))
            else:
                dpow = "d" if power == 1 else f"d^{power}"
                body = dpow if abs(c) == 1 else f"{abs(c)}*{dpow}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"ParamPoly({list(self.coeffs)!r})"


def _add_loop(a: tuple[int, ...], b: tuple[int, ...]) -> ParamPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _stripped(out)


def _sub_loop(a: tuple[int, ...], b: tuple[int, ...]) -> ParamPoly:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _stripped(out)


def _mul_loop(a: tuple[int, ...], b: tuple[int, ...]) -> ParamPoly:
    """The schoolbook product, one row per entry of b."""
    poly = object.__new__(ParamPoly)
    if not a or not b:
        poly.coeffs = ()
        return poly
    out = [0] * (len(a) + len(b) - 1)
    for i, cb in enumerate(b):
        if cb:
            for j, ca in enumerate(a, i):
                out[j] += ca * cb
    # Z has no zero divisors: the top entry a[-1] * b[-1] is nonzero
    poly.coeffs = tuple(out)
    return poly


# The longest operand, in coefficients, whose sums, differences and products
# run a straight-line kernel; each table has one entry per ordered shape
# (la, lb) with la, lb <= 8, and an operand past the cap is an IndexError.
_KERNEL_CAP = 8
# The use of one shape that compiles its kernel; the uses before it run the
# loop.  A compile costs 50-250 us and saves 0.2-1 us per use, so a fresh
# process that uses a shape a few times is faster without it: perfbench's
# strata-heavy pass, a fresh interpreter each, makes 19 sums of two shapes.
_COMPILE_AT = 64


def _table(name: str, loop: Callable) -> list[list[Callable]]:
    """The kernel table of one operation, every entry its warm-up stub."""
    uses = [[0] * (_KERNEL_CAP + 1) for _ in range(_KERNEL_CAP + 1)]

    def warm_up(a, b):
        row = uses[len(a)]
        row[len(b)] += 1
        if row[len(b)] < _COMPILE_AT:
            return loop(a, b)
        return _compile(name, len(a), len(b))(a, b)

    return [[warm_up] * (_KERNEL_CAP + 1) for _ in range(_KERNEL_CAP + 1)]


_TABLES = {"add": _table("add", _add_loop), "sub": _table("sub", _sub_loop),
           "mul": _table("mul", _mul_loop)}
_ADD, _SUB, _MUL = _TABLES["add"], _TABLES["sub"], _TABLES["mul"]


def _compile(name: str, la: int, lb: int) -> Callable:
    """The ``name`` kernel of the ordered shape (la, lb), compiled and put in
    its table in place of the warm-up stub.

    ``kernel(a, b)`` unpacks the two coefficient tuples into locals and
    builds the result's ParamPoly with every entry as one expression, with
    no loop and no list.  Unequal lengths leave the longer operand's top
    entry on top, and Z has no zero divisors, so only a sum or difference
    of equal lengths can need its zeros stripped.  The source text is built
    from the name and the two lengths alone, so no coefficient or other
    input ever reaches ``exec``.
    """
    a = [f"a{i}" for i in range(la)]
    b = [f"b{j}" for j in range(lb)]
    if name == "mul":
        entries = [" + ".join(f"a{i}*b{k - i}" for i in range(max(0, k - lb + 1), min(k, la - 1) + 1))
                   for k in range(la + lb - 1)] if la and lb else []
    else:
        # entries both operands have, then the longer one's own, negated in a difference
        sign = "-" if name == "sub" else "+"
        common = min(la, lb)
        rest = b[common:] if name == "add" else [f"-{x}" for x in b[common:]]
        entries = [f"a{i} {sign} b{i}" for i in range(common)] + a[common:] + rest
    lines = [f"def {name}_{la}x{lb}(a, b):"]
    lines += [f"    {', '.join(names)}, = {side}" for names, side in ((a, "a"), (b, "b")) if names]
    result = f"({', '.join(entries)},)" if entries else "()"
    if name != "mul" and la == lb and la:
        lines += [f"    out = {result}", "    if not out[-1]:", "        return _stripped(list(out))"]
        result = "out"
    lines += ["    poly = new(ParamPoly)", f"    poly.coeffs = {result}", "    return poly"]
    namespace = {"new": object.__new__, "ParamPoly": ParamPoly, "_stripped": _stripped}
    exec("\n".join(lines) + "\n", namespace)
    kernel = _TABLES[name][la][lb] = namespace[f"{name}_{la}x{lb}"]
    return kernel


def _require_int(value, what: str) -> None:
    """Raise TypeError unless value is an int; a bool is no integer here."""
    if value.__class__ is not int and (not isinstance(value, int) or isinstance(value, bool)):
        raise TypeError(f"integer {what} required, got {value!r}")


def _stripped(coeffs: list[int]) -> ParamPoly:
    """ParamPoly on a list of ints computed from ParamPoly coefficients.

    For the ring's own results only: of the public constructor's work (a
    list copy, the zero strip and a type check per entry) only the zero
    strip is needed, and the list itself is consumed.
    """
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    poly = object.__new__(ParamPoly)
    poly.coeffs = tuple(coeffs)
    return poly


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, zero outside the usual range."""
    if k < 0 or n < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out
