"""Exact univariate polynomials in the curve degree d.

Every cohomology-class coefficient in this package is a polynomial in the
symbolic curve degree d with arbitrary-precision integer coefficients.  The
representation is dense (degrees stay small, about 10 at most in practice)
and canonical: the highest stored coefficient is nonzero unless the
polynomial is zero.

The public constructor copies, type-checks and strips its input; a bool
is not an integer coefficient and raises TypeError there, in ``const`` and
as an operand.  The ring's own results skip the constructor: ``*`` and
``_stripped`` set the coefficients on a bare instance, since they are ints
this module computed, and ``const`` of an exact ``int`` does the same.  An
``int`` operand of ``*`` or ``+``, on either side, is combined with the
coefficients directly, without being made a constant polynomial first;
``shifted`` runs Horner in d + a on a list of ints, and a shift that is
not an int (a bool included) raises TypeError.

A product whose longer factor has at most ``_KERNEL_CAP`` = 8 coefficients
runs a straight-line kernel of its shape (la, lb): unpack both tuples into
locals, return each product entry as one sum.  It takes about half the
time of the schoolbook double loop on the factors of 1-5 coefficients that
dominate (0.95 against 1.8 us per product on the ring suite's triples, on
a 2-vCPU virtual machine under Python 3.11).  Each kernel is generated by
``_kernel`` and compiled with ``exec`` on its shape's first product, never
at import, and kept in ``_KERNELS``; its source is built from the two
lengths alone, so no input reaches ``exec``.  The cap bounds the kernels
to 36 and a compile to about 0.3 ms (8 x 8).  Longer products keep the
double loop: a compile grows with la * lb (0.3 s at 300 x 300), so without
a cap one rare long product could cost more to compile than every kernel
saves.  The program's own longest factors have 9 coefficients, in 45 of
the 6910 products of ``verify --suite all``.
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
        if other.__class__ is int:
            if not other:
                return self
            out = list(self.coeffs) or [0]
            out[0] += other
            return _stripped(out)
        if other.__class__ is not ParamPoly:
            other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _stripped(out)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return _stripped([-c for c in self.coeffs])

    def __sub__(self, other) -> "ParamPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ParamPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "ParamPoly":
        poly = object.__new__(ParamPoly)
        if other.__class__ is int:
            # a nonzero int times a canonical polynomial keeps its top entry nonzero
            poly.coeffs = tuple([c * other for c in self.coeffs]) if other else ()
            return poly
        if other.__class__ is not ParamPoly:
            other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            poly.coeffs = ()
            return poly
        la, lb = len(a), len(b)
        if la < lb:
            a, b, la, lb = b, a, lb, la
        # Z has no zero divisors, so the top entry a[-1] * b[-1] of either
        # path is nonzero and nothing needs stripping.  A longer factor of at
        # most _KERNEL_CAP entries runs the straight-line kernel of the shape
        # (la, lb), generated on the shape's first product
        if la <= _KERNEL_CAP:
            poly.coeffs = (_KERNELS.get((la, lb)) or _kernel(la, lb))(a, b)
            return poly
        # past it, one row per entry of the shorter factor
        out = [0] * (la + lb - 1)
        for i, cb in enumerate(b):
            if cb:
                for j, ca in enumerate(a, i):
                    out[j] += ca * cb
        poly.coeffs = tuple(out)
        return poly

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ParamPoly":
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
        if a.__class__ is not int and (not isinstance(a, int) or isinstance(a, bool)):
            raise TypeError(f"integer shift required, got {a!r}")
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


# The longest factor, in coefficients, whose products run a straight-line
# kernel: at most 36 kernels, one per shape (la, lb) with lb <= la <= 8.
_KERNEL_CAP = 8
_KERNELS: dict[tuple[int, int], Callable] = {}


def _kernel(la: int, lb: int) -> Callable:
    """The product kernel of the shape (la, lb), 1 <= lb <= la, compiled and
    kept in ``_KERNELS`` on the shape's first use.

    ``kernel(a, b)`` unpacks the two coefficient tuples into locals and
    returns every entry of the product as one sum of products, with no loop
    and no list.  The source text is built from la and lb alone, so no
    coefficient or other input ever reaches ``exec``.
    """
    a = ", ".join(f"a{i}" for i in range(la))
    b = ", ".join(f"b{j}" for j in range(lb))
    entries = [" + ".join(f"a{i}*b{k - i}" for i in range(max(0, k - lb + 1), min(k, la - 1) + 1))
               for k in range(la + lb - 1)]
    source = (f"def kernel(a, b):\n    {a}, = a\n    {b}, = b\n"
              f"    return ({', '.join(entries)},)\n")
    namespace: dict = {}
    exec(source, namespace)
    kernel = _KERNELS[la, lb] = namespace["kernel"]
    return kernel


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
