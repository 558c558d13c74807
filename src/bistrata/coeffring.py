"""Exact univariate polynomials in the curve degree d.

Every cohomology-class coefficient in this package is a polynomial in the
symbolic curve degree d with arbitrary-precision integer coefficients.  The
representation is dense (degrees stay small, about 10 at most in practice)
and canonical: the highest stored coefficient is nonzero unless the
polynomial is zero.
"""

from __future__ import annotations

import re
from typing import Iterable

# a coefficient entry of the JSON schema: an optionally signed ASCII decimal integer
_DECIMAL = re.compile(r"[+-]?[0-9]+")


class InterpolationError(ValueError):
    """Interpolation produced a non-integral or inconsistent result."""


class ParamPoly:
    """Dense integer polynomial in d, coefficients ascending by power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        self.coeffs: tuple[int, ...] = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "ParamPoly":
        return cls((c,))

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree in d; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "ParamPoly":
        if isinstance(value, ParamPoly):
            return value
        if isinstance(value, int):
            return ParamPoly.const(value)
        raise TypeError(f"cannot combine ParamPoly with {value!r}")

    def __add__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ParamPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(-c for c in self.coeffs)

    def __sub__(self, other) -> "ParamPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ParamPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ParamPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return ParamPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ParamPoly":
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = ParamPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, d0: int) -> int:
        """Exact value at d = d0 (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * d0 + c
        return acc

    def shifted(self, a: int) -> "ParamPoly":
        """Return P(d + a), the Taylor shift of the variable by a."""
        # Horner in (d + a): process coefficients from the top down.
        out = ParamPoly()
        shift = ParamPoly((a, 1))
        for c in reversed(self.coeffs):
            out = out * shift + ParamPoly.const(c)
        return out

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
        for s in data:
            if not (isinstance(s, str) and _DECIMAL.fullmatch(s)):
                raise ValueError(f"coefficient entry must be a decimal string, got {s!r}")
        return cls(int(s) for s in data)

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


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, zero outside the usual range."""
    if k < 0 or n < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out
