"""Exact univariate polynomials in the curve degree d.

Every cohomology-class coefficient in this package is a polynomial in the
symbolic curve degree d with arbitrary-precision integer coefficients.  The
representation is dense (degrees stay small, about 10 at most in practice)
and canonical: the highest stored coefficient is nonzero unless the
polynomial is zero.  Rational arithmetic appears only inside Lagrange
interpolation, and every interpolation result is asserted to be integral
before it leaves this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


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

    @classmethod
    def d_plus(cls, c: int) -> "ParamPoly":
        """The linear polynomial d + c."""
        return cls((c, 1))

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
    def from_json(cls, data: Sequence[str]) -> "ParamPoly":
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


ZERO = ParamPoly()
ONE = ParamPoly.const(1)
D = ParamPoly((0, 1))


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, zero outside the usual range."""
    if k < 0 or n < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def _lagrange_fraction_coeffs(xs: Sequence[int], ys: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients of the unique degree < len(xs) polynomial through (xs, ys)."""
    n = len(xs)
    acc = [Fraction(0)] * n
    for i in range(n):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for k in range(n):
            if k == i:
                continue
            # multiply basis by (t - xs[k])
            nxt = [Fraction(0)] * (len(basis) + 1)
            for j, c in enumerate(basis):
                nxt[j] += c * (-xs[k])
                nxt[j + 1] += c
            basis = nxt
            denom *= xs[i] - xs[k]
        scale = ys[i] / denom
        for j, c in enumerate(basis):
            acc[j] += c * scale
    return acc


def interpolate(samples: Sequence[tuple[int, ParamPoly]]) -> list[list[int]]:
    """Recover a bivariate polynomial from per-parameter samples.

    ``samples`` holds pairs (p0, value) where ``value`` is the exact
    polynomial in the second variable at integer parameter p0.  Each power of
    the second variable is interpolated separately by exact Lagrange
    interpolation through all sample points, so the result is correct for
    parameter degree up to len(samples) - 1.

    Returns the coefficient grid ``c[i][j]`` of p^i * v^j where v is the
    second variable.  Raises InterpolationError if points repeat or if any
    final coefficient fails to be an integer (the signature of a wrong degree
    bound or inconsistent samples).
    """
    if not samples:
        raise InterpolationError("no samples given")
    xs = [p for p, _ in samples]
    if len(set(xs)) != len(xs):
        raise InterpolationError("sample parameters must be distinct")
    width = max((s.degree() + 1 for _, s in samples), default=0)
    width = max(width, 1)
    n = len(xs)
    grid: list[list[Fraction]] = [[Fraction(0)] * width for _ in range(n)]
    for j in range(width):
        ys = [Fraction(poly.coeffs[j] if j < len(poly.coeffs) else 0) for _, poly in samples]
        col = _lagrange_fraction_coeffs(xs, ys)
        for i in range(n):
            grid[i][j] = col[i]
    out: list[list[int]] = []
    for i in range(n):
        row = []
        for j in range(width):
            val = grid[i][j]
            if val.denominator != 1:
                raise InterpolationError(
                    f"non-integral coefficient {val} at p^{i} v^{j}; "
                    "degree bound too low or samples inconsistent"
                )
            row.append(int(val))
        out.append(row)
    # trim empty trailing rows and columns for a canonical grid
    while out and all(c == 0 for c in out[-1]):
        out.pop()
    trimmed_width = 0
    for r in out:
        for j, c in enumerate(r):
            if c != 0:
                trimmed_width = max(trimmed_width, j + 1)
    return [r[:trimmed_width] for r in out]


def grid_eval_at(grid: Sequence[Sequence[int]], p0: int) -> ParamPoly:
    """Evaluate a coefficient grid at integer parameter p0, leaving a ParamPoly."""
    width = max((len(r) for r in grid), default=0)
    coeffs = [0] * width
    for i, row in enumerate(grid):
        scale = p0 ** i
        for j, c in enumerate(row):
            coeffs[j] += c * scale
    return ParamPoly(coeffs)
