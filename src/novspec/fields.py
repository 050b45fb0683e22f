"""Coefficient fields for Novikov scalars.

Three modes are supported:

* ``rational``: exact arithmetic in Q via fractions.Fraction,
* ``gaussian``: exact arithmetic in Q(i),
* ``complex``: floating complex arithmetic with an explicit tolerance
  ``eps``; magnitudes below eps are treated as zero.

Exact modes admit no tolerance (eps must be 0); the floating mode
requires eps > 0.  Mixing scalars from incompatible fields is an error,
so every operation goes through a CoefficientField instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

NEG_INF = float("-inf")

RATIONAL = "rational"
GAUSSIAN = "gaussian"
COMPLEX = "complex"
MODES = (RATIONAL, GAUSSIAN, COMPLEX)


def parse_fraction(value: Any) -> Fraction:
    """Parse a rational from JSON form: "3/2", "-1", or an integer."""
    if isinstance(value, bool):
        raise ValueError("boolean is not a rational")
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value)
    raise ValueError(f"cannot parse rational from {value!r}")


def fraction_str(value: Fraction) -> str:
    return str(Fraction(value))


def parse_floor(value: Any) -> Union[Fraction, float]:
    if value in ("-inf", None):
        return NEG_INF
    return parse_fraction(value)


def floor_str(value: Union[Fraction, float]) -> str:
    if value == NEG_INF:
        return "-inf"
    return fraction_str(value)


def rational_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Positive generator of the group Z*a + Z*b inside Q."""
    from math import gcd

    a, b = abs(Fraction(a)), abs(Fraction(b))
    if a == 0:
        return b
    if b == 0:
        return a
    num = gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


class GaussianRational:
    """Element of Q(i) with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return _gaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return _gaussian(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return _gaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianRational":
        return _gaussian(-self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _gaussian(self.re / n, -self.im / n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaussianRational)
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __repr__(self) -> str:
        if self.im == 0:
            return f"{self.re}"
        return f"({self.re}+{self.im}i)"

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


def _gaussian(re: Fraction, im: Fraction) -> GaussianRational:
    # Arithmetic on Fraction parts already yields Fractions; skip the
    # constructor's coercion.
    out = object.__new__(GaussianRational)
    out.re = re
    out.im = im
    return out


Coefficient = Union[Fraction, GaussianRational, complex]


@dataclass(frozen=True)
class CoefficientField:
    """Arithmetic context shared by all scalars of one computation."""

    mode: str = RATIONAL
    eps: float = 0.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown coefficient mode {self.mode!r}")
        if self.mode == COMPLEX:
            if not self.eps > 0:
                raise ValueError("floating mode requires eps > 0")
        elif self.eps != 0:
            raise ValueError("exact modes admit no tolerance")

    @property
    def exact(self) -> bool:
        return self.mode != COMPLEX

    def check_compatible(self, other: "CoefficientField") -> None:
        if self != other:
            raise ValueError(
                f"incompatible coefficient fields: {self} vs {other}"
            )

    def zero(self) -> Coefficient:
        if self.mode == RATIONAL:
            return Fraction(0)
        if self.mode == GAUSSIAN:
            return GaussianRational(0, 0)
        return 0j

    def one(self) -> Coefficient:
        if self.mode == RATIONAL:
            return Fraction(1)
        if self.mode == GAUSSIAN:
            return GaussianRational(1, 0)
        return 1 + 0j

    def coerce(self, value: Any) -> Coefficient:
        """Bring an int/Fraction/GaussianRational/complex into this field."""
        if self.mode == RATIONAL:
            if isinstance(value, (int, Rational)):
                return Fraction(value)
            raise ValueError(f"{value!r} is not rational")
        if self.mode == GAUSSIAN:
            if isinstance(value, GaussianRational):
                return value
            if isinstance(value, (int, Rational)):
                return GaussianRational(value, 0)
            raise ValueError(f"{value!r} is not Gaussian rational")
        if isinstance(value, GaussianRational):
            return value.to_complex()
        if isinstance(value, (int, float, Rational)):
            return complex(float(value), 0.0)
        if isinstance(value, complex):
            return value
        raise ValueError(f"{value!r} is not a complex coefficient")

    def add(self, a: Coefficient, b: Coefficient) -> Coefficient:
        return a + b

    def mul(self, a: Coefficient, b: Coefficient) -> Coefficient:
        return a * b

    def neg(self, a: Coefficient) -> Coefficient:
        return -a

    def invert(self, a: Coefficient) -> Coefficient:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero coefficient")
        if self.mode == RATIONAL:
            return Fraction(1) / a
        if self.mode == GAUSSIAN:
            return a.inverse()
        return 1.0 / a

    def is_zero(self, a: Coefficient) -> bool:
        if self.mode == COMPLEX:
            return abs(a) < self.eps
        return not a

    def magnitude(self, a: Coefficient) -> float:
        """Float magnitude, used for pivot audits and numeric export."""
        if self.mode == RATIONAL:
            return abs(float(a))
        if self.mode == GAUSSIAN:
            return abs(a.to_complex())
        return abs(a)

    def as_complex(self, a: Coefficient) -> complex:
        if self.mode == RATIONAL:
            return complex(float(a), 0.0)
        if self.mode == GAUSSIAN:
            return a.to_complex()
        return a

    def coeff_to_json(self, a: Coefficient) -> Any:
        if self.mode == RATIONAL:
            return fraction_str(a)
        if self.mode == GAUSSIAN:
            return {"re": fraction_str(a.re), "im": fraction_str(a.im)}
        return {"re": a.real, "im": a.imag}

    def coeff_from_json(self, obj: Any) -> Coefficient:
        if self.mode == RATIONAL:
            return parse_fraction(obj)
        if self.mode == GAUSSIAN:
            if isinstance(obj, dict):
                return GaussianRational(
                    parse_fraction(obj.get("re", 0)),
                    parse_fraction(obj.get("im", 0)),
                )
            return GaussianRational(parse_fraction(obj), 0)
        if isinstance(obj, dict):
            return complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
        return complex(float(obj), 0.0)

    def to_json(self) -> dict:
        out = {"mode": self.mode}
        if self.mode == COMPLEX:
            out["eps"] = self.eps
        return out

    @staticmethod
    def from_json(obj: Any) -> "CoefficientField":
        if obj is None:
            return CoefficientField()
        if isinstance(obj, str):
            if obj == COMPLEX:
                return CoefficientField(COMPLEX, 1e-12)
            return CoefficientField(obj)
        mode = obj.get("mode", RATIONAL)
        if mode == COMPLEX:
            return CoefficientField(COMPLEX, float(obj.get("eps", 1e-12)))
        return CoefficientField(mode)


def gauss_jordan(
    rows: Sequence[Sequence[Any]],
    width: int,
    key: Callable[[Any], Optional[Any]],
    invert: Callable[[Any], Any],
) -> Tuple[List[list], List[Tuple[int, Any]], int]:
    """Gauss-Jordan elimination over any entries with ``*`` and ``-``.

    Reduces a copy of ``rows`` over their first ``width`` columns; later
    columns (right-hand sides, identity blocks) are carried along.  In each
    column the pivot is the first remaining row whose entry has the largest
    ``key``; ``key`` is None for an entry that counts as zero, and such an
    entry is never eliminated.  The pivot row is scaled to ``inv * x`` with
    ``inv = invert(pivot)``, and every other row becomes ``a - f * c``, where
    ``f`` is its entry in the pivot column and ``c`` the scaled pivot row.
    A column without a pivot is skipped.

    Returns ``(rows, pivots, sign)``: the reduced rows, the ``(column,
    pivot)`` pairs in order (pivots as found, before scaling), and the sign
    of the row permutation, so a square matrix has determinant ``sign``
    times the product of the pivots when every column has one, else 0.
    """
    rows = [list(row) for row in rows]
    pivots: List[Tuple[int, Any]] = []
    sign = 1
    top = 0
    for col in range(width):
        if top == len(rows):
            break
        keys = [key(row[col]) for row in rows]
        best = None
        for r in range(top, len(rows)):
            if keys[r] is not None and (best is None or keys[r] > keys[best]):
                best = r
        if best is None:
            continue
        if best != top:
            rows[top], rows[best] = rows[best], rows[top]
            keys[top], keys[best] = keys[best], keys[top]
            sign = -sign
        pivot = rows[top][col]
        inv = invert(pivot)
        prow = rows[top] = [inv * x for x in rows[top]]
        for r, row in enumerate(rows):
            if r != top and keys[r] is not None:
                f = row[col]
                rows[r] = [a - f * c for a, c in zip(row, prow)]
        pivots.append((col, pivot))
        top += 1
    return rows, pivots, sign


def determinant(pivots: List[Tuple[int, Any]], sign: int, n: int) -> Any:
    """Determinant of an n x n matrix from its ``gauss_jordan`` reduction."""
    return sign * math.prod(p for _, p in pivots) if len(pivots) == n else 0


def field_for_mode(mode: str, eps: float = 1e-12) -> CoefficientField:
    if mode == COMPLEX:
        return CoefficientField(COMPLEX, eps)
    return CoefficientField(mode)
