"""Coefficient fields for Novikov scalars.

Three modes are supported:

* ``rational``: exact arithmetic in Q via fractions.Fraction,
* ``gaussian``: exact arithmetic in Q(i),
* ``complex``: floating complex arithmetic with an explicit tolerance
  ``eps``; magnitudes below eps are treated as zero.

Exact modes admit no tolerance (eps must be 0); the floating mode
requires eps > 0.  Mixing scalars from incompatible fields is an error.

A ``CoefficientField`` converts coefficients between their value form
(Fraction, GaussianRational or complex), the row parts ``(re, im, den)``
that ``NovikovScalar`` computes on, and JSON; the arithmetic itself runs
on the row parts, in ``novspec.novikov``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Any, Union

from .records import Frozen, _set, fraction_str, parse_ratio, ratio_str, to_float

RATIONAL = "rational"
GAUSSIAN = "gaussian"
COMPLEX = "complex"
MODES = (RATIONAL, GAUSSIAN, COMPLEX)


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
            return fraction_str(self.re)
        return f"({fraction_str(self.re)}+{fraction_str(self.im)}i)"

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    __complex__ = to_complex


def _gaussian(re: Fraction, im: Fraction) -> GaussianRational:
    # Arithmetic on Fraction parts already yields Fractions; skip the
    # constructor's coercion.
    out = object.__new__(GaussianRational)
    out.re = re
    out.im = im
    return out


Coefficient = Union[Fraction, GaussianRational, complex]


class CoefficientField(Frozen):
    """Arithmetic context shared by all scalars of one computation."""

    __slots__ = ("mode", "eps")

    def __init__(self, mode: str = RATIONAL, eps: float = 0.0):
        if mode not in MODES:
            raise ValueError(f"unknown coefficient mode {mode!r}")
        if mode == COMPLEX:
            if not eps > 0:
                raise ValueError("floating mode requires eps > 0")
        elif eps != 0:
            raise ValueError("exact modes admit no tolerance")
        _set(self, "mode", mode)
        _set(self, "eps", eps)

    @property
    def exact(self) -> bool:
        return self.mode != COMPLEX

    def check_compatible(self, other: "CoefficientField") -> None:
        if self != other:
            raise ValueError(
                f"incompatible coefficient fields: {self} vs {other}"
            )

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

    def mul(self, a: Coefficient, b: Coefficient) -> Coefficient:
        return a * b

    def is_zero(self, a: Coefficient) -> bool:
        if self.mode == COMPLEX:
            return abs(a) < self.eps
        return not a

    def to_parts(self, a: Coefficient) -> tuple:
        """``(re, im, den)`` with ``a == (re + i*im) / den``: integer
        numerators over their least positive denominator in the exact modes
        (im is 0 in rational mode), the float parts over 1 in complex mode."""
        if self.mode == RATIONAL:
            return a.numerator, 0, a.denominator
        if self.mode == GAUSSIAN:
            re, im = a.re, a.im
            den = math.lcm(re.denominator, im.denominator)
            return (re.numerator * (den // re.denominator),
                    im.numerator * (den // im.denominator), den)
        return a.real, a.imag, 1

    def from_parts(self, re, im, den: int) -> Coefficient:
        """The coefficient ``(re + i*im) / den`` of ``to_parts`` form."""
        if self.mode == RATIONAL:
            return Fraction(re, den)
        if self.mode == GAUSSIAN:
            return _gaussian(Fraction(re, den), Fraction(im, den))
        return complex(re, im)

    def parts_to_json(self, re, im, den: int) -> Any:
        """JSON form of the coefficient ``(re + i*im) / den``: a reduced
        rational string, ``{"re", "im"}`` strings, or ``{"re", "im"}`` floats
        in complex mode."""
        if self.mode == RATIONAL:
            return ratio_str(re, den)
        if self.mode == GAUSSIAN:
            return {"re": ratio_str(re, den), "im": ratio_str(im, den)}
        return {"re": re, "im": im}

    def parts_from_json(self, obj: Any) -> tuple:
        """``(re, im, den)`` of a coefficient in JSON form, as ``to_parts``
        gives them except that ``den`` need not be least."""
        if self.mode == COMPLEX:
            if isinstance(obj, dict):
                return to_float(obj.get("re", 0.0)), to_float(obj.get("im", 0.0)), 1
            return to_float(obj), 0.0, 1
        if self.mode == GAUSSIAN and isinstance(obj, dict):
            a, b = parse_ratio(obj.get("re", 0))
            c, d = parse_ratio(obj.get("im", 0))
            return a * d, c * b, b * d
        num, den = parse_ratio(obj)
        return num, 0, den

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
        if not isinstance(obj, dict):
            raise ValueError("field must be a mode name or an object")
        mode = obj.get("mode", RATIONAL)
        if mode == COMPLEX:
            return CoefficientField(COMPLEX, to_float(obj.get("eps", 1e-12)))
        return CoefficientField(mode)


def field_for_mode(mode: str, eps: float = 1e-12) -> CoefficientField:
    if mode == COMPLEX:
        return CoefficientField(COMPLEX, eps)
    return CoefficientField(mode)
