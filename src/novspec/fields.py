"""Coefficient fields for Novikov scalars.

Three modes are supported:

* ``rational``: exact arithmetic in Q via fractions.Fraction,
* ``gaussian``: exact arithmetic in Q(i),
* ``complex``: floating complex arithmetic with an explicit tolerance
  ``eps``; magnitudes below eps are treated as zero.

Exact modes admit no tolerance (eps must be 0); the floating mode
requires eps > 0.  Mixing scalars from incompatible fields is an error.

A ``CoefficientField`` converts coefficients; the arithmetic itself runs
on the row parts ``(re, im, den)`` of ``novspec.novikov``.  A value (int,
Fraction, GaussianRational, float or complex) enters through ``parts``,
the one map to row parts; ``from_parts`` gives the value form back, for
``NovikovScalar.terms`` and ``repr``; ``parts_to_json`` and
``parts_from_json`` write and read the JSON form.  ``mul`` is called by no
command and stays only for the benchmark's counter, which wraps it.
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

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


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

    def parts(self, value: Any) -> tuple:
        """``(re, im, den)`` of an int, Fraction, GaussianRational, float or
        complex, with ``value == (re + i*im) / den``: integer numerators over
        their least positive denominator in the exact modes (im is 0 in
        rational mode), the float parts over 1 in complex mode, where a
        rational past float range is a ValueError naming it."""
        mode = self.mode
        if isinstance(value, GaussianRational):
            re, im = value.re, value.im
            if mode == GAUSSIAN:
                den = math.lcm(re.denominator, im.denominator)
                return (re.numerator * (den // re.denominator),
                        im.numerator * (den // im.denominator), den)
            if mode == COMPLEX:
                return to_float(re), to_float(im), 1
        elif isinstance(value, int):
            value = int(value)  # a bool as 0 or 1
            return (to_float(value), 0.0, 1) if mode == COMPLEX else (value, 0, 1)
        elif isinstance(value, Rational):
            if mode == COMPLEX:
                return to_float(value), 0.0, 1
            value = Fraction(value)
            return value.numerator, 0, value.denominator
        elif mode == COMPLEX and isinstance(value, (float, complex)):
            return value.real, value.imag, 1
        kind = {RATIONAL: "rational", GAUSSIAN: "Gaussian rational",
                COMPLEX: "a complex coefficient"}[mode]
        raise ValueError(f"{value!r} is not {kind}")

    def mul(self, a: Coefficient, b: Coefficient) -> Coefficient:
        return a * b

    def from_parts(self, re, im, den: int) -> Coefficient:
        """The coefficient ``(re + i*im) / den`` of ``parts`` form."""
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
        """``(re, im, den)`` of a coefficient in JSON form, as ``parts``
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
