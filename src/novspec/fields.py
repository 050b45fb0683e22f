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
from fractions import Fraction
from numbers import Rational
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

NEG_INF = float("-inf")
SCHEMA_VERSION = "1"  # of every JSON document novspec writes

RATIONAL = "rational"
GAUSSIAN = "gaussian"
COMPLEX = "complex"
MODES = (RATIONAL, GAUSSIAN, COMPLEX)


class SchemaError(Exception):
    """Malformed input document (wrong shape, missing keys, bad kinds)."""


def parse_or_schema_error(fn: Callable, what: str):
    """Run a document-parsing callable; translate failures to schema errors."""
    try:
        return fn()
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def parse_ratio(value: Any) -> Tuple[int, int]:
    """Parse a rational from JSON form: "3/2", "-1", or an integer, into a
    numerator and a positive denominator.

    A string of the form ``-?digits(/digits)?`` in ASCII digits with a
    nonzero denominator, the form every document novspec writes uses, is
    read with ``int()`` as written, so "2/4" gives (2, 4).  Anything else
    (decimals such as "0.5", a "+" sign, "_" separators, surrounding
    whitespace, non-ASCII digits, a zero denominator, ints and other
    rationals) goes through ``Fraction`` and comes back reduced, so the
    accepted inputs, the values and the error messages are those of
    ``Fraction(value)``, except that a zero denominator raises
    ``ValueError``.
    """
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if (digits.isascii() and digits.isdigit()
                and (not slash or den.isascii() and den.isdigit())):
            n, d = int(num), int(den) if slash else 1
            if d:
                return n, d
    if isinstance(value, bool):
        raise ValueError("boolean is not a rational")
    if isinstance(value, (int, str)):
        try:
            value = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    elif isinstance(value, Rational):
        value = Fraction(value)
    else:
        raise ValueError(f"cannot parse rational from {value!r}")
    return value.numerator, value.denominator


def to_float(value: Any) -> float:
    """``float(value)``, finite: a NaN, or a number beyond float range (an
    infinity, a string such as "1e400" that ``float`` reads as one, a huge
    int), is a ValueError naming it; so is a boolean, which ``float`` would
    read as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError("boolean is not a number")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if math.isnan(out):
        raise ValueError(f"{value} is not a number")
    if math.isinf(out):
        raise ValueError(f"{value} is beyond float range")
    return out


def parse_fraction(value: Any) -> Fraction:
    """The Fraction ``parse_ratio`` reads."""
    return Fraction(*parse_ratio(value))


def ratio_str(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for ints, ``den`` positive."""
    g = math.gcd(num, den)
    return f"{num // g}" if g == den else f"{num // g}/{den // g}"


def parse_floor(value: Any) -> Union[Fraction, float]:
    if value in ("-inf", None):
        return NEG_INF
    return parse_fraction(value)


def floor_str(value: Union[Fraction, float]) -> str:
    if value == NEG_INF:
        return "-inf"
    return str(value)


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

    __complex__ = to_complex


def _gaussian(re: Fraction, im: Fraction) -> GaussianRational:
    # Arithmetic on Fraction parts already yields Fractions; skip the
    # constructor's coercion.
    out = object.__new__(GaussianRational)
    out.re = re
    out.im = im
    return out


Coefficient = Union[Fraction, GaussianRational, complex]


_set = object.__setattr__


class Record:
    """A record whose fields are its ``__slots__``: built from them in slot
    order, by position or by name, by this one initializer (a missing,
    unexpected, repeated or extra field is a TypeError); equal to a record
    of its own class with equal fields; unhashable; printed as
    ``Name(field=value, ...)``.  Six records keep their own initializer:
    ``CoefficientField``, ``MomentPolytope``, ``SpectralOracle`` and
    ``Echelon`` check or derive fields, ``PeriodLattice`` has a default and
    ``OrbitGenerator`` is built in the homology loops."""

    __slots__ = ()
    __hash__ = None

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        rest = names[len(args):]
        if len(args) + len(kwargs) != len(names) or not kwargs.keys() <= set(rest):
            raise TypeError(f"{type(self).__name__}() takes the fields {names}, by position "
                            f"or by name: got {len(args)} by position and {list(kwargs)} by name")
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in rest:
            _set(self, name, kwargs[name])

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"


class Frozen(Record):
    """A hashable record, its fields set once, by ``_set`` in ``__init__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


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


def gauss_jordan(
    rows: Sequence[Sequence[Any]],
    width: int,
    key: Callable[[Any], Optional[Any]],
    invert: Callable[[Any], Any],
) -> Tuple[List[list], List[Tuple[int, Any]], int]:
    """Gauss-Jordan elimination over inexact entries with ``*`` and ``-``:
    Novikov scalars and complex floats.  Exact integer matrices go through
    the fraction-free ``polytope._reduce`` instead.

    Reduces a copy of ``rows`` over their first ``width`` columns; later
    columns (right-hand sides, identity blocks) are carried along.  In each
    column the pivot is the first remaining row whose entry has the largest
    ``key``; ``key`` is None for an entry that counts as zero, and such an
    entry is never eliminated.  Right of the pivot column, the pivot row is
    scaled to ``inv * x`` with ``inv = invert(pivot)``, and every other row
    becomes ``a - f * c``, where ``f`` is its entry in the pivot column and
    ``c`` the scaled pivot row.  A column without a pivot is skipped.
    Each column's update reads only that column and the pivot column, so
    the first ``width`` columns are left unreduced, while the pivots and
    the carried columns come out as a full reduction gives them, to the
    bit.

    Returns ``(rows, pivots, sign)``: the rows, the ``(column, pivot)``
    pairs in order (pivots as found, before scaling), and the sign of the
    row permutation, so a square matrix has determinant ``sign`` times the
    product of the pivots when every column has one, else 0.
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
        tail = rows[top][col + 1:] = [inv * x for x in rows[top][col + 1:]]
        for r, row in enumerate(rows):
            if r != top and keys[r] is not None:
                f = row[col]
                row[col + 1:] = [a - f * c for a, c in zip(row[col + 1:], tail)]
        pivots.append((col, pivot))
        top += 1
    return rows, pivots, sign


def field_for_mode(mode: str, eps: float = 1e-12) -> CoefficientField:
    if mode == COMPLEX:
        return CoefficientField(COMPLEX, eps)
    return CoefficientField(mode)
