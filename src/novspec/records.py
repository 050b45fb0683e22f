"""Records, and the values of JSON documents: ``Record`` and ``Frozen``, the
schema version, ``SchemaError``, and the reading and writing of rationals,
floats and floors.  No coefficient arithmetic: ``toric validate`` reads
and writes its documents without loading ``novspec.fields``."""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Any, Callable, Tuple, Union

NEG_INF = float("-inf")
SCHEMA_VERSION = "1"  # of every JSON document novspec writes


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


def _long_int_str(n: int) -> str:
    """The decimal digits of ``n`` in pieces under 640 digits, the least limit
    on int-to-str conversion the interpreter allows; halving keeps it shallow."""
    if n < 0:
        return "-" + _long_int_str(-n)
    if n < 10**500:
        return int.__repr__(n)
    k = n.bit_length() * 3 // 20  # about half its digits, at log10(2) = 0.301 a bit
    high, low = divmod(n, 10**k)
    return _long_int_str(high) + _long_int_str(low).zfill(k)


def ratio_str(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for ints, ``den`` positive, or past the
    interpreter's limit on int-to-str conversion the same text with its
    integers written by ``_long_int_str``: every rational novspec writes
    leaves through here."""
    g = math.gcd(num, den)
    try:
        return f"{num // g}" if g == den else f"{num // g}/{den // g}"
    except ValueError:  # past sys.get_int_max_str_digits()
        text = _long_int_str(num // g)
        return text if g == den else f"{text}/{_long_int_str(den // g)}"


def fraction_str(q: Fraction) -> str:
    """``str(q)``, written by ``ratio_str``."""
    return ratio_str(q.numerator, q.denominator)


def parse_floor(value: Any) -> Union[Fraction, float]:
    if value in ("-inf", None):
        return NEG_INF
    return parse_fraction(value)


def floor_str(value: Union[Fraction, float]) -> str:
    return "-inf" if value == NEG_INF else fraction_str(value)


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
