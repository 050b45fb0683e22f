"""Scalars of the downward universal Novikov field.

A scalar is a finite sum sum_i a_i q^{w_i} with coefficients a_i in the
chosen field and strictly decreasing rational exponents w_i, together
with a truncation floor: every stored exponent lies strictly above the
floor, and nothing is known about the element below it.  A floor of
-inf means the scalar is an exact finite sum.

Downward convention throughout: the valuation v_q is the largest
exponent (sup), so v_q(0) = -inf, v_q(x*y) = v_q(x) + v_q(y) in exact
modes, and v_q(x+y) <= max(v_q(x), v_q(y)).

The subring {v_q(x) <= 0} (boundary included) plays the role of the
ring of integers; the convention here is that valuation exactly 0 lies
inside it.

Products and inverses run on one row kernel in every mode.  Exponents
map to the integer grid q^{1/D}, and each coefficient to its (real,
imaginary) parts: in the exact modes integer numerators over one common
denominator, the imaginary one 0 in rational mode, and in complex mode
the float parts over denominator 1.  A product accumulates
``re += a1*a2 - b1*b2`` and ``im += a1*b2 + b1*a2``, the geometric
series of an inverse keeps its powers in that form, and each result term
becomes a Fraction, GaussianRational or complex once, at the end.  On
floats these are the IEEE operations, in the same order, that complex
``*`` and ``+`` perform, so complex results keep their last bits.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Any, Iterable, Optional, Tuple, Union

from .fields import (
    COMPLEX,
    GAUSSIAN,
    NEG_INF,
    Coefficient,
    CoefficientField,
    GaussianRational,
    floor_str,
    fraction_str,
    parse_floor,
    parse_fraction,
)

Exponent = Fraction
FloorValue = Union[Fraction, float]


def _add_floors(a: FloorValue, b: FloorValue) -> FloorValue:
    # NEG_INF absorbs; used for floor propagation under products.
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    return a + b


def _above(terms, floor: FloorValue) -> tuple:
    """The terms of a strictly decreasing term list that lie above the floor."""
    if floor != NEG_INF:
        for i, (e, _) in enumerate(terms):
            if e <= floor:
                return tuple(terms[:i])
    return tuple(terms)


def _on_grid(value: Fraction, grid: int) -> int:
    """The numerator of ``value`` over ``grid``, a multiple of its denominator."""
    return value.numerator * (grid // value.denominator)


def _to_rows(field: CoefficientField, terms, grid: int) -> tuple:
    """Rows (exponent on the grid, real part, imaginary part) of the terms,
    returned with the denominator they share.  Exact coefficients become
    integer numerators over one common denominator, the imaginary one 0 in
    rational mode; complex ones keep their float parts over 1."""
    if field.mode == GAUSSIAN:
        den = lcm(*[x.denominator for _, c in terms for x in (c.re, c.im)])
        return [
            (_on_grid(e, grid), _on_grid(c.re, den), _on_grid(c.im, den)) for e, c in terms
        ], den
    if field.mode == COMPLEX:
        return [(_on_grid(e, grid), c.real, c.imag) for e, c in terms], 1
    den = lcm(*[c.denominator for _, c in terms])
    return [(_on_grid(e, grid), _on_grid(c, den), 0) for e, c in terms], den


def _from_rows(field: CoefficientField, rows, grid: int, den: int) -> tuple:
    """Terms of the rows over the denominator ``den``."""
    if field.mode == GAUSSIAN:
        return tuple(
            (Fraction(e, grid), GaussianRational(Fraction(re, den), Fraction(im, den)))
            for e, re, im in rows
        )
    if field.mode == COMPLEX:
        return tuple((Fraction(e, grid), complex(re, im)) for e, re, im in rows)
    return tuple((Fraction(e, grid), Fraction(re, den)) for e, re, _ in rows)


def _nonzero(field: CoefficientField):
    """The field's nonzero test on the parts of a row."""
    if field.exact:
        return lambda re, im: re or im
    is_zero = field.is_zero
    return lambda re, im: not is_zero(complex(re, im))


def _row_product(left: list, right: list, cut: int, nonzero) -> list:
    """Product of two row lists above the grid exponent ``cut``.

    Both lists are rows (exponent, re, im) with strictly decreasing
    exponents; so is the result, which keeps the rows that pass
    ``nonzero``.  Its denominator is the product of the factors'.
    """
    if not right:
        return []
    top = right[0][0]
    acc: dict = {}
    for e1, a1, b1 in left:
        if e1 + top <= cut:
            break
        for e2, a2, b2 in right:
            e = e1 + e2
            if e <= cut:
                break
            if e in acc:
                s = acc[e]
                s[0] += a1 * a2 - b1 * b2
                s[1] += a1 * b2 + b1 * a2
            else:
                acc[e] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
    return [(e, re, im) for e, (re, im) in sorted(acc.items(), reverse=True) if nonzero(re, im)]


def _series_inverse(
    field: CoefficientField, terms: tuple, inv_lead: tuple, floor: Fraction
) -> "NovikovScalar":
    """Inverse above ``floor`` of the scalar with these terms (at least
    two), as a0^{-1} q^{-w0} sum_k (-u)^k with u = (x - lead) / lead;
    ``inv_lead`` holds the term of a0^{-1} q^{-w0}, or none if it is zero.

    Runs in row form on one grid: the k-th power of -u stays over the
    k-th power of u's denominator, and the running series is rescaled to
    that denominator before the power is added.  A series entry that sums
    to zero is dropped, so a later power starts it afresh.
    """
    w0 = terms[0][0]
    grid = lcm(*(e.denominator for e, _ in terms), floor.denominator)
    nonzero = _nonzero(field)
    inv_rows, lead_den = _to_rows(field, inv_lead, grid)
    rest, rest_den = _to_rows(field, terms[1:], grid)
    cut = _on_grid(floor + w0, grid)
    neg_u = [(e, -re, -im) for e, re, im in _row_product(rest, inv_rows, cut, nonzero)]
    den = rest_den * lead_den
    power = [(0, 1, 0)]
    series = {0: [1, 0]}
    series_den = 1
    while True:
        power = _row_product(power, neg_u, cut, nonzero)
        if not power:
            break
        series_den *= den
        for s in series.values():
            s[0] *= den
            s[1] *= den
        for e, re, im in power:
            if e in series:
                s = series[e]
                s[0] += re
                s[1] += im
                if not nonzero(s[0], s[1]):
                    del series[e]
            else:
                series[e] = [re, im]
    rows = [(e, re, im) for e, (re, im) in sorted(series.items(), reverse=True)]
    rows = _row_product(rows, inv_rows, _on_grid(floor, grid), nonzero)
    return NovikovScalar._make(
        field, _from_rows(field, rows, grid, series_den * lead_den), floor
    )


class NovikovScalar:
    """Finite truncated element of the Novikov field.

    Instances are treated as immutable.  ``terms`` is a tuple of
    (exponent, coefficient) pairs with exponents strictly decreasing
    and strictly above ``floor``; coefficients are nonzero in the sense
    of the field (exact zero, or magnitude below eps in floating mode).
    """

    __slots__ = ("field", "terms", "floor")

    def __init__(
        self,
        field: CoefficientField,
        terms: Iterable[Tuple[Any, Any]] = (),
        floor: FloorValue = NEG_INF,
    ):
        merged: dict = {}
        for exp, coeff in terms:
            exp = Fraction(exp)
            coeff = field.coerce(coeff)
            if exp in merged:
                merged[exp] = field.add(merged[exp], coeff)
            else:
                merged[exp] = coeff
        if floor != NEG_INF:
            floor = Fraction(floor)
        kept = [
            (exp, coeff)
            for exp, coeff in merged.items()
            if exp > floor and not field.is_zero(coeff)
        ]
        kept.sort(key=lambda t: t[0], reverse=True)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", tuple(kept))
        object.__setattr__(self, "floor", floor)

    def __setattr__(self, name, value):
        raise AttributeError("NovikovScalar is immutable")

    @classmethod
    def _make(cls, field: CoefficientField, terms: tuple, floor: FloorValue):
        """Trusted constructor: ``terms`` are already field coefficients,
        nonzero, above ``floor`` and sorted by strictly decreasing Fraction
        exponent; ``floor`` is a Fraction or NEG_INF."""
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "floor", floor)
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: CoefficientField, floor: FloorValue = NEG_INF):
        return cls(field, (), floor)

    @classmethod
    def one(cls, field: CoefficientField):
        return cls(field, [(Fraction(0), field.one())])

    @classmethod
    def monomial(cls, field: CoefficientField, coeff, exp) -> "NovikovScalar":
        return cls(field, [(Fraction(exp), coeff)])

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        """Zero as far as known, i.e. no terms above the floor."""
        return not self.terms

    def is_exact_zero(self) -> bool:
        return not self.terms and self.floor == NEG_INF

    def valuation(self) -> FloorValue:
        """Largest exponent carrying a nonzero coefficient; -inf for 0."""
        if not self.terms:
            return NEG_INF
        return self.terms[0][0]

    def _bound(self) -> FloorValue:
        """Exponent that every term of the true element lies at or below:
        the valuation, or the floor when nothing is known above it."""
        return self.terms[0][0] if self.terms else self.floor

    def leading_coefficient(self) -> Coefficient:
        if not self.terms:
            raise ValueError("zero scalar has no leading coefficient")
        return self.terms[0][1]

    def is_monomial(self) -> bool:
        return len(self.terms) == 1 and self.floor == NEG_INF

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "NovikovScalar") -> "NovikovScalar":
        self.field.check_compatible(other.field)
        field = self.field
        floor = max(self.floor, other.floor)
        # Merge the two decreasing term lists down to the floor.
        a, b = self.terms, other.terms
        i = j = 0
        out = []
        while i < len(a) and j < len(b):
            ea, eb = a[i][0], b[j][0]
            if ea > eb:
                out.append(a[i])
                i += 1
            elif eb > ea:
                out.append(b[j])
                j += 1
            else:
                c = field.add(a[i][1], b[j][1])
                if not field.is_zero(c):
                    out.append((ea, c))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return NovikovScalar._make(field, _above(out, floor), floor)

    def __sub__(self, other: "NovikovScalar") -> "NovikovScalar":
        return self + (-other)

    def __neg__(self) -> "NovikovScalar":
        neg = self.field.neg
        return NovikovScalar._make(
            self.field, tuple((e, neg(c)) for e, c in self.terms), self.floor
        )

    def __mul__(self, other: "NovikovScalar") -> "NovikovScalar":
        self.field.check_compatible(other.field)
        field = self.field
        # Unknown tails below either floor smear the product; the sharp
        # bound is max(floor_x + val(y), floor_y + val(x)), where a factor
        # that is zero down to its floor may still carry anything below it.
        floor = max(
            _add_floors(self.floor, other._bound()),
            _add_floors(other.floor, self._bound()),
        )
        if not self.terms or not other.terms:
            return NovikovScalar._make(field, (), floor)
        # Work on the integer grid q^{1/D}: exponents become ints, and since
        # both term lists strictly decrease, a row ends at the first sum at
        # or below the floor.
        dens = {e.denominator for e, _ in self.terms}
        dens.update(e.denominator for e, _ in other.terms)
        if floor != NEG_INF:
            dens.add(floor.denominator)
        grid = lcm(*dens)
        if floor == NEG_INF:
            cut = _on_grid(self.terms[-1][0], grid) + _on_grid(other.terms[-1][0], grid) - 1
        else:
            cut = _on_grid(floor, grid)
        left, left_den = _to_rows(field, self.terms, grid)
        right, right_den = _to_rows(field, other.terms, grid)
        rows = _row_product(left, right, cut, _nonzero(field))
        return NovikovScalar._make(
            field, _from_rows(field, rows, grid, left_den * right_den), floor
        )

    def scale(self, coeff) -> "NovikovScalar":
        """Multiply by a bare coefficient of the field."""
        coeff = self.field.coerce(coeff)
        if self.field.is_zero(coeff):
            return NovikovScalar.zero(self.field, NEG_INF if self.is_exact_zero() else self.floor)
        mul, is_zero = self.field.mul, self.field.is_zero
        products = ((e, mul(c, coeff)) for e, c in self.terms)
        return NovikovScalar._make(
            self.field, tuple(t for t in products if not is_zero(t[1])), self.floor
        )

    def shift(self, exp) -> "NovikovScalar":
        """Multiply by the monomial q^exp (exact in every mode)."""
        exp = Fraction(exp)
        floor = self.floor if self.floor == NEG_INF else self.floor + exp
        return NovikovScalar._make(
            self.field, tuple((e + exp, c) for e, c in self.terms), floor
        )

    def truncate(self, floor: FloorValue) -> "NovikovScalar":
        """Forget everything at or below the given floor."""
        if floor == NEG_INF:
            floor = NEG_INF
        else:
            floor = Fraction(floor)
        new_floor = max(self.floor, floor)
        return NovikovScalar._make(self.field, _above(self.terms, new_floor), new_floor)

    # -- inversion ------------------------------------------------------

    def invert(self, floor: Optional[FloorValue] = None) -> "NovikovScalar":
        """Multiplicative inverse.

        A scalar a0 q^{w0} (1 + u) with v(u) < 0 has inverse
        a0^{-1} q^{-w0} sum (-u)^k.  The series is finite above any
        finite floor.  If the scalar is an exact sum with more than one
        term the caller must supply the output floor; an exact monomial
        inverts exactly.  With the scalar's own floor f finite, nothing
        below f - 2*w0 can be known about the inverse.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of a scalar that is zero to its floor")
        field = self.field
        w0, a0 = self.terms[0]
        # Nothing below f - 2*w0 is knowable: the tail enters at
        # relative order f - w0 and the inverse is scaled by q^{-w0}.
        if self.floor == NEG_INF:
            implied = NEG_INF
        else:
            implied = self.floor - 2 * w0
        requested = NEG_INF if floor is None else Fraction(floor)
        out_floor = max(implied, requested)
        inv_lead = NovikovScalar.monomial(field, field.invert(a0), -w0)
        if len(self.terms) == 1:
            return NovikovScalar(field, inv_lead.terms, out_floor)
        if out_floor == NEG_INF:
            raise ValueError(
                "inverse of a multi-term exact scalar has infinite support; "
                "pass an explicit floor"
            )
        return _series_inverse(field, self.terms, inv_lead.terms, out_floor)

    # -- comparisons and serialization ----------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NovikovScalar)
            and self.field == other.field
            and self.floor == other.floor
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.floor, self.terms))

    def isclose(self, other: "NovikovScalar", tol: float = 1e-9) -> bool:
        """Termwise closeness; exact modes compare exactly."""
        if self.field.exact:
            return self == other
        if self.floor != other.floor or len(self.terms) != len(other.terms):
            return False
        for (e1, c1), (e2, c2) in zip(self.terms, other.terms):
            if e1 != e2 or abs(c1 - c2) > tol:
                return False
        return True

    def __repr__(self) -> str:
        if not self.terms:
            body = "0"
        else:
            parts = []
            for e, c in self.terms:
                if e == 0:
                    parts.append(f"{c!r}" if self.field.mode == "complex" else f"{c}")
                else:
                    parts.append(f"{c}*q^({e})")
            body = " + ".join(parts)
        if self.floor == NEG_INF:
            return body
        return f"{body} [floor {self.floor}]"

    def terms_to_json(self) -> list:
        return [
            {"c": self.field.coeff_to_json(c), "exp": fraction_str(e)}
            for e, c in self.terms
        ]

    def to_json(self) -> dict:
        return {"terms": self.terms_to_json(), "floor": floor_str(self.floor)}

    @classmethod
    def terms_from_json(
        cls, field: CoefficientField, obj: list, floor: FloorValue = NEG_INF
    ) -> "NovikovScalar":
        if not isinstance(obj, list) or not all(
            isinstance(t, dict) and "exp" in t and "c" in t for t in obj
        ):
            raise ValueError("scalar terms must be a list of {exp, c} objects")
        terms = [
            (parse_fraction(t["exp"]), field.coeff_from_json(t["c"]))
            for t in obj
        ]
        return cls(field, terms, floor)

    @classmethod
    def from_json(cls, field: CoefficientField, obj: dict) -> "NovikovScalar":
        if not isinstance(obj, dict):
            raise ValueError("scalar must be an object with 'terms' and 'floor'")
        return cls.terms_from_json(
            field, obj.get("terms", []), parse_floor(obj.get("floor", "-inf"))
        )
