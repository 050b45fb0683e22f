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

Stored form.  A scalar keeps rows ``(e, re, im)`` on the exponent grid
q^{1/grid} over one denominator ``den``: the row is the term
((re + i*im) / den) q^{e/grid}, with int exponents e strictly
decreasing.  In the exact modes re and im are integer numerators (im is
0 in rational mode); in complex mode they are the coefficient's float
parts and den is 1.  The form is canonical: gcd(grid, every e) = 1, in
the exact modes also gcd(den, every re, every im) = 1, and zero has
grid = den = 1.  So an element has one stored form, which ``__eq__`` and
``__hash__`` compare; ``terms`` builds (Fraction exponent, coefficient)
pairs from it on access, for ``repr`` and tests.

Every operation runs on the rows: sums merge the two decreasing row lists
in one pass over the lcms of the grids and denominators, and products and
inverses run one row kernel accumulating ``re += a1*a2 - b1*b2`` and
``im += a1*b2 + b1*a2``.  On floats these are the IEEE operations that
complex ``*`` and ``+`` perform, in the same order up to commuted operands
(a factor of one row takes one pass), and a float coefficient is zero when
``abs(complex(re, im)) < eps``, as in the field; so complex results keep
their last bits, signed zeros included.  So do the reads: ``lead()``,
``magnitudes()``, ``isclose`` and the inverse's lead, which is
den*(a0 - i*b0)/(a0^2 + b0^2) over one gcd in the exact modes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import or_
from typing import Any, Iterable, Optional, Tuple, Union

from .fields import CoefficientField
from .records import (NEG_INF, _set, floor_str, fraction_str, parse_floor, parse_ratio,
                      ratio_str)

FloorValue = Union[Fraction, float]


def _floor(value) -> FloorValue:
    """A floor as stored: NEG_INF itself, tested by identity, or a Fraction."""
    if value is NEG_INF or type(value) is Fraction:
        return value
    return NEG_INF if value == NEG_INF else Fraction(value)


def _top(a: FloorValue, b: FloorValue) -> FloorValue:
    """max(a, b) of two stored floors on integers, a on a tie as ``max`` keeps it."""
    if b is NEG_INF or a is b:
        return a
    return b if a is NEG_INF or a.numerator * b.denominator < b.numerator * a.denominator else a


def _cut(floor: FloorValue, grid: int) -> Optional[int]:
    """The largest grid exponent at or below ``floor``, None for -inf: a
    row lies above the floor iff its exponent exceeds the cut."""
    if floor is NEG_INF:
        return None
    return floor.numerator * grid // floor.denominator


def _above(rows, cut: Optional[int]):
    """The rows, strictly decreasing, whose exponents exceed ``cut``."""
    if cut is not None:
        for i, row in enumerate(rows):
            if row[0] <= cut:
                return rows[:i]
    return rows


def _regrid(rows, factor: int, scale: int = 1):
    """The rows with their exponents on a grid ``factor`` times finer and
    their parts times ``scale``; a float times -1 is its exact negation."""
    if scale != 1:
        return [(e * factor, re * scale, im * scale) for e, re, im in rows]
    return rows if factor == 1 else [(e * factor, re, im) for e, re, im in rows]


def _nonzero(field: CoefficientField):
    """The field's nonzero test on the parts of a row."""
    if field.exact:
        return or_  # re | im is nonzero iff re or im is
    eps = field.eps  # |re + i*im| >= max(|re|, |im|), so a part at eps decides
    return lambda re, im: abs(re) >= eps or abs(im) >= eps or not abs(complex(re, im)) < eps


def _content(rows: list, den: int) -> tuple:
    """The rows over ``den`` with their common factor divided out."""
    if den == 1:
        return rows, den
    g = den
    for _, re, im in rows:
        g = gcd(g, re, im)
        if g == 1:
            return rows, den
    return [(e, re // g, im // g) for e, re, im in rows], den // g


def _scalar(field, floor, grid: int, den: int, rows, reduced=False, out=None) -> "NovikovScalar":
    """The scalar of ``rows`` over ``grid`` and ``den``, brought to canonical
    form unless ``reduced`` says it is; the rows are nonzero, above
    ``floor`` and strictly decreasing."""
    if not rows:
        grid = den = 1
    elif not reduced:
        g = grid
        for e, _, _ in rows:
            g = gcd(g, e)
            if g == 1:
                break
        else:
            grid //= g
            rows = [(e // g, re, im) for e, re, im in rows]
        rows, den = _content(rows, den)
    out = object.__new__(NovikovScalar) if out is None else out
    _set(out, "field", field)
    _set(out, "floor", floor)
    _set(out, "grid", grid)
    _set(out, "den", den)
    _set(out, "rows", tuple(rows))
    return out


def _merged(field: CoefficientField, parts: list, floor: FloorValue) -> tuple:
    """Floor, grid, denominator, rows and whether they are canonical, of terms
    given in any order as (exponent numerator, exponent denominator, re, im,
    den): equal exponents sum in order, and zero sums and those at or below
    the floor drop."""
    floor = _floor(floor)
    if len(parts) == 1:  # a monomial, the common case in documents: canonical at once
        num, grid, re, im, den = parts[0]
        if not _nonzero(field)(re, im) or (
                floor is not NEG_INF and num * floor.denominator <= floor.numerator * grid):
            return floor, 1, 1, (), True
        g = gcd(num, grid)
        rows, den = _content([(num // g, re, im)], den)
        return floor, grid // g, den, rows, True
    grid = lcm(*[p[1] for p in parts])
    den = lcm(*[p[4] for p in parts])
    merged: dict = {}
    for num, exp_den, re, im, coeff_den in parts:
        e = num * (grid // exp_den)
        if coeff_den != den:
            re, im = re * (den // coeff_den), im * (den // coeff_den)
        if e in merged:
            s = merged[e]
            s[0] += re
            s[1] += im
        else:
            merged[e] = [re, im]
    nonzero = _nonzero(field)
    rows = [(e, re, im) for e, (re, im) in merged.items() if nonzero(re, im)]
    rows.sort(reverse=True)
    return floor, grid, den, _above(rows, _cut(floor, grid)), False


def _by_term(rows, term: tuple, cut: Optional[int], nonzero) -> list:
    """``rows`` times the one row ``term``, above ``cut`` (None keeps all)."""
    e2, c, d = term
    out = []
    for e, a, b in rows:
        if cut is not None and e + e2 <= cut:
            break
        re, im = a * c - b * d, a * d + b * c
        if nonzero(re, im):
            out.append((e + e2, re, im))
    return out


def _row_product(left: list, right: list, cut: int, nonzero) -> list:
    """Product of two row lists above the grid exponent ``cut``.

    Both lists are rows (exponent, re, im) with strictly decreasing
    exponents; so is the result, which keeps the rows that pass
    ``nonzero``.  Its denominator is the product of the factors'.
    """
    if len(right) == 1:
        return _by_term(left, right[0], cut, nonzero)
    if len(left) == 1:  # commutes the addends of im, which IEEE addition allows
        return _by_term(right, left[0], cut, nonzero)
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


def _series_inverse(neg_u: list, u_cut: int, nonzero) -> list:
    """Rows of (1 + u)^{-1} = sum_k (-u)^k above the grid exponent ``u_cut``,
    for complex rows over denominator 1.  A series entry that sums to zero
    is dropped, so a later power starts it afresh."""
    power, series = [(0, 1, 0)], {0: [1, 0]}
    while power := _row_product(power, neg_u, u_cut, nonzero):
        for e, re, im in power:
            if e in series:
                s = series[e]
                s[0] += re
                s[1] += im
                if not nonzero(s[0], s[1]):
                    del series[e]
            else:
                series[e] = [re, im]
    return [(e, re, im) for e, (re, im) in sorted(series.items(), reverse=True)]


def _newton_inverse(t: list, t_den: int, u_cut: int) -> tuple:
    """Rows and denominator of (1 - t)^{-1} above the grid exponent ``u_cut``,
    for exact rows ``t`` below q^0 over ``t_den``, by Newton doubling
    s <- s + s*(1 - (1 - t)*s), each step cut where it doubles to
    (Brent & Kung, J. ACM 1978).  s is right above ``known``; the residual
    1 - (1 - t)*s then lies at or below it, so the two parts of s + s*r
    do not overlap."""
    one_minus_t = [(0, t_den, 0), *_regrid(t, 1, -1)]
    s, s_den = [(0, 1, 0)], 1
    known = t[0][0] if t else u_cut
    while known > u_cut:
        known = max(u_cut, 2 * known)
        d = t_den * s_den  # the q^0 row of (1 - t)*s, which r cancels
        r = _regrid(_row_product(one_minus_t, s, known, or_)[1:], 1, -1)
        s, s_den = _content(_regrid(s, 1, d) + _row_product(s, r, known, or_), s_den * d)
    return s, s_den


class NovikovScalar:
    """Finite truncated element of the Novikov field.

    Instances are immutable.  ``grid``, ``den`` and ``rows`` are the
    stored form described in the module docstring; ``floor`` is a Fraction
    or NEG_INF.  Coefficients are nonzero in the sense of the field (exact
    zero, or magnitude below eps in floating mode).
    """

    __slots__ = ("field", "floor", "grid", "den", "rows")

    def __init__(self, field: CoefficientField, terms: Iterable[Tuple[Any, Any]] = (),
                 floor: FloorValue = NEG_INF):
        pairs = [(Fraction(exp), field.parts(coeff)) for exp, coeff in terms]
        parts = [(exp.numerator, exp.denominator, *c) for exp, c in pairs]
        _scalar(field, *_merged(field, parts, floor), out=self)

    def __setattr__(self, name, value):
        raise AttributeError("NovikovScalar is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: CoefficientField, floor: FloorValue = NEG_INF):
        return _scalar(field, _floor(floor), 1, 1, ())

    @classmethod
    def one(cls, field: CoefficientField):
        return _scalar(field, NEG_INF, 1, 1, [(0, 1, 0) if field.exact else (0, 1.0, 0.0)])

    @classmethod
    def monomial(cls, field: CoefficientField, coeff, exp) -> "NovikovScalar":
        return cls(field, [(exp, coeff)])

    # -- basic queries -------------------------------------------------

    @property
    def terms(self) -> tuple:
        """(Fraction exponent, coefficient) pairs, exponents decreasing."""
        from_parts, grid, den = self.field.from_parts, self.grid, self.den
        return tuple((Fraction(e, grid), from_parts(re, im, den)) for e, re, im in self.rows)

    def is_zero(self) -> bool:
        """Zero as far as known, i.e. no terms above the floor."""
        return not self.rows

    def is_exact_zero(self) -> bool:
        return not self.rows and self.floor is NEG_INF

    def valuation(self) -> FloorValue:
        """Largest exponent carrying a nonzero coefficient; -inf for 0."""
        if not self.rows:
            return NEG_INF
        return Fraction(self.rows[0][0], self.grid)

    def lead(self) -> complex:
        """The leading coefficient as a complex float, read from the first row."""
        _, re, im = self.rows[0]
        return complex(re / self.den, im / self.den)

    def magnitudes(self) -> list:
        """Float magnitude of each coefficient."""
        den = self.den
        return [abs(complex(re / den, im / den)) for _, re, im in self.rows]

    def is_monomial(self) -> bool:
        return len(self.rows) == 1 and self.floor is NEG_INF

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "NovikovScalar") -> "NovikovScalar":
        return self._sum(other, False)

    def __sub__(self, other: "NovikovScalar") -> "NovikovScalar":
        return self._sum(other, True)

    def _sum(self, other: "NovikovScalar", negate: bool) -> "NovikovScalar":
        """self + other, or self - other: one merge of the decreasing row lists
        on the lcm grid over the lcm denominator, other's rows negated as they
        are rescaled.  Equal exponents add self's part first, as ``_merged`` does."""
        field = self.field
        if other.field is not field:
            field.check_compatible(other.field)
        floor = _top(self.floor, other.floor)
        grid, den = lcm(self.grid, other.grid), lcm(self.den, other.den)
        left = _regrid(self.rows, grid // self.grid, den // self.den)
        right = _regrid(other.rows, grid // other.grid, (-1 if negate else 1) * (den // other.den))
        nonzero, rows, j = _nonzero(field), [], 0
        for row in left:
            while j < len(right) and right[j][0] > row[0]:
                rows.append(right[j])
                j += 1
            if j < len(right) and right[j][0] == row[0]:
                row = (row[0], row[1] + right[j][1], row[2] + right[j][2])
                j += 1
                if not nonzero(row[1], row[2]):
                    continue
            rows.append(row)
        rows += right[j:]
        return _scalar(field, floor, grid, den, _above(rows, _cut(floor, grid)))

    def __neg__(self) -> "NovikovScalar":
        rows = _regrid(self.rows, 1, -1)
        return _scalar(self.field, self.floor, self.grid, self.den, rows, reduced=True)

    def __mul__(self, other: "NovikovScalar") -> "NovikovScalar":
        if other.field is not self.field:
            self.field.check_compatible(other.field)
        field = self.field
        # Unknown tails below either floor smear the product; the sharp
        # bound is max(floor_x + val(y), floor_y + val(x)), where a factor
        # that is zero down to its floor may still carry anything below it.
        floor = NEG_INF
        for x, y in ((self, other), (other, self)):
            f = x.floor
            if f is NEG_INF or (not y.rows and y.floor is NEG_INF):
                continue
            if not y.rows:
                f += y.floor
            elif e := y.rows[0][0]:  # f + val(y) on integers; a unit's val 0 adds nothing
                f = Fraction(f.numerator * y.grid + e * f.denominator, f.denominator * y.grid)
            floor = _top(floor, f)
        if not self.rows or not other.rows:
            return _scalar(field, floor, 1, 1, ())
        # Both row lists strictly decrease, so a row of the product ends at
        # the first sum at or below the floor.
        grid = lcm(self.grid, other.grid)
        left = _regrid(self.rows, grid // self.grid)
        right = _regrid(other.rows, grid // other.grid)
        cut = _cut(floor, grid)
        if cut is None:
            cut = left[-1][0] + right[-1][0] - 1
        rows = _row_product(left, right, cut, _nonzero(field))
        return _scalar(field, floor, grid, self.den * other.den, rows)

    def scale(self, coeff) -> "NovikovScalar":
        """Multiply by a bare coefficient of the field."""
        field = self.field
        (c, d, cden), nonzero = field.parts(coeff), _nonzero(field)
        if not nonzero(c, d):
            return _scalar(field, NEG_INF if self.is_exact_zero() else self.floor, 1, 1, ())
        rows = _by_term(self.rows, (0, c, d), None, nonzero)
        return _scalar(field, self.floor, self.grid, self.den * cden, rows)

    def shift(self, exp, floor: FloorValue = NEG_INF) -> "NovikovScalar":
        """Multiply by the monomial q^exp (exact in every mode), then forget
        what lies at or below ``floor``, as ``truncate`` does, in one pass."""
        exp = Fraction(exp)
        floor = _top(self.floor if self.floor is NEG_INF else self.floor + exp, _floor(floor))
        grid = lcm(self.grid, exp.denominator)
        step, s = grid // self.grid, exp.numerator * (grid // exp.denominator)
        rows = [(e * step + s, re, im) for e, re, im in self.rows]
        return _scalar(self.field, floor, grid, self.den, _above(rows, _cut(floor, grid)))

    def truncate(self, floor: FloorValue) -> "NovikovScalar":
        """Forget everything at or below the given floor."""
        floor = _top(self.floor, _floor(floor))
        return self if floor is self.floor else self.with_floor(floor)

    def with_floor(self, floor: FloorValue) -> "NovikovScalar":
        """The terms above ``floor``, with ``floor`` stated as the floor.
        Unlike ``truncate`` this may lower the floor: the caller asserts
        that nothing down to it is missing."""
        floor = _floor(floor)
        rows = _above(self.rows, _cut(floor, self.grid))
        kept = len(rows) == len(self.rows)  # still canonical
        return _scalar(self.field, floor, self.grid, self.den, rows, reduced=kept)

    # -- inversion ------------------------------------------------------

    def invert(self, floor: FloorValue = NEG_INF) -> "NovikovScalar":
        """Multiplicative inverse.

        A scalar a0 q^{w0} (1 + u) with v(u) < 0 has inverse
        a0^{-1} q^{-w0} sum (-u)^k.  The series is finite above any
        finite floor.  If the scalar is an exact sum with more than one
        term the caller must supply the output floor; an exact monomial
        inverts exactly.  With the scalar's own floor f finite, nothing
        below f - 2*w0 can be known about the inverse.  In complex mode an
        inverse lead below eps raises rather than vanish.

        The method is split by mode on purpose.  The exact modes take
        Newton doubling, O(log K) truncated products for K rows where the
        series takes K: the inverse of a finite row list is unique above
        the cut, so any exact method stores the same canonical rows.
        Complex mode sums the series, power by power, because Newton steps
        round differently and would change the last bits of its results.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of a scalar that is zero to its floor")
        field, grid = self.field, self.grid
        e0, a0, b0 = self.rows[0]
        # Nothing below f - 2*w0 is knowable: the tail enters at
        # relative order f - w0 and the inverse is scaled by q^{-w0}.
        implied = (self.floor if self.floor is NEG_INF or not e0
                   else self.floor - Fraction(2 * e0, grid))
        out_floor = _top(implied, _floor(floor))
        if field.exact:  # den / (a0 + i*b0), its content divided out
            re, im, inv_den = a0 * self.den, -b0 * self.den, a0 * a0 + b0 * b0
            g = gcd(re, im, inv_den)
            re, im, inv_den = re // g, im // g, inv_den // g
        else:
            inv = 1.0 / complex(a0, b0)
            re, im, inv_den = inv.real, inv.imag, 1
        if not _nonzero(field)(re, im):
            raise ValueError(f"inverse lead below eps {field.eps}")
        inv, cut = (-e0, re, im), _cut(out_floor, grid)
        if len(self.rows) == 1:
            return _scalar(field, out_floor, grid, inv_den, _above([inv], cut))
        if out_floor is NEG_INF:
            raise ValueError(
                "inverse of a multi-term exact scalar has infinite support; "
                "pass an explicit floor"
            )
        # x = a0 q^{w0} (1 + u), with -u over its own content
        nonzero, u_cut = _nonzero(field), cut + e0
        neg_u = _regrid(_row_product(self.rows[1:], [inv], u_cut, nonzero), 1, -1)
        neg_u, u_den = _content(neg_u, self.den * inv_den)
        if field.exact:
            rows, den = _newton_inverse(neg_u, u_den, u_cut)
        else:
            rows, den = _series_inverse(neg_u, u_cut, nonzero), 1
        rows = _row_product(rows, [inv], cut, nonzero)
        return _scalar(field, out_floor, grid, den * inv_den, rows)

    # -- comparisons and serialization ----------------------------------

    def _key(self) -> tuple:
        return self.field, self.floor, self.grid, self.den, self.rows

    def __eq__(self, other) -> bool:
        return isinstance(other, NovikovScalar) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def isclose(self, other: "NovikovScalar") -> bool:
        """Termwise closeness within 1e-9; exact modes compare exactly."""
        if self.field.exact:
            return self == other
        if (self.floor, self.grid, len(self.rows)) != (other.floor, other.grid, len(other.rows)):
            return False
        pairs = zip(self.rows, other.rows)
        return all(e1 == e2 and not abs(complex(a1 - a2, b1 - b2)) > 1e-9
                   for (e1, a1, b1), (e2, a2, b2) in pairs)

    def __repr__(self) -> str:
        parts = []
        for e, c in self.terms:
            c = fraction_str(c) if isinstance(c, Fraction) else repr(c)
            parts.append(c if e == 0 else f"{c}*q^({fraction_str(e)})")
        body = " + ".join(parts) or "0"
        return body if self.floor == NEG_INF else f"{body} [floor {floor_str(self.floor)}]"

    def terms_to_json(self) -> list:
        to_json, grid, den = self.field.parts_to_json, self.grid, self.den
        return [{"c": to_json(re, im, den), "exp": ratio_str(e, grid)} for e, re, im in self.rows]

    def to_json(self) -> dict:
        return {"terms": self.terms_to_json(), "floor": floor_str(self.floor)}

    @classmethod
    def terms_from_json(
        cls, field: CoefficientField, obj: list, floor: FloorValue = NEG_INF
    ) -> "NovikovScalar":
        parts = []
        for t in obj if isinstance(obj, list) else [None]:  # a non-list fails as a bad term
            if not (isinstance(t, dict) and "exp" in t and "c" in t):
                raise ValueError("scalar terms must be a list of {exp, c} objects")
            parts.append((*parse_ratio(t["exp"]), *field.parts_from_json(t["c"])))
        return _scalar(field, *_merged(field, parts, floor))

    @classmethod
    def from_json(cls, field: CoefficientField, obj: dict) -> "NovikovScalar":
        if not isinstance(obj, dict):
            raise ValueError("scalar must be an object with 'terms' and 'floor'")
        return cls.terms_from_json(
            field, obj.get("terms", []), parse_floor(obj.get("floor", "-inf"))
        )
