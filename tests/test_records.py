"""Records: equality, hashing, repr and immutability, every report's
fields through its constructor and its JSON, and the writer of rationals.

Records are plain ``__slots__`` classes (``novspec.records.Record`` and
``records.Frozen``).  They compare, hash and print as the standard library's
generated records do: equal only to a record of the same class with
equal fields, hashable only when frozen, printed ``Name(field=value, ...)``.
``Record.__init__`` refuses the calls a written signature would.
"""

import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novspec.complexes import OrbitGenerator, PeriodLattice, validate_complex
from novspec.critical import LeadingReport, LeadingRoot, certify_heavy, critical_points_leading, scan_fibers
from novspec.fields import CoefficientField, GaussianRational
from novspec.novikov import NovikovScalar
from novspec.polytope import Facet, MomentPolytope, polytope_validate, segment
from novspec.potential import ComponentStratum, PotentialFunction, PotentialTerm
from novspec.quasistate import SpectralOracle, heaviness_check, homogenize
from novspec.records import fraction_str, ratio_str
from novspec.spectral import spectral_number, spectrum

from test_spectral import hand_case

QQ = CoefficientField("rational")
CC = CoefficientField("complex", 1e-12)
CP1 = segment(0, 1)

# A record of each hashed (frozen) class that something compares, hashes
# or prints, one that differs from it in a field, and its repr.
FROZEN = [
    (CC, QQ, "CoefficientField(mode='complex', eps=1e-12)"),
    (PeriodLattice((Fraction(1, 2),)), PeriodLattice(),
     "PeriodLattice(periods=(Fraction(1, 2),))"),
    (OrbitGenerator("a", Fraction(1, 2), 1), OrbitGenerator("a", Fraction(1, 2), 0),
     "OrbitGenerator(id='a', action=Fraction(1, 2), degree=1)"),
    (Facet((1, 0), Fraction(-1)), Facet((0, 1), Fraction(-1)),
     "Facet(normal=(1, 0), offset=Fraction(-1, 1))"),
    (LeadingRoot((-1 + 0j,), (GaussianRational(-1),)), LeadingRoot((-1 + 0j,), None),
     "LeadingRoot(values=((-1+0j),), exact=(-1,))"),
    (PotentialTerm(1, (-1, 0), Fraction(-1, 2)), PotentialTerm(0, (-1, 0), Fraction(-1, 2)),
     "PotentialTerm(facet=1, exponent=(-1, 0), weight=Fraction(-1, 2))"),
    (ComponentStratum(0, Fraction(-1, 2), (0, 1)), ComponentStratum(0, Fraction(-1, 2), (0,)),
     "ComponentStratum(component=0, weight=Fraction(-1, 2), facets=(0, 1))"),
]


def _rebuilt(record):
    """A record of the same class from the record's fields, by keyword."""
    return type(record)(**{name: getattr(record, name) for name in record.__slots__})


@pytest.mark.parametrize("record, other, text", FROZEN,
                         ids=[type(r).__name__ for r, _, _ in FROZEN])
class TestFrozen:
    def test_equal_records_hash_alike(self, record, other, text):
        twin = _rebuilt(record)
        assert twin == record and not twin != record and twin is not record
        assert hash(twin) == hash(record) == hash(record._fields())
        assert len({record, twin}) == 1

    def test_other_fields_and_classes_differ(self, record, other, text):
        assert other != record and len({record, other}) == 2
        # a tuple of the same fields is not the record
        assert record != record._fields() and record != object()

    def test_repr(self, record, other, text):
        assert repr(record) == text

    def test_immutable(self, record, other, text):
        for name in record.__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None


def _wrong_calls(names):
    """Calls a written signature over ``names`` refuses, each with as many
    fields as it takes but for the missing and the extra one."""
    n = len(names)
    return {
        "missing": ((None,) * (n - 1), {}),
        "unexpected": ((None,) * (n - 1), {"colour": None}),
        "repeated": ((None,), {name: None for name in names[:1] + names[2:]}),
        "extra": ((None,) * (n + 1), {}),
    }


@pytest.mark.parametrize("cls", [LeadingReport, Facet], ids=lambda c: c.__name__)
@pytest.mark.parametrize("call", ["missing", "unexpected", "repeated", "extra"])
def test_initializer_refuses_a_wrong_field(cls, call):
    args, kwargs = _wrong_calls(cls.__slots__)[call]
    with pytest.raises(TypeError, match=re.escape(f"{cls.__name__}() takes the fields")):
        cls(*args, **kwargs)


def test_incompatible_fields_message_prints_both_fields():
    message = ("incompatible coefficient fields: CoefficientField(mode='rational', eps=0.0) "
               "vs CoefficientField(mode='complex', eps=1e-12)")
    with pytest.raises(ValueError, match=re.escape(message)):
        NovikovScalar.one(QQ) + NovikovScalar.one(CC)


def test_field_checks_keep_their_messages():
    with pytest.raises(ValueError, match="unknown coefficient mode 'real'"):
        CoefficientField("real")
    with pytest.raises(ValueError, match="floating mode requires eps > 0"):
        CoefficientField("complex")
    with pytest.raises(ValueError, match="exact modes admit no tolerance"):
        CoefficientField("gaussian", 1e-9)
    with pytest.raises(ValueError, match="facet normal length does not match dimension"):
        MomentPolytope(2, (Facet((1,), Fraction(0)),))


@pytest.mark.parametrize("record", [r for r, _, _ in FROZEN[:4]] + [CP1],
                         ids=lambda r: type(r).__name__)
def test_json_round_trip(record):
    doc = json.loads(json.dumps(record.to_json()))
    assert type(record).from_json(doc) == record


def _reports():
    cx = hand_case()
    w = PotentialFunction(CP1, "1/2")
    fiber = certify_heavy(w, "-2", QQ)
    samples = [(1, Fraction(-1, 2)), (2, Fraction(-1))]
    family = {"subset": "Y", "functions": [{"name": "H", "zeta": "1/2", "sup": "1"}]}
    return [
        polytope_validate(CP1),
        critical_points_leading(w),
        fiber,
        fiber.branes[0],
        scan_fibers(CP1, "1/4", "-2", QQ),
        validate_complex(cx),
        spectrum(cx),
        spectral_number(cx, {"a1": NovikovScalar.one(QQ)}),
        homogenize(SpectralOracle(samples)),
        heaviness_check(family),
    ]


REPORTS = _reports()


@pytest.mark.parametrize("report", REPORTS, ids=[type(r).__name__ for r in REPORTS])
def test_report_fields_round_trip(report):
    # The constructor takes the fields by name, in __slots__ order, and the
    # rebuilt report is equal and writes the same JSON.
    twin = _rebuilt(report)
    positional = type(report)(*report._fields())
    assert twin == report == positional
    assert json.dumps(twin.to_json(), sort_keys=True) == json.dumps(
        report.to_json(), sort_keys=True)
    assert repr(twin) == repr(report)
    assert repr(report).startswith(f"{type(report).__name__}({report.__slots__[0]}=")


@pytest.mark.parametrize("report", [r for r in REPORTS if type(r).__hash__ is None],
                         ids=lambda r: type(r).__name__)
def test_mutable_reports_are_unhashable(report):
    with pytest.raises(TypeError):
        hash(report)


# -- the writer of rationals ---------------------------------------------

_SMALL = st.integers(-(10**30), 10**30)
# a numerator and a positive denominator, not reduced: both times a common factor
_RATIOS = st.builds(lambda n, d, k: (n * k, d * k), _SMALL, st.integers(1, 10**30),
                    st.integers(1, 10**6))
# integers of 4,400 to 6,000 digits, past the default limit of 4,300 even
# once a common factor up to 10**6 is divided out
_LONG = st.builds(lambda digits, low: 10 ** (digits - 1) + low, st.integers(4400, 6000),
                  st.integers(0, 10**9))
_LONG_RATIOS = st.one_of(
    st.tuples(_LONG, st.integers(1, 10**6)),
    st.tuples(st.integers(1, 10**6), _LONG),
    _LONG.map(lambda n: (n, n + 1)),
).flatmap(lambda nd: st.builds(lambda sign, k: (sign * nd[0] * k, nd[1] * k),
                               st.sampled_from([1, -1]), st.integers(1, 10**6)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_RATIOS)
def test_writer_below_the_digit_limit_is_str(ratio):
    num, den = ratio
    assert ratio_str(num, den) == fraction_str(Fraction(num, den)) == str(Fraction(num, den))
    assert ratio_str(0, den) == fraction_str(Fraction(0, den)) == "0"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_LONG_RATIOS)
def test_writer_past_the_digit_limit_is_str_with_the_limit_lifted(ratio):
    num, den = ratio
    q = Fraction(num, den)
    with pytest.raises(ValueError, match="limit"):
        str(q)
    got = ratio_str(num, den), fraction_str(q)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(q)
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == (want, want)
