"""Moment polytopes: exact validation, vertices, transforms, facet values."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novspec.polytope import (
    Facet,
    MomentPolytope,
    coset_representatives,
    enumerate_vertices,
    int_det,
    interior_point,
    parse_fiber,
    point_str,
    polytope_validate,
    rational_inverse,
    segment,
    simplex,
)
from novspec.polytope import _facet_redundant, _lp, _pivot, _reduce, _simplex
from novspec.potential import PotentialFunction

from reference import product, transform, transform_point, unimodular_inverse_transpose

CP1 = segment(Fraction(0), Fraction(1))
CP2 = simplex(2)
# trapezoid {x>=0, y>=0, y<=1, x+y<=2}: Delzant, mixed facet geometry
TRAP = MomentPolytope(
    2,
    [
        Facet((1, 0), Fraction(0)),
        Facet((0, 1), Fraction(0)),
        Facet((0, -1), Fraction(-1)),
        Facet((-1, -1), Fraction(-2)),
    ],
)


class TestFacet:
    def test_value_is_exact(self):
        p = MomentPolytope(2, (Facet((2, -3), Fraction(1, 2)),))
        assert p.values((Fraction(1), Fraction(1, 3))) == [2 - 1 - Fraction(1, 2)]

    def test_normals_must_be_integral(self):
        with pytest.raises(ValueError, match="integer"):
            Facet.from_json({"normal": [0.5, 1], "offset": "0"})

    def test_round_trip(self):
        f = Facet((1, -2), Fraction(-3, 4))
        assert Facet.from_json(f.to_json()) == f

    def test_polytope_round_trip(self):
        q = MomentPolytope.from_json(TRAP.to_json())
        assert q.dim == 2 and len(q.facets) == 4
        assert [f.normal for f in q.facets] == [f.normal for f in TRAP.facets]


class TestValidate:
    def test_interval_is_delzant(self):
        rep = polytope_validate(CP1)
        assert rep.ok and rep.bounded and rep.simple and rep.delzant
        assert sorted(rep.vertices) == [(Fraction(0),), (Fraction(1),)]
        assert rep.redundant_facets == []

    def test_simplex_vertices_and_delzant(self):
        rep = polytope_validate(CP2)
        assert rep.ok and rep.delzant
        assert sorted(rep.vertices) == [
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
        ]

    def test_box_and_trapezoid(self):
        b = product(CP1, segment(Fraction(-1), Fraction(2)))
        assert polytope_validate(b).ok
        rep = polytope_validate(TRAP)
        assert rep.ok and len(rep.vertices) == 4

    def test_unbounded_rejected(self):
        halfplane = MomentPolytope(
            2, [Facet((1, 0), Fraction(0)), Facet((0, 1), Fraction(0))]
        )
        rep = polytope_validate(halfplane)
        assert not rep.ok and not rep.bounded
        assert any("facets" in v for v in rep.violations)

    def test_strip_unbounded_despite_enough_facets(self):
        strip = MomentPolytope(
            2,
            [
                Facet((1, 0), Fraction(0)),
                Facet((-1, 0), Fraction(-1)),
                Facet((0, 1), Fraction(0)),
            ],
        )
        rep = polytope_validate(strip)
        assert not rep.ok and not rep.bounded

    def test_empty_interior_rejected(self):
        empty = MomentPolytope(
            1, [Facet((1,), Fraction(1)), Facet((-1,), Fraction(0))]
        )
        rep = polytope_validate(empty)
        assert not rep.ok and not rep.interior_nonempty

    def test_redundant_facet_flagged(self):
        padded = MomentPolytope(
            1,
            [
                Facet((1,), Fraction(0)),
                Facet((-1,), Fraction(-1)),
                Facet((-1,), Fraction(-2)),
            ],
        )
        rep = polytope_validate(padded)
        assert not rep.ok and rep.redundant_facets == [2]

    def test_nonprimitive_normal_rejected(self):
        doubled = MomentPolytope(
            1, [Facet((2,), Fraction(0)), Facet((-1,), Fraction(-1))]
        )
        rep = polytope_validate(doubled)
        assert not rep.ok
        assert any("primitive" in v for v in rep.violations)

    def test_octahedron_not_simple(self):
        facets = []
        for sx in (1, -1):
            for sy in (1, -1):
                for sz in (1, -1):
                    facets.append(Facet((sx, sy, sz), Fraction(-1)))
        octa = MomentPolytope(3, facets)
        rep = polytope_validate(octa)
        assert rep.bounded and rep.interior_nonempty
        assert not rep.simple and not rep.delzant and not rep.ok
        assert len(rep.vertices) == 6

    def test_weighted_triangle_simple_but_not_delzant(self):
        tri = MomentPolytope(
            2,
            [
                Facet((1, 0), Fraction(0)),
                Facet((0, 1), Fraction(0)),
                Facet((-1, -2), Fraction(-2)),
            ],
        )
        rep = polytope_validate(tri)
        assert rep.simple and not rep.delzant and not rep.ok

    def test_empty_interior_behind_redundant_facets(self):
        # {x >= -1, x >= -3, x >= -4, -x >= 1} is the single point -1
        point = MomentPolytope(
            1,
            [
                Facet((1,), Fraction(-1)),
                Facet((1,), Fraction(-3)),
                Facet((1,), Fraction(-4)),
                Facet((-1,), Fraction(1)),
            ],
        )
        rep = polytope_validate(point)
        assert rep.bounded and not rep.interior_nonempty
        assert rep.interior_point is None
        assert "polytope has empty interior" in rep.violations

    def test_infeasible_parallel_pair_is_unbounded(self):
        # x + 2y <= 1 and x + 2y <= -1 leave the direction (2, -1) free
        wedge = MomentPolytope(
            2,
            [
                Facet((2, 1), Fraction(-4)),
                Facet((-1, -2), Fraction(-1)),
                Facet((-1, -2), Fraction(1)),
            ],
        )
        rep = polytope_validate(wedge)
        assert not rep.bounded and not rep.ok
        assert "polytope is unbounded" in rep.violations

    def test_interior_point_is_lexicographic_minimum(self):
        # x in [-1, 2], y in [-1, 0]: the max-min margin 1/2 pins y = -1/2
        # and leaves x in [-1/2, 3/2]; the smallest x is taken
        rect = MomentPolytope(
            2,
            [
                Facet((1, 0), Fraction(-1)),
                Facet((0, 1), Fraction(-1)),
                Facet((-1, 0), Fraction(-2)),
                Facet((0, -1), Fraction(0)),
            ],
        )
        assert interior_point(rect) == (Fraction(-1, 2), Fraction(-1, 2))
        assert interior_point(TRAP) == (Fraction(1, 2), Fraction(1, 2))

    def test_interior_point_is_interior(self):
        for p in (CP1, CP2, TRAP):
            rep = polytope_validate(p)
            assert rep.interior_point is not None
            assert p.is_interior(rep.interior_point)


class TestFiberValues:
    def test_facet_values_exact(self):
        w = PotentialFunction(TRAP, (Fraction(3, 4), Fraction(1, 2)))
        vals = [-t.weight for t in w.terms]
        assert vals == [Fraction(3, 4), Fraction(1, 2), Fraction(1, 2), Fraction(3, 4)]

    def test_off_interior_names_facets(self):
        with pytest.raises(ValueError, match=r"not interior.*facet\(s\) \[1\]"):
            PotentialFunction(segment(Fraction(0), Fraction(1)), "1")
        with pytest.raises(ValueError, match=r"facet\(s\) \[0\]"):
            PotentialFunction(CP2, "0,1/2")

    def test_parse_fiber_formats(self):
        assert parse_fiber("1/2,1/3") == (Fraction(1, 2), Fraction(1, 3))
        assert parse_fiber((Fraction(1, 2),)) == (Fraction(1, 2),)
        assert point_str((Fraction(1, 2), Fraction(2))) == "1/2,2"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PotentialFunction(CP2, "1/2")


class TestTransforms:
    A = ((1, 1), (0, 1))

    def test_int_det(self):
        assert int_det(((1, 1), (0, 1))) == 1
        assert int_det(((2, 0), (0, 1))) == 2
        assert int_det(((0, 1, 0), (1, 0, 0), (0, 0, 1))) == -1

    def test_unimodular_inverse_transpose(self):
        ait = unimodular_inverse_transpose(self.A)
        # A^{-T} for [[1,1],[0,1]] is [[1,0],[-1,1]]
        assert ait == ((1, 0), (-1, 1))

    def test_transform_preserves_validation(self):
        q = transform(CP2, self.A)
        rep = polytope_validate(q)
        assert rep.ok and rep.delzant

    def test_transform_point_tracks_interior(self):
        rng = random.Random(2)
        q = transform(TRAP, self.A)
        for _ in range(40):
            pt = (
                Fraction(rng.randint(-8, 24), 8),
                Fraction(rng.randint(-8, 24), 8),
            )
            assert TRAP.is_interior(pt) == q.is_interior(transform_point(self.A, pt))

    def test_transform_preserves_facet_values(self):
        fiber = (Fraction(3, 4), Fraction(1, 2))
        q = transform(TRAP, self.A)
        assert TRAP.values(fiber) == q.values(transform_point(self.A, fiber))

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            transform(CP2, ((2, 0), (0, 1)))


class TestProducts:
    def test_product_facets_are_padded(self):
        p = product(CP1, segment(Fraction(0), Fraction(2)))
        assert p.dim == 2 and len(p.facets) == 4
        assert polytope_validate(p).ok
        assert p.is_interior((Fraction(1, 2), Fraction(1)))

    def test_product_values_split(self):
        p = product(CP1, CP1)
        vals = p.values((Fraction(1, 4), Fraction(1, 2)))
        assert vals == [
            Fraction(1, 4),
            Fraction(3, 4),
            Fraction(1, 2),
            Fraction(1, 2),
        ]


class TestVertexEnumeration:
    def test_random_gl2z_images_of_boxes(self):
        rng = random.Random(7)
        base = product(CP1, segment(Fraction(0), Fraction(2)))
        base_rep = polytope_validate(base)
        for _ in range(25):
            # random unimodular matrix from elementary operations
            a, b, c = rng.randint(-2, 2), rng.randint(-2, 2), rng.choice([1, -1])
            mat = ((1, a), (0, 1))
            mat2 = ((1, 0), (b, c))
            comp = tuple(
                tuple(
                    sum(mat[i][k] * mat2[k][j] for k in range(2)) for j in range(2)
                )
                for i in range(2)
            )
            q = transform(base, comp)
            rep = polytope_validate(q)
            assert rep.ok and rep.delzant
            assert len(rep.vertices) == len(base_rep.vertices)

    def test_enumerate_matches_report(self):
        rep = polytope_validate(TRAP)
        assert sorted(enumerate_vertices(TRAP)) == sorted(rep.vertices)


# ---------------------------------------------------------------------------
# Exact elimination against cofactor expansion


def _cofactor_det(rows):
    """Reference determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
    )


def _transpose_times(a, b):
    n = len(a)
    return [[sum(a[k][i] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@st.composite
def int_systems(draw):
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    row = st.lists(entry, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n)), draw(row)


@st.composite
def unimodular_matrices(draw):
    # A signed permutation matrix changed by row additions keeps det = +-1.
    n = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    a = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
    index = st.integers(0, n - 1)
    for i, j, k in draw(st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=8)):
        if i != j:
            a[i] = [x + k * y for x, y in zip(a[i], a[j])]
    return a


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(int_systems())
def test_elimination_matches_cofactor_reference(system):
    a, b = system
    n = len(a)
    det = _cofactor_det(a)
    assert int_det(a) == det
    reduced, cols, det_back = _reduce([[*row, c] for row, c in zip(a, b)], n)
    assert det_back == det and (len(cols) == n) == (det != 0)
    if det:
        # Every pivot row ends as +-det times the rational reduction's row.
        assert cols == list(range(n))
        assert all(row[i] == reduced[0][0] for i, row in enumerate(reduced))
        assert abs(reduced[0][0]) == abs(det)
        x = [Fraction(row[n], row[i]) for i, row in enumerate(reduced)]
        assert [sum(v * xj for v, xj in zip(row, x)) for row in a] == b
    if det in (1, -1):
        assert _transpose_times(a, unimodular_inverse_transpose(a)) == _identity(n)
    else:
        with pytest.raises(ValueError, match=f"not unimodular \\(det = {det}\\)"):
            unimodular_inverse_transpose(a)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(int_systems())
def test_coset_representatives_cover_each_coset_once(system):
    a, _ = system
    n = len(a)
    det = _cofactor_det(a)
    det_back, inv = rational_inverse(a)
    assert det_back == det
    if det == 0:
        assert inv is None
        with pytest.raises(ValueError, match="singular"):
            coset_representatives(a)
        return
    assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*inv)] for row in a] == _identity(n)
    reps = coset_representatives(a)
    # m and m' share a coset of Z^n / A Z^n iff A^{-1} (m - m') is integral,
    # so the fractional parts of A^{-1} m tell the cosets apart; there are
    # |det A| cosets.
    classes = {tuple(sum(x * m for x, m in zip(row, rep)) % 1 for row in inv) for rep in reps}
    assert len(reps) == len(classes) == abs(det)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(unimodular_matrices())
def test_unimodular_inverse_transpose_inverts(a):
    assert int_det(a) == _cofactor_det(a) in (1, -1)
    assert _transpose_times(a, unimodular_inverse_transpose(a)) == _identity(len(a))


# ---------------------------------------------------------------------------
# Exact LP against an independent oracle built on vertex enumeration


def _full_rank(normals, n):
    return any(int_det(rows) != 0 for rows in itertools.combinations(normals, n))


def _bounded_oracle(normals, n):
    """{d : <v_i, d> >= 0} is {0}: the normals span, and no extreme ray
    (spanned by the cofactor vector of n - 1 rows) lies in the cone."""
    if not _full_rank(normals, n):
        return False
    for rows in itertools.combinations(normals, n - 1):
        d = [
            (-1) ** j * int_det([[r[k] for k in range(n) if k != j] for r in rows])
            for j in range(n)
        ]
        for ray in (d, [-x for x in d]):
            if any(ray) and all(sum(a * b for a, b in zip(v, ray)) >= 0 for v in normals):
                return False
    return True


def _cramer(rows, rhs):
    """Solution of the square system ``rows x = rhs`` by Cramer's rule over
    cofactor determinants, or None when it is singular."""
    det = _cofactor_det(rows)
    if det == 0:
        return None
    return [
        Fraction(_cofactor_det([[*row[:j], c, *row[j + 1:]] for row, c in zip(rows, rhs)]), det)
        for j in range(len(rows))
    ]


def _vertices(rows, rhs):
    """Vertices of {x : <row, x> >= rhs} by square solves independent of
    the solver under test."""
    dim = len(rows[0])
    out = set()
    for subset in itertools.combinations(range(len(rows)), dim):
        sol = _cramer([list(rows[i]) for i in subset], [rhs[i] for i in subset])
        if sol is not None and all(
            sum(a * x for a, x in zip(row, sol)) >= c for row, c in zip(rows, rhs)
        ):
            out.add(tuple(sol))
    return out


@st.composite
def small_polytopes(draw):
    dim = draw(st.integers(1, 3))
    normal = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(
        lambda v: math.gcd(*v) == 1
    )
    offset = st.builds(Fraction, st.integers(-6, 2), st.sampled_from([1, 2, 3]))
    facets = draw(
        st.lists(st.builds(Facet, normal.map(tuple), offset), min_size=dim + 1, max_size=7)
    )
    return MomentPolytope(dim, tuple(facets))


def _assert_matches_vertex_oracle(p):
    n = p.dim
    normals = [f.normal for f in p.facets]
    rep = polytope_validate(p)
    assert rep.bounded == _bounded_oracle(normals, n)
    if not rep.bounded:
        return

    # Max-min margin: vertices of {(lam, t) : <v_i, lam> - c_i >= t, t <= 1}
    lifted = _vertices(
        [v + (-1,) for v in normals] + [(0,) * n + (-1,)],
        [f.offset for f in p.facets] + [Fraction(-1)],
    )
    best = max(v[n] for v in lifted)
    point = interior_point(p)
    if best <= 0:
        assert point is None and rep.interior_point is None
    else:
        assert point == rep.interior_point
        assert p.is_interior(point) and min(p.values(point)) == best
        assert point == min(v[:n] for v in lifted if v[n] == best)

    for i in range(len(p.facets)):
        others = p.facets[:i] + p.facets[i + 1:]
        if not others or not _bounded_oracle([f.normal for f in others], n):
            continue
        corners = _vertices([f.normal for f in others], [f.offset for f in others])
        expected = all(p.values(v)[i] >= 0 for v in corners)
        assert _facet_redundant(p, i) == expected
        if rep.interior_nonempty:
            assert (i in rep.redundant_facets) == expected

    if rep.interior_nonempty and not rep.redundant_facets:
        assert rep.vertices == sorted(_vertices(normals, [f.offset for f in p.facets]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_polytopes())
def test_exact_lp_matches_vertex_oracle(p):
    _assert_matches_vertex_oracle(p)


def test_exact_lp_matches_vertex_oracle_on_30_digit_offsets():
    # Offsets whose numerators and denominators have 30 digits: the tableau
    # rows scale by unlike large denominators, and every pivot multiplies
    # them together before the gcd divides them out.
    rng = random.Random(30)

    def big():
        return Fraction(rng.randrange(10**29, 10**30), rng.randrange(10**29, 10**30))

    lo = [big() for _ in range(3)]
    hi = [x + 1 + big() for x in lo]
    units = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    facets = [Facet(u, x) for u, x in zip(units, lo)]
    facets += [Facet(tuple(-c for c in u), -x) for u, x in zip(units, hi)]
    cut = Facet((-1, -1, -1), -(sum(lo) + sum(hi)) / 2)
    p = MomentPolytope(3, tuple(facets) + (cut,))
    padded = MomentPolytope(3, p.facets + (Facet((-1, -1, -1), cut.offset - big()),))
    assert polytope_validate(p).vertices
    assert polytope_validate(padded).redundant_facets == [7]
    for q in (p, padded):
        _assert_matches_vertex_oracle(q)


def _beale_tableau():
    """Beale's LP, min -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7 subject to
    1/4 x4 - 8 x5 - x6 + 9 x7 <= 0, 1/2 x4 - 12 x5 - 1/2 x6 + 3 x7 <= 0,
    x6 <= 1 and x >= 0, as an integer tableau on slacks s1..s3 (columns
    4-6), with the first two rows and the costs scaled by 4, 2 and 4."""
    rows = [
        [1, -32, -4, 36, 4, 0, 0, 0],
        [1, -24, -1, 6, 0, 2, 0, 0],
        [0, 0, 1, 0, 0, 0, 1, 1],
    ]
    return rows, [-3, 80, -2, 24, 0, 0, 0, 0], [4, 5, 6]


def test_beale_cycling_lp_terminates_at_optimum():
    # Dantzig's rule (most negative reduced cost, ties to the lowest basic
    # index) cycles back to the slack basis after six degenerate pivots.
    rows, obj, basis = _beale_tableau()
    for _ in range(6):
        enter = min((j for j in range(7) if obj[j] < 0), key=lambda j: obj[j])
        live = [i for i, row in enumerate(rows) if row[enter] > 0]
        leave = min(live, key=lambda i: (Fraction(rows[i][-1], rows[i][enter]), basis[i]))
        _pivot(rows, obj, basis, leave, enter)
    assert basis == [4, 5, 6]

    # Bland's rule stops at x4 = x6 = 1 with the optimum -5/4.
    rows, obj, basis = _beale_tableau()
    assert _simplex(rows, obj, basis, list(range(7)))
    assert Fraction(-obj[-1], 4) == Fraction(-5, 4)
    values = {b: Fraction(row[-1], row[b]) for row, b in zip(rows, basis)}
    assert [values.get(j, 0) for j in range(4)] == [1, 0, 1, 0]

    # The same LP over free variables, with x >= 0 as rows.
    a = [[-1, 32, 4, -36], [-1, 24, 1, -6], [0, 0, -1, 0]]
    a += [[int(i == j) for j in range(4)] for i in range(4)]
    assert _lp([[-3, 80, -2, 24]], a, [0, 0, -1, 0, 0, 0, 0]) == ("optimal", [1, 0, 1, 0])
