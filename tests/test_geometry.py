import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from census_oracle import IntersectionType, _edge_crossings, classify_rect_pair

from ztnet.errors import DegenerateInput
from ztnet.geometry import (
    AxisRect,
    Disc,
    Frame,
    Point,
    Segment,
    check_general_position,
    intersects,
    segments_cross,
)

coords = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
radii = st.floats(min_value=0.01, max_value=5, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw, cls=AxisRect):
    x0, x1 = sorted(draw(st.tuples(coords, coords)))
    y0, y1 = sorted(draw(st.tuples(coords, coords)))
    if x0 == x1:
        x1 = x0 + 1.0
    if y0 == y1:
        y1 = y0 + 1.0
    return cls(x0, x1, y0, y1)


@st.composite
def objects(draw):
    which = draw(st.integers(0, 3))
    if which == 0:
        return Point(draw(coords), draw(coords))
    if which == 1:
        return Disc(Point(draw(coords), draw(coords)), draw(radii))
    if which == 2:
        return draw(rects(AxisRect))
    return draw(rects(Frame))


class TestIntersects:
    def test_disc_examples(self):
        assert intersects(Disc(Point(0, 0), 1), Disc(Point(1.5, 0), 1))
        assert not intersects(Disc(Point(0, 0), 1), Disc(Point(3, 0), 1))

    def test_nested_rects_vs_frames(self):
        assert intersects(AxisRect(1, 2, 1, 2), AxisRect(0, 3, 0, 3))
        assert not intersects(Frame(1, 2, 1, 2), Frame(0, 3, 0, 3))

    def test_overlapping_frames(self):
        assert intersects(Frame(0, 2, 0, 2), Frame(1, 3, 1, 3))
        assert intersects(Frame(0, 2, 0, 2), Frame(0, 2, 0, 2))

    def test_point_cases(self):
        assert intersects(Point(1, 1), AxisRect(0, 2, 0, 2))
        assert not intersects(Point(1, 1), Frame(0, 2, 0, 2))
        assert intersects(Point(0, 1), Frame(0, 2, 0, 2))
        assert intersects(Point(0.5, 0.5), Disc(Point(0, 0), 1))
        assert intersects(Point(1, 0), Disc(Point(0, 0), 1))  # boundary is closed

    def test_disc_rect_frame(self):
        assert intersects(Disc(Point(0, 0), 1), AxisRect(0.5, 2, -0.5, 0.5))
        assert not intersects(Disc(Point(0, 0), 1), AxisRect(2, 3, 2, 3))
        # disc strictly inside a frame's interior misses the boundary curve
        assert not intersects(Disc(Point(5, 5), 0.5), Frame(0, 10, 0, 10))
        assert intersects(Disc(Point(5, 5), 0.5), AxisRect(0, 10, 0, 10))
        # huge disc swallows the frame entirely: boundary is inside the disc
        assert intersects(Disc(Point(5, 5), 50), Frame(4, 6, 4, 6))

    def test_tangency_counts(self):
        assert intersects(Disc(Point(0, 0), 1), Disc(Point(2, 0), 1))
        assert intersects(AxisRect(0, 1, 0, 1), AxisRect(1, 2, 0, 1))

    @settings(max_examples=200)
    @given(objects(), objects())
    def test_symmetric(self, a, b):
        assert intersects(a, b) == intersects(b, a)


class TestClassify:
    def test_examples(self):
        assert classify_rect_pair(AxisRect(1, 2, 1, 2), AxisRect(0, 3, 0, 3)) is IntersectionType.A_INSIDE_B
        assert classify_rect_pair(AxisRect(0, 3, 1, 2), AxisRect(1, 2, 0, 3)) is IntersectionType.B_VERTICAL_CROSSES_A
        assert classify_rect_pair(AxisRect(0, 1, 0, 1), AxisRect(5, 6, 5, 6)) is None

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegenerateInput):
            classify_rect_pair(AxisRect(0, 1, 0, 1), AxisRect(1, 2, 5, 6))

    def test_corner_overlap_is_antisymmetric(self):
        a = AxisRect(0, 2, 0, 2)
        b = AxisRect(1, 3, 1, 3)
        fwd = classify_rect_pair(a, b)
        rev = classify_rect_pair(b, a)
        assert {fwd, rev} == {
            IntersectionType.B_VERTICAL_CROSSES_A,
            IntersectionType.A_VERTICAL_CROSSES_B,
        }

    @settings(max_examples=300)
    @given(rects(), rects())
    def test_exactly_one_type_and_role_swap(self, a, b):
        xs = {a.x_lo, a.x_hi, b.x_lo, b.x_hi}
        ys = {a.y_lo, a.y_hi, b.y_lo, b.y_hi}
        if len(xs) < 4 or len(ys) < 4:
            with pytest.raises(DegenerateInput):
                classify_rect_pair(a, b)
            return
        fwd = classify_rect_pair(a, b)
        rev = classify_rect_pair(b, a)
        assert (fwd is None) == (not intersects(a, b))
        swap = {
            None: None,
            IntersectionType.A_INSIDE_B: IntersectionType.B_INSIDE_A,
            IntersectionType.B_INSIDE_A: IntersectionType.A_INSIDE_B,
            IntersectionType.B_VERTICAL_CROSSES_A: IntersectionType.A_VERTICAL_CROSSES_B,
            IntersectionType.A_VERTICAL_CROSSES_B: IntersectionType.B_VERTICAL_CROSSES_A,
        }
        assert rev is swap[fwd]


class TestCrossingPatterns:
    @settings(max_examples=400)
    @given(rects(), rects())
    def test_only_five_patterns_occur(self, a, b):
        # intersecting non-nested pairs cross (2,0), (0,2), (4,0), (0,4), or
        # the corner-overlap (1,1); the tie-break only ever sees the last
        from ztnet.geometry import _rects_overlap, _strictly_inside

        xs = {a.x_lo, a.x_hi, b.x_lo, b.x_hi}
        ys = {a.y_lo, a.y_hi, b.y_lo, b.y_hi}
        if len(xs) < 4 or len(ys) < 4:
            return
        if not _rects_overlap(a, b) or _strictly_inside(a, b) or _strictly_inside(b, a):
            return
        pattern = (len(_edge_crossings(b, a)), len(_edge_crossings(a, b)))
        assert pattern in {(2, 0), (0, 2), (4, 0), (0, 4), (1, 1)}


class TestGeneralPosition:
    def test_examples(self):
        assert check_general_position([AxisRect(0, 1, 0, 1), AxisRect(2, 3, 2, 3)])
        assert not check_general_position([AxisRect(0, 1, 0, 1), AxisRect(1, 2, 5, 6)])
        assert check_general_position([])

    def test_mixed_frames(self):
        assert not check_general_position([AxisRect(0, 1, 0, 1), Frame(5, 6, 1, 2)])


class TestSegments:
    def test_perpendicular_cross(self):
        h = Segment("horizontal", 1.0, 0.0, 4.0)
        v = Segment("vertical", 2.0, 0.0, 3.0)
        assert segments_cross(h, v)
        assert segments_cross(v, h)
        assert not segments_cross(h, Segment("vertical", 5.0, 0.0, 3.0))

    def test_parallel(self):
        h1 = Segment("horizontal", 1.0, 0.0, 2.0)
        h2 = Segment("horizontal", 1.0, 1.0, 3.0)
        h3 = Segment("horizontal", 2.0, 0.0, 2.0)
        assert segments_cross(h1, h2)
        assert not segments_cross(h1, h3)

    def test_invariants(self):
        with pytest.raises(ValueError):
            Segment("diagonal", 0, 0, 1)
        with pytest.raises(ValueError):
            Segment("horizontal", 0, 2, 1)


def test_invalid_shapes_rejected():
    for radius in (0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            Disc(Point(0, 0), radius)
    with pytest.raises(ValueError):
        AxisRect(1, 0, 0, 1)
    with pytest.raises(ValueError):
        Frame(0, 1, 1, 0)
