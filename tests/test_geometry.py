import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from census_oracle import IntersectionType, _edge_crossings, classify_rect_pair

from ztnet.cli import emit_instance, parse_instance_text
from ztnet.errors import DegenerateInput
from ztnet.geometry import (
    SHAPES,
    AxisRect,
    Disc,
    Family,
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


# rects and frames on a unit grid, whose edge lines often coincide
grid_rects = st.builds(
    lambda cls, x, w, y, h: cls(float(x), float(x + w), float(y), float(y + h)),
    st.sampled_from([AxisRect, Frame]),
    st.integers(-3, 3),
    st.integers(1, 3),
    st.integers(-3, 3),
    st.integers(1, 3),
)


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


numbers = st.one_of(st.integers(-10, 10), coords)
sizes = st.one_of(st.integers(1, 5), radii)


@st.composite
def mixed_objects(draw):
    """An object of any of the six kinds, with int or float coordinates."""
    x, y, w, h = draw(numbers), draw(numbers), draw(sizes), draw(sizes)
    return draw(st.sampled_from([
        Point(x, y), Disc(Point(x, y), w), AxisRect(x, x + w, y, y + h), Frame(x, x + w, y, y + h),
        Segment("horizontal", y, x, x + w), Segment("vertical", x, y, y + h)]))


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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(rects(AxisRect), rects(Frame), grid_rects), max_size=12))
    def test_matches_distinct_edge_lines(self, fam):
        xs = [v for r in fam for v in (r.x_lo, r.x_hi)]
        ys = [v for r in fam for v in (r.y_lo, r.y_hi)]
        assert check_general_position(fam) == (len(set(xs)) == len(xs) and len(set(ys)) == len(ys))
        assert check_general_position(iter(fam)) == check_general_position(fam)


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


segments = st.builds(
    lambda orientation, fixed, lo, w: Segment(orientation, fixed, lo, lo + w),
    st.sampled_from(["horizontal", "vertical"]),
    coords,
    coords,
    st.floats(min_value=0.5, max_value=5),
)


class TestFamily:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(objects(), max_size=8), st.lists(segments, max_size=8)))
    def test_columns_rebuild_the_objects(self, objs):
        # the layout read from the objects builds them again, and a family that
        # builds its objects from the columns prints and compares as their list
        fam = Family.of(objs)
        assert fam.fields.shape == (5, len(objs)) and fam.fields.dtype == np.float64
        columns = Family(fam.codes, fam.fields.copy())
        assert repr(columns) == repr(objs) and columns._objects is None
        assert columns == objs and list(columns) == objs and len(columns) == len(objs)
        for code, idx in fam.groups():
            for i in idx.tolist():
                assert type(objs[i]) is SHAPES[code].cls and fam[i] == objs[i]

    def test_layout_rows(self):
        fam = Family.of([Disc(Point(1.0, 2.0), 0.5), Point(3.0, 4.0), AxisRect(0.0, 1.0, 2.0, 3.0),
                         Frame(0.0, 1.0, 2.0, 3.0), Segment("horizontal", 5.0, 1.0, 2.0),
                         Segment("vertical", 5.0, 1.0, 2.0)])
        assert fam.fields.T.tolist() == [[1.0, 1.0, 2.0, 2.0, 0.5], [3.0, 3.0, 4.0, 4.0, 0.0],
                                         [0.0, 1.0, 2.0, 3.0, 0.0], [0.0, 1.0, 2.0, 3.0, 0.0],
                                         [1.0, 2.0, 5.0, 5.0, 0.0], [5.0, 5.0, 1.0, 2.0, 0.0]]
        assert [SHAPES[c].name for c in fam.codes.tolist()] == [
            "disc", "point", "rect", "frame", "horizontal", "vertical"]

    def test_take_add_and_representatives(self):
        objs = [Point(0.0, 0.0), Disc(Point(1.0, 1.0), 1.0), Point(2.0, 2.0), AxisRect(0, 1, 0, 1)]
        fam = Family.of(objs)
        columns = Family(fam.codes, fam.fields)
        for f in (fam, columns):
            assert f.take(np.array([3, 0])) == [objs[3], objs[0]]
            assert f + f == objs + objs and f + objs[:1] == objs + objs[:1] and objs[:1] + f == objs[:1] + objs
            assert list(f.representatives().values()) == [objs[0], objs[1], objs[3]]
        assert repr(fam.take(np.array([3]))) == "[AxisRect(x_lo=0.0, x_hi=1.0, y_lo=0.0, y_hi=1.0)]"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(mixed_objects(), max_size=8), st.lists(mixed_objects(), max_size=4), st.data())
    def test_object_lists_take_the_column_path(self, objs, more, data):
        # a family made of objects holds only their columns: it compares as the
        # list, prints as a family made of the columns (ints as floats), and
        # takes, adds, picks representatives and writes files the same way
        fam = Family.of(objs)
        assert fam._objects is None  # built on first use, from the columns
        columns = Family(fam.codes, fam.fields.copy())
        assert fam == objs and repr(fam) == repr(columns) == repr(list(columns))
        idx = data.draw(st.lists(st.integers(0, len(objs) - 1), max_size=6) if objs else st.just([]))
        for f in (fam, columns):
            assert f.take(np.array(idx, np.int64)) == [objs[i] for i in idx]
        for total, expected in ((fam + more, objs + more), (more + fam, more + objs), (fam + fam, objs + objs)):
            assert isinstance(total, Family) and total == expected
        firsts = {}
        for o in objs:
            firsts.setdefault((type(o), getattr(o, "orientation", None)), o)
        assert list(fam.representatives().values()) == list(firsts.values())
        a, b = [o for o in objs if type(o) is not Segment], [o for o in more if type(o) is not Segment]
        text = emit_instance(a, b)
        assert parse_instance_text(text) == (a, b) and emit_instance(*parse_instance_text(text)) == text
        if len(a) < len(objs):
            first = next(i for i, o in enumerate(objs) if type(o) is Segment)
            with pytest.raises(TypeError, match=rf"^a\[{first}\]: not a serializable object: Segment$"):
                emit_instance(objs, b)

    @pytest.mark.parametrize("side, obj, key", [
        ("a", Point(math.inf, 0.0), "x"),
        ("b", Disc(Point(0.0, math.nan), 1.0), "cy"),
        ("a", AxisRect(0.0, 1.0, -math.inf, 2.0), "y0"),
        ("b", Frame(0.0, math.inf, 0.0, 1.0), "x1"),
    ])
    def test_emit_refuses_non_finite_fields(self, side, obj, key):
        # the decoder refuses non-finite fields, so the writer does not write them
        sides = {"a": [Point(0.0, 0.0)], "b": [Point(0.0, 0.0)]}
        sides[side].append(obj)
        with pytest.raises(ValueError, match=rf"^{side}\[1\]: field '{key}' must be finite$"):
            emit_instance(sides["a"], sides["b"])

    def test_unknown_object_raises(self):
        with pytest.raises(TypeError, match="unsupported object: str"):
            Family.of([Point(0.0, 0.0), "point"])
