"""The per-pair rectangle classifier and the per-edge census that
`rectangles.intersection_type_census` replaced, kept as its test oracle: the
census builds the intersection graph and calls `classify_rect_pair` once per
edge."""

from enum import Enum
from typing import Optional

from ztnet.errors import DegenerateInput
from ztnet.geometry import AxisRect, _rects_overlap, _strictly_inside, check_general_position
from ztnet.hypergraph import BipartiteIntersectionGraph
from ztnet.rectangles import IntersectionTypeCounts


class IntersectionType(Enum):
    """The four ways a pair of intersecting axis-parallel rectangles can meet."""

    A_INSIDE_B = 1
    B_INSIDE_A = 2
    B_VERTICAL_CROSSES_A = 3
    A_VERTICAL_CROSSES_B = 4


def _pair_general_position(a, b) -> bool:
    xs = (a.x_lo, a.x_hi, b.x_lo, b.x_hi)
    ys = (a.y_lo, a.y_hi, b.y_lo, b.y_hi)
    return len(set(xs)) == 4 and len(set(ys)) == 4


def _edge_crossings(outer, inner):
    """Crossing points of `outer`'s vertical edges with `inner`'s horizontal edges."""
    pts = []
    for xv in (outer.x_lo, outer.x_hi):
        if inner.x_lo <= xv <= inner.x_hi:
            for yh in (inner.y_lo, inner.y_hi):
                if outer.y_lo <= yh <= outer.y_hi:
                    pts.append((xv, yh))
    return pts


def classify_rect_pair(a: AxisRect, b: AxisRect) -> Optional[IntersectionType]:
    """Classify an intersecting rectangle pair into exactly one of four types.

    Returns None for disjoint pairs.  Containment is strict.  A pair touching
    both ways (a vertical edge of b crosses a horizontal edge of a *and* vice
    versa, the corner-overlap configuration) is split by comparing the two
    crossing points lexicographically, so that swapping the roles of a and b
    swaps types 3 and 4.
    """
    if not _pair_general_position(a, b):
        raise DegenerateInput(f"rectangle pair shares an edge line: {a}, {b}")
    if not _rects_overlap(a, b):
        return None
    if _strictly_inside(a, b):
        return IntersectionType.A_INSIDE_B
    if _strictly_inside(b, a):
        return IntersectionType.B_INSIDE_A
    pts3 = _edge_crossings(b, a)  # vertical edge of b x horizontal edge of a
    pts4 = _edge_crossings(a, b)  # vertical edge of a x horizontal edge of b
    if pts3 and not pts4:
        return IntersectionType.B_VERTICAL_CROSSES_A
    if pts4 and not pts3:
        return IntersectionType.A_VERTICAL_CROSSES_B
    if pts3 and pts4:
        if min(pts3) < min(pts4):
            return IntersectionType.B_VERTICAL_CROSSES_A
        return IntersectionType.A_VERTICAL_CROSSES_B
    # Overlapping rectangles whose boundaries never cross can only arise from
    # shared edge lines, which the general-position check already rejected.
    raise DegenerateInput(f"rectangle pair in unclassifiable contact: {a}, {b}")


def intersection_type_census(a_rects, b_rects) -> IntersectionTypeCounts:
    """Classify every intersecting (a, b) pair into exactly one of four types."""
    a_rects, b_rects = list(a_rects), list(b_rects)
    if not check_general_position(a_rects + b_rects):
        raise DegenerateInput("rectangle families share an edge line")
    g = BipartiteIntersectionGraph.from_families(a_rects, b_rects)
    counts = {ity: 0 for ity in IntersectionType}
    for i, j in zip(g.rows.tolist(), g.cols.tolist()):
        a, b = g.side_a[i], g.side_b[j]
        ity = classify_rect_pair(a, b)
        if ity is None:
            raise AssertionError(f"intersecting pair classifies as disjoint: {a}, {b}")
        counts[ity] += 1
    return IntersectionTypeCounts(
        type1=counts[IntersectionType.A_INSIDE_B],
        type2=counts[IntersectionType.B_INSIDE_A],
        type3=counts[IntersectionType.B_VERTICAL_CROSSES_A],
        type4=counts[IntersectionType.A_VERTICAL_CROSSES_B],
    )
