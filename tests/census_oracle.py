"""The per-edge census that `rectangles.intersection_type_census` replaced,
kept as its test oracle: it builds the intersection graph and calls
`classify_rect_pair` once per edge."""

from ztnet.errors import DegenerateInput
from ztnet.geometry import IntersectionType, check_general_position, classify_rect_pair
from ztnet.hypergraph import BipartiteIntersectionGraph
from ztnet.rectangles import IntersectionTypeCounts


def intersection_type_census(a_rects, b_rects) -> IntersectionTypeCounts:
    """Classify every intersecting (a, b) pair into exactly one of four types."""
    a_rects, b_rects = list(a_rects), list(b_rects)
    if not check_general_position(a_rects + b_rects):
        raise DegenerateInput("rectangle families share an edge line")
    g = BipartiteIntersectionGraph.from_families(a_rects, b_rects)
    counts = {ity: 0 for ity in IntersectionType}
    for i, j in g.edges:
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
