"""The dense intersection matrix that the candidate grid in
`hypergraph._edge_blocks` replaced, kept as its test oracle: the box kernel
tests every one of the m*n pairs as closed boxes, and every other mix falls
back to the scalar predicate pair by pair."""

import numpy as np

from ztnet.geometry import AxisRect, Frame, Point, Segment, intersects

_BOX = {Point, AxisRect, Frame}


def box_fields(fam):
    """x_lo, x_hi, y_lo, y_hi per object as a closed box, and the frame flags."""
    rows = []
    for o in fam:
        if type(o) is Point:
            rows.append((o.x, o.x, o.y, o.y))
        elif type(o) is Segment:
            ends, fixed = (o.lo, o.hi), (o.fixed, o.fixed)
            rows.append(ends + fixed if o.orientation == "horizontal" else fixed + ends)
        else:
            rows.append((o.x_lo, o.x_hi, o.y_lo, o.y_hi))
    return (*np.array(rows).T, np.array([type(o) is Frame for o in fam]))


def box_matrix(fam_a, fam_b) -> np.ndarray:
    """Closed boxes overlap, unless one lies strictly inside a frame's hole."""
    axl, axh, ayl, ayh, a_frame = (v[:, None] for v in box_fields(fam_a))
    bxl, bxh, byl, byh, b_frame = box_fields(fam_b)
    mat = (axl <= bxh) & (bxl <= axh) & (ayl <= byh) & (byl <= ayh)
    mat &= ~(a_frame & (axl < bxl) & (bxh < axh) & (ayl < byl) & (byh < ayh))
    mat &= ~(b_frame & (bxl < axl) & (axh < bxh) & (byl < ayl) & (ayh < byh))
    return mat


def intersection_matrix(fam_a, fam_b) -> np.ndarray:
    """Boolean matrix M[i, j] = intersects(fam_a[i], fam_b[j]): the box kernel
    for points, rects and frames, or for segments; the scalar predicate on
    every pair for other mixes."""
    if len(fam_a) == 0 or len(fam_b) == 0:
        return np.zeros((len(fam_a), len(fam_b)), dtype=bool)
    kinds = {type(o) for o in fam_a} | {type(o) for o in fam_b}
    if kinds <= _BOX or kinds == {Segment}:
        return box_matrix(fam_a, fam_b)
    mat = np.zeros((len(fam_a), len(fam_b)), dtype=bool)
    for i, a in enumerate(fam_a):
        for j, b in enumerate(fam_b):
            mat[i, j] = intersects(a, b)
    return mat


def dense_pairs(fam_a, fam_b) -> list[tuple[int, int]]:
    """The edges of the dense matrix as (i, j) pairs in row-major order."""
    return [(int(i), int(j)) for i, j in np.argwhere(intersection_matrix(fam_a, fam_b))]
