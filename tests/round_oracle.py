"""The dense round kernel that the candidate grid in `hypergraph._edge_blocks`
replaced for discs, kept as its test oracle: it tests every one of the m*n
pairs."""

import numpy as np

from ztnet import geometry
from ztnet.geometry import Point

CHUNK_ROWS = 256  # rows of A per round_matrix call in dense_edges


def _round_fields(fam):
    """Centre x, centre y and radius per object; a point has radius 0.0."""
    rows = [(o.x, o.y, 0.0) if type(o) is Point else (o.center.x, o.center.y, o.radius) for o in fam]
    return np.array(rows).T


def round_matrix(fam_a, fam_b) -> np.ndarray:
    """Boolean matrix M[i, j] = intersects(fam_a[i], fam_b[j]) over points and discs."""
    if len(fam_a) == 0 or len(fam_b) == 0:
        return np.zeros((len(fam_a), len(fam_b)), dtype=bool)
    # Every pair holds a disc, so (ra + rb) * (1 + REL_TOL) is the scalar
    # predicate's slack bit for bit: 0.0 + r == r, and (-dx)**2 == dx**2.
    # Where the slack's square overflows, the scalar predicate scales every
    # length by 1/4 and compares squared ratios with 1; both forms are
    # computed for every pair here.
    ax, ay, ar = (v[:, None] for v in _round_fields(fam_a))
    bx, by, br = _round_fields(fam_b)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dx = ax - bx
        dy = ay - by
        slack = (ar + br) * (1.0 + geometry.REL_TOL)
        quarter = (ar * 0.25 + br * 0.25) * (1.0 + geometry.REL_TOL)
        qx = (ax * 0.25 - bx * 0.25) / quarter
        qy = (ay * 0.25 - by * 0.25) / quarter
        return np.where(slack * slack < np.inf, dx * dx + dy * dy <= slack * slack, qx * qx + qy * qy <= 1.0)


def dense_edges(fam_a, fam_b) -> set[tuple[int, int]]:
    """The edge set as the dense build made it: CHUNK_ROWS rows of A at a
    time, inserted in row-major order, so its iteration order is the build's."""
    edges: set[tuple[int, int]] = set()
    for lo in range(0, len(fam_a), CHUNK_ROWS):
        rows, cols = np.nonzero(round_matrix(fam_a[lo : lo + CHUNK_ROWS], fam_b))
        edges.update(zip((rows + lo).tolist(), cols.tolist()))
    return edges
