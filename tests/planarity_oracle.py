"""The one-sample-at-a-time loop that `rectangles.hereditary_planarity_check`
replaced, kept as its test oracle: it draws each sample's kept set with
`rng.sample`, one Python int per kept vertex.  Its samples come from
`random.Random` and the sampler's from numpy, so the two draw different
subsets: they agree on `passed` for planar graphs and on `samples_checked`,
not on the draws."""

import random

import numpy as np

from ztnet.rectangles import PlanarityReport, _euler_bound


def hereditary_planarity_check(g, samples: int, seed: int) -> PlanarityReport:
    """Euler bound |E| <= 3|V|-6 on the full graph and random induced subgraphs."""
    rng = random.Random(seed)
    n = g.vertex_count
    eu, ev = g.rows, g.cols
    violations = 0
    checked = 0

    def check(count: int, k: int):
        nonlocal violations, checked
        checked += 1
        if count > _euler_bound(k):
            violations += 1

    check(len(eu), n)
    keep = np.zeros(n, dtype=bool)
    for _ in range(samples):
        size = rng.randint(0, n)
        keep[:] = False
        if size:
            keep[rng.sample(range(n), size)] = True
        count = int((keep[eu] & keep[ev]).sum()) if len(eu) else 0
        check(count, size)
    return PlanarityReport(
        passed=violations == 0,
        violations=violations,
        samples_checked=checked,
    )
