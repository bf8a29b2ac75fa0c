#!/usr/bin/env python3
"""How far the max-degree pruning heuristic overshoots the minimum deletion.

On tiny random bipartite graphs the minimum number of vertex deletions that
destroys every t-by-t biclique is brute-forceable; the report compares it to
what the heuristic actually deleted.  Reported, not asserted: the heuristic
trades optimality for speed.

Usage: python scripts/prune_overhead_report.py [--trials 60] [--t 2]

--trials is an integer >= 1 and --t an integer >= 2 (the pruner's range).
"""

import argparse
import itertools
import random
import sys

from ztnet.cli import _int_at_least
from ztnet.generators import prune_to_ktt_free
from ztnet.hypergraph import BipartiteIntersectionGraph
from ztnet.suite import naive_ktt_free


def min_deletions(g: BipartiteIntersectionGraph, t: int) -> int:
    """Smallest vertex set whose removal leaves the graph biclique-free."""
    vertices = [("A", i) for i in range(g.m)] + [("B", j) for j in range(g.n)]
    for k in range(len(vertices) + 1):
        for combo in itertools.combinations(vertices, k):
            drop_a = {v for side, v in combo if side == "A"}
            drop_b = {v for side, v in combo if side == "B"}
            keep_a = [i for i in range(g.m) if i not in drop_a]
            keep_b = [j for j in range(g.n) if j not in drop_b]
            sub = g.induced(keep_a, keep_b)
            if naive_ktt_free(sub, t):
                return k
    return len(vertices)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--trials", type=_int_at_least(1), default=60)
    ap.add_argument("--t", type=_int_at_least(2), default=2)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    overshoot = []
    print(f"{'trial':>5} {'m x n':>7} {'heuristic':>9} {'minimum':>8}")
    for trial in range(args.trials):
        m, n = rng.randint(3, 6), rng.randint(3, 6)
        p = rng.uniform(0.4, 0.8)
        edges = [(i, j) for i in range(m) for j in range(n) if rng.random() < p]
        g = BipartiteIntersectionGraph.from_edges([None] * m, [None] * n, edges)
        res = prune_to_ktt_free(g, args.t)
        heuristic = len(res.deleted_a) + len(res.deleted_b)
        minimum = min_deletions(g, args.t)
        overshoot.append(heuristic - minimum)
        if heuristic != minimum:
            print(f"{trial:>5} {m}x{n:>5} {heuristic:>9} {minimum:>8}")
    exact = sum(1 for o in overshoot if o == 0)
    print(
        f"\n{args.trials} trials: heuristic optimal on {exact}, "
        f"mean overshoot {sum(overshoot) / len(overshoot):.2f} vertices, "
        f"max {max(overshoot)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
