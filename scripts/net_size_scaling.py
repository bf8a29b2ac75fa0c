#!/usr/bin/env python3
"""Net size of the structural constructor across instance sizes and epsilons.

Reports the tuple count of the two-stage net (stacked cover + vertex removal)
on random disc-disc hypergraphs, next to the greedy cover size on the same
instance.  At fixed epsilon the structural size should flatten as n grows.
The cover column is the stacked cover set's vertex count.  Each column is
the median over --seeds instances.

Usage: python scripts/net_size_scaling.py [--sizes 128,256,512,1024]
       [--eps 0.1] [--t 2] [--seeds 3] [--seed 7]

--eps is an exact fraction in (0, 1] (0.1 or 1/10); --t, --seeds and every
size are integers >= 1.
"""

import argparse
import statistics
import sys

from ztnet.cli import _int_at_least, _positive_fraction
from ztnet.generators import GenParams, generate
from ztnet.hypergraph import BipartiteIntersectionGraph, primal_hypergraph
from ztnet.nets import greedy_cover_t_net, pseudodisc_t_net, verify_t_net
from ztnet.suite import derive_seed


def sizes(text: str) -> list[int]:
    return [_int_at_least(1)(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", type=sizes, default="128,256,512,1024")
    ap.add_argument("--eps", type=_positive_fraction, default="0.1")
    ap.add_argument("--t", type=_int_at_least(1), default=2)
    ap.add_argument("--seeds", type=_int_at_least(1), default=3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    eps = args.eps
    for n in args.sizes:
        if eps * n < 2 * args.t:
            ap.error(f"size {n} is too small: the stacked cover needs eps*n >= 2t "
                     f"({eps}*{n} < {2 * args.t})")
    params = GenParams(radius_lo=0.05, radius_hi=0.13)

    print(f"eps={eps} t={args.t}")
    print(f"{'n':>6} {'structural':>11} {'greedy':>7} {'cover':>6}")
    for n in args.sizes:
        structural = []
        greedy = []
        covers = []
        for s in range(args.seeds):
            fa = generate("random_discs", n, params, derive_seed(args.seed, "net", n, s, "a"))
            fb = generate("random_discs", n, params, derive_seed(args.seed, "net", n, s, "b"))
            h = primal_hypergraph(BipartiteIntersectionGraph.from_families(fa, fb))
            net, trace = pseudodisc_t_net(h, eps, args.t, derive_seed(args.seed, n, s))
            assert verify_t_net(h, eps, net) is None
            structural.append(net.size())
            covers.append(len(trace.cover_set))
            greedy.append(greedy_cover_t_net(h, eps, args.t).size())
        print(
            f"{n:>6} {statistics.median(structural):>11.0f} "
            f"{statistics.median(greedy):>7.0f} {statistics.median(covers):>6.0f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
