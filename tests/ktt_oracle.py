"""Oracles for the K_{t,t} witness search and the pruner.

`MaskBicliqueSearch` and `mask_prune` are the search and the pruner on
side-long neighbour bitmasks that the neighbour-list `BicliqueSearch` and
`prune_to_ktt_free` replaced: same witnesses, steps, budget messages and
deletion order, at O(n/64) words per mask operation.

The lexicographic t-subset scan that the masked search replaced walks every
t-subset of the pool, not only those inside a neighbourhood.

The all-pairs form of the suite's `naive_ktt_free`, which now counts common
neighbours per t-subset of A instead, kept as its oracle.

The mask oracles build their masks from the graph's `rows`/`cols` arrays
(`side_masks`), not from the neighbour lists the library search reads."""

import itertools
import math
from bisect import bisect_left
from typing import Optional

from graph_oracle import bits_of

from ztnet.errors import BudgetExceeded
from ztnet.zarankiewicz import BUDGET_ENV_VAR


class MaskBicliqueSearch:
    """The lexicographic depth-first search on bitmasks over a whole side."""

    def __init__(self, t: int, budget: int, stage: str):
        self.t, self.budget, self.stage, self.steps = t, budget, stage, 0

    def first(self, active: int, masks: list[int], partner: list[int], lower=None):
        """First t-subset of the bitmask `active`, in lexicographic order from
        the cursor `lower` on, whose `masks` share at least t bits: the subset
        and its first t shared bits, or None.  `partner` holds the other
        side's masks; masks hold active vertices only, `lower` need not."""
        t = self.t

        def extend(prefix: tuple, common: int, cand: int, tight: bool):
            k = len(prefix)
            if tight:
                cand = cand >> lower[k] << lower[k]
            for v in bits_of(cand):
                self.steps += 1
                if self.steps > self.budget:
                    inside = sum(math.comb(mask.bit_count(), t) for mask in partner)
                    raise BudgetExceeded(
                        f"{self.stage} stopped after {self.budget} search steps (budget "
                        f"{self.budget}); the neighbourhoods hold sum_b C(deg b, {t}) = "
                        f"{inside} {t}-subsets; raise --budget or {BUDGET_ENV_VAR}"
                    )
                shared = common & masks[v]
                if shared.bit_count() < t:
                    continue
                if k + 1 == t:
                    return prefix + (v,), tuple(itertools.islice(bits_of(shared), t))
                hop = 0
                for y in bits_of(shared):
                    hop |= partner[y]
                hop = hop >> (v + 1) << (v + 1)
                if found := extend(prefix + (v,), shared, hop, tight and v == lower[k]):
                    return found
            return None

        return extend((), -1, active, lower is not None)


def side_masks(g) -> tuple[list[int], list[int]]:
    """The bitmask of N(a) over the B indices for every a in A, and of N(b)
    over the A indices for every b in B, ORed from the edge arrays."""
    adj_a, adj_b = [0] * g.m, [0] * g.n
    for i, j in zip(g.rows.tolist(), g.cols.tolist()):
        adj_a[i] |= 1 << j
        adj_b[j] |= 1 << i
    return adj_a, adj_b


def mask_find_ktt_witness(g, t: int, budget: int = 2**62):
    """`find_ktt_witness` on `MaskBicliqueSearch`: the witness and the steps."""
    if min(g.m, g.n) < t:
        return None, 0
    search = MaskBicliqueSearch(t, budget, "witness search")
    adj_a, adj_b = side_masks(g)
    if g.m <= g.n:
        return search.first((1 << g.m) - 1, adj_a, adj_b), search.steps
    found = search.first((1 << g.n) - 1, adj_b, adj_a)
    return (None if found is None else (found[1], found[0])), search.steps


def mask_prune(g, t: int, budget: int = 2**62):
    """`prune_to_ktt_free` on bitmasks: (deleted_a, deleted_b, witnesses_found,
    steps).  Each deletion clears its vertex from every mask."""
    search = MaskBicliqueSearch(t, budget, "prune")
    adj = dict(zip("AB", side_masks(g)))
    active = {"A": (1 << g.m) - 1, "B": (1 << g.n) - 1}
    deleted: dict[str, list[int]] = {"A": [], "B": []}
    cursors: dict[str, Optional[tuple]] = {"A": None, "B": None}
    other = {"A": "B", "B": "A"}
    while (left_a := active["A"].bit_count()) >= t and (left_b := active["B"].bit_count()) >= t:
        side = "A" if left_a <= left_b else "B"
        found = search.first(active[side], adj[side], adj[other[side]], cursors[side])
        if found is None:
            break
        cursors[side] = found[0]
        witness = {side: found[0], other[side]: found[1]}
        vside, v = max(
            ((s, u) for s in "AB" for u in witness[s]),
            key=lambda su: (adj[su[0]][su[1]].bit_count(), su[0] == "B", -su[1]),
        )
        for u in bits_of(adj[vside][v]):
            adj[other[vside]][u] &= ~(1 << v)
        adj[vside][v] = 0
        active[vside] &= ~(1 << v)
        deleted[vside].append(v)
    return deleted["A"], deleted["B"], len(deleted["A"]) + len(deleted["B"]), search.steps


def _combos_at_least(pool, t: int, lower: Optional[tuple]):
    """t-combinations of sorted `pool` in lexicographic order, starting at the
    first combination >= `lower` (inclusive).  `lower` may reference values no
    longer in the pool."""
    if lower is None:
        return itertools.combinations(pool, t)
    if t == 0:
        return iter([()])
    i = bisect_left(pool, lower[0])
    head = ()
    if i < len(pool) and pool[i] == lower[0] and len(pool) - i >= t:
        rest_lower = tuple(lower[1:]) if len(lower) > 1 else None
        head = ((lower[0],) + rest for rest in _combos_at_least(pool[i + 1 :], t - 1, rest_lower))
        i += 1
    return itertools.chain(head, itertools.combinations(pool[i:], t))


def _lex_witness(
    pool, masks: list[int], t: int, lower: Optional[tuple] = None
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """First t-combination of sorted `pool`, in lexicographic order from the
    cursor `lower` on, whose neighbour masks share at least t bits.

    Returns the combination and the first t shared bits as its partner, or
    None.
    """
    for combo in _combos_at_least(pool, t, lower):
        common = masks[combo[0]]
        for v in combo[1:]:
            common &= masks[v]
            if not common:
                break
        if common.bit_count() >= t:
            return combo, tuple(itertools.islice(bits_of(common), t))
    return None


def all_pairs_ktt_free(g, t: int) -> bool:
    """The all-pairs form of `suite.naive_ktt_free`: every (A t-subset,
    B t-subset) pair is tested against the edge set."""
    for sa in itertools.combinations(range(g.m), t):
        for sb in itertools.combinations(range(g.n), t):
            if all((i, j) in g.edges for i in sa for j in sb):
                return False
    return True
