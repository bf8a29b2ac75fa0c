"""The lexicographic t-subset scan that `BicliqueSearch` replaced, kept as its
test oracle: it walks every t-subset of the pool, not only those inside a
neighbourhood.

The all-pairs form of the suite's `naive_ktt_free`, which now counts common
neighbours per t-subset of A instead, kept as its oracle."""

import itertools
from bisect import bisect_left
from typing import Optional

from ztnet.hypergraph import bits_of


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
