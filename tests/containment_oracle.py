"""The row-side containment scans that `hypergraph.containing_rows` (on holder
lists), `hypergraph.counting_chain` and `points_pseudodiscs._uncovered`
replaced, kept as their test oracles: each tests every tuple against every
row, as bitmasks over the whole index range.  `counting_chain` states the
chain of `hypergraph.counting_chain` on that scan, and `rows_graph` builds
the graph whose N(b) lists are given rows, for the callers that take a graph."""

from graph_oracle import bits_of, mask_of

from ztnet.hypergraph import BipartiteIntersectionGraph


def rows_graph(rows: list[list[int]], size: int) -> BipartiteIntersectionGraph:
    """The graph on `size` A vertices and one B vertex per row, with N(b) the
    row b (a list of indices in 0..size-1)."""
    return BipartiteIntersectionGraph.from_edges(size, len(rows), [(i, b) for b, row in enumerate(rows) for i in row])


def containing_rows(tuples, rows: list[list[int]]) -> list[tuple[tuple[int, ...], list[int]]]:
    """(tuple, held) for each index tuple, `held` the ascending rows (lists of
    indices) that hold every member."""
    row_masks = [mask_of(row) for row in rows]
    return [(tp, [r for r, row in enumerate(row_masks) if mask_of(tp) & row == mask_of(tp)]) for tp in tuples]


def contained_counts(tuples, rows: list[list[int]]) -> list[int]:
    """For every row (a list of indices), how many of the index `tuples` lie
    inside it."""
    tuple_masks = [mask_of(tp) for tp in tuples]
    row_masks = [mask_of(row) for row in rows]
    return [sum(1 for tm in tuple_masks if tm & row == tm) for row in row_masks]


def uncovered(tuples, rows: list[list[int]], t: int) -> list[tuple[int, int]]:
    """(row, index) pairs where a row of at least t indices holds the index
    but none of the tuples inside the row does."""
    tuple_masks = [mask_of(tp) for tp in tuples]
    bad = []
    for j, row in enumerate(map(mask_of, rows)):
        if row.bit_count() < t:
            continue
        inside = [tm for tm in tuple_masks if tm & row == tm]
        for i in bits_of(row):
            if not any((tm >> i) & 1 for tm in inside):
                bad.append((j, i))
    return bad


def counting_chain(tuples, rows: list[list[int]], k: int, lower) -> tuple[list[int], bool]:
    """The per-row tuple counts, and whether the chain breaks: some row holds
    fewer than lower(|row|) tuples, or the counts sum past (k-1)|F|."""
    counts = contained_counts(tuples, rows)
    short = any(x < lower(len(row)) for x, row in zip(counts, rows))
    return counts, short or sum(counts) > (k - 1) * len(tuples)
