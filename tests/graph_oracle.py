"""The tuple-set graphs that the row-major index arrays of
`BipartiteIntersectionGraph` and of the plain `Graph` replaced, kept as their
test oracles: the edge set is the stored form, `induced` relabels it through
dicts, and the neighbour lists are sorted from the tuples.  Also the
frozenset view of hyperedges that `Hypergraph`'s lists replaced, as helpers
for tests that state hyperedges as sets, and the bitmask helpers the mask
oracles build and read their side-long masks with (`bits_of`, which no part
of the package reads, left `ztnet.hypergraph` for here).  `delaunay_graph`, which no part of
the package reached, left `ztnet.hypergraph` for here."""

from dataclasses import dataclass
from typing import Iterable

from ztnet.hypergraph import Graph, Hypergraph, _edge_blocks


def bits_of(mask: int):
    """Yield the set bit positions of `mask` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits_of(mask))


@dataclass
class TupleGraph:
    side_a: list
    side_b: list
    edges: set[tuple[int, int]]

    @property
    def m(self) -> int:
        return len(self.side_a)

    @property
    def n(self) -> int:
        return len(self.side_b)

    @classmethod
    def from_families(cls, fam_a, fam_b) -> "TupleGraph":
        fam_a, fam_b = list(fam_a), list(fam_b)
        edges: set[tuple[int, int]] = set()
        for rows, cols in _edge_blocks(fam_a, fam_b):
            edges.update(zip(rows.tolist(), cols.tolist()))
        return cls(fam_a, fam_b, edges)

    @property
    def nbrs_a(self) -> list[list[int]]:
        rows: list[list[int]] = [[] for _ in range(self.m)]
        for i, j in sorted(self.edges):
            rows[i].append(j)
        return rows

    @property
    def nbrs_b(self) -> list[list[int]]:
        rows: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in sorted(self.edges):
            rows[j].append(i)
        return rows

    def degrees_a(self) -> list[int]:
        return [len(row) for row in self.nbrs_a]

    def degrees_b(self) -> list[int]:
        return [len(row) for row in self.nbrs_b]

    def induced(self, keep_a, keep_b) -> "TupleGraph":
        ka = sorted(set(keep_a))
        kb = sorted(set(keep_b))
        amap = {old: new for new, old in enumerate(ka)}
        bmap = {old: new for new, old in enumerate(kb)}
        edges = {(amap[i], bmap[j]) for i, j in self.edges if i in amap and j in bmap}
        return TupleGraph([self.side_a[i] for i in ka], [self.side_b[j] for j in kb], edges)


@dataclass
class TupleSetGraph:
    """Plain graph; edges are unordered index pairs stored as (i, j) with i < j."""

    vertex_count: int
    edges: set[tuple[int, int]]

    def __post_init__(self):
        for i, j in self.edges:
            if not (0 <= i < j < self.vertex_count):
                raise ValueError(f"bad edge ({i}, {j}) on {self.vertex_count} vertices")


def edge_set(g) -> set[tuple[int, int]]:
    """The edges of an array-backed graph as a set of (i, j) index pairs."""
    return set(zip(g.rows.tolist(), g.cols.tolist()))


def hypergraph_of(vertex_count: int, edges) -> Hypergraph:
    """Hypergraph from hyperedges given as vertex sets."""
    return Hypergraph(vertex_count, [sorted(e) for e in edges])


def hyperedges(h: Hypergraph) -> list[frozenset[int]]:
    """The hyperedges as vertex sets, repeats kept."""
    return [frozenset(e) for e in h.edges]


def distinct_hyperedges(h: Hypergraph) -> list[frozenset[int]]:
    """Distinct hyperedge sets, in first-occurrence order."""
    return list(dict.fromkeys(hyperedges(h)))


def delaunay_graph(h: Hypergraph) -> Graph:
    """Graph whose edges are the distinct hyperedges of cardinality exactly 2."""
    return Graph.from_edges(h.vertex_count, (tuple(e) for e in h.edges if len(e) == 2))
