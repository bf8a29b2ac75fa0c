"""The tuple-set graphs that the row-major index arrays of
`BipartiteIntersectionGraph` and of the plain `Graph` replaced, kept as their
test oracles: the edge set is the stored form, `induced` relabels it through
dicts, and the neighbour masks are ORed from the tuples.  Also the frozenset
view of hyperedges that `Hypergraph`'s masks replaced, as helpers for tests
that state hyperedges as sets."""

from dataclasses import dataclass

from ztnet.hypergraph import Hypergraph, _edge_blocks, mask_of, set_of


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
    def adj_a(self) -> list[int]:
        adj = [0] * self.m
        for i, j in self.edges:
            adj[i] |= 1 << j
        return adj

    @property
    def adj_b(self) -> list[int]:
        adj = [0] * self.n
        for i, j in self.edges:
            adj[j] |= 1 << i
        return adj

    def degrees_a(self) -> list[int]:
        return [mask.bit_count() for mask in self.adj_a]

    def degrees_b(self) -> list[int]:
        return [mask.bit_count() for mask in self.adj_b]

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
    return Hypergraph(vertex_count, [mask_of(e) for e in edges])


def hyperedges(h: Hypergraph) -> list[frozenset[int]]:
    """The hyperedges as vertex sets, repeats kept."""
    return [set_of(em) for em in h.edge_masks]


def distinct_hyperedges(h: Hypergraph) -> list[frozenset[int]]:
    """Distinct hyperedge sets, in first-occurrence order."""
    return list(dict.fromkeys(hyperedges(h)))
