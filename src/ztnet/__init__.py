"""Epsilon-t-nets over geometric intersection hypergraphs, biclique-free edge
bounds, and desk-scale verification of the counting arguments behind them."""

from .errors import (
    BudgetExceeded,
    DegenerateInput,
    InequalityViolated,
    InfeasibleNet,
    InvalidNet,
    ParamOutOfRange,
    PreconditionViolated,
    SchemaError,
)
from .geometry import (
    AxisRect,
    Disc,
    Frame,
    GeomObject,
    Point,
    Segment,
    check_general_position,
    intersects,
)
from .hypergraph import (
    BipartiteIntersectionGraph,
    CanonicalTupleFamily,
    ChainReport,
    Graph,
    Hypergraph,
    VCProfile,
    counting_chain,
    delaunay_graph,
    dual_hypergraph,
    primal_hypergraph,
    vc_dimension,
)
from .nets import (
    NetBuildTrace,
    TNet,
    greedy_cover_t_net,
    min_t_net_bruteforce,
    pseudodisc_t_net,
    sampled_epsilon_net,
    stacked_cover_set,
    verify_epsilon_net,
    verify_t_net,
)
from .zarankiewicz import (
    BoundReport,
    HeavyLightPartition,
    find_ktt_witness,
    heavy_count_check,
    heavy_light_partition,
    num_edges_bound,
)
from .generators import GenParams, PruneResult, generate, prune_to_ktt_free
from .rectangles import (
    IntersectionTypeCounts,
    canonical_segment_tuples,
    corner_incidence_graph,
    crossing_graph,
    hereditary_planarity_check,
    intersection_type_census,
    rectangle_bound_report,
    segment_delaunay,
)
from .points_pseudodiscs import (
    ShrinkEvent,
    counting_inequality_check,
    shrink_canonical_tuples,
    shrink_events,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
