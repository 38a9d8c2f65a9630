"""Structure, loss accounting, and exact search for graphs without large
connected matchings."""

from .bounds import (
    AuditParams,
    AuditReport,
    HypothesisCheck,
    audit_coloring,
    check_hypotheses,
    erdos_gallai_check,
    small_components_bound,
)
from .constructions import (
    affine_plane_coloring,
    bounded_component_coloring,
    disjoint_cliques_coloring,
    random_coloring,
)
from .graphs import (
    ComponentLabeling,
    EdgeColoring,
    Graph,
    color_class,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    parse_graph,
    path_graph,
    serialize,
    star_graph,
    to_dot,
)
from .loss import (
    LossLedger,
    VertexClass,
    F_graph,
    F_vertex,
    check_F_inequality,
    check_f_inequality,
    classify_vertices,
    f_graph,
    f_vertex,
)
from .matching import (
    CMWitness,
    DeficiencyWitness,
    Matching,
    check_witness,
    find_mono_cm,
    matching_number,
    max_connected_matching,
    matching_of_size,
    maximum_matching,
    odd_components,
    tutte_berge,
)
from .partition import (
    PartitionReport,
    SQIPartition,
    component_partitions,
    partition_edge_bound,
    sqi_partition,
    verify_sqi,
)
from .search import (
    BUDGET_EXHAUSTED,
    CERTIFIED_NONE,
    FOUND,
    RamseyResult,
    SearchConfig,
    SearchResult,
    ramsey_cm,
    search_avoider,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
