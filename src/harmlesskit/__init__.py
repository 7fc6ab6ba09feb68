"""harmlesskit: exact solvers, sparse kernelization and hardness instances
for the Harmless Set problem (select as many vertices as possible so that
every vertex keeps strictly fewer selected neighbours than its threshold).
"""

__version__ = "0.1.0"

from .errors import InvalidArgumentError, InvariantError, ParseError, ResourceLimitError
from .graph import (
    AnnotatedInstance,
    Graph,
    Instance,
    cap_thresholds,
    compute_core,
    is_harmless,
)
from .io import load_instance, load_instance_json, save_instance, save_instance_json
from .kernelize import (
    KernelReport,
    RemoveVertices,
    Stuck,
    YesCertificate,
    kernelize,
    shrink_graph_step,
    to_plain_kernel,
)
from .reduction import (
    MccInstance,
    ReductionOutput,
    build_reduction,
    construct_clique_solution,
    is_2_spider_forest,
    load_mcc,
    reduction_target_size,
    save_mcc,
    verify_reduction,
)
from .solvers import (
    brute_force_max,
    build_ilp,
    greedy_vertex_cover,
    ilp_solve,
    vc_solve,
)
from .sparsity import (
    DominationResult,
    Waterlily,
    build_waterlily,
    count_profiles,
    domination_scattered,
    projection_closure,
    projection_profile,
    r_projection,
    uqw_scattered,
    verify_waterlily,
)

__all__ = [
    "AnnotatedInstance",
    "DominationResult",
    "Graph",
    "Instance",
    "InvalidArgumentError",
    "InvariantError",
    "KernelReport",
    "MccInstance",
    "ParseError",
    "ReductionOutput",
    "RemoveVertices",
    "ResourceLimitError",
    "Stuck",
    "Waterlily",
    "YesCertificate",
    "brute_force_max",
    "build_ilp",
    "build_reduction",
    "build_waterlily",
    "cap_thresholds",
    "compute_core",
    "construct_clique_solution",
    "count_profiles",
    "domination_scattered",
    "greedy_vertex_cover",
    "ilp_solve",
    "is_2_spider_forest",
    "is_harmless",
    "kernelize",
    "load_instance",
    "load_instance_json",
    "load_mcc",
    "projection_closure",
    "projection_profile",
    "r_projection",
    "reduction_target_size",
    "save_instance",
    "save_instance_json",
    "save_mcc",
    "shrink_graph_step",
    "to_plain_kernel",
    "uqw_scattered",
    "vc_solve",
    "verify_reduction",
    "verify_waterlily",
]
