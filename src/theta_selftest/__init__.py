"""Graph-theoretic bounds and constructive self-testing for Bell witnesses.

The package computes the weighted Lovasz theta number of vertex-weighted
exclusivity graphs with a hand-written interior-point SDP solver, certifies
the bound with closed-form dual certificates, decides uniqueness of the
optimizer via dual nondegeneracy, and extracts local isometries proving that
any candidate realization saturating the bound equals the reference one up
to local isometries and a junk state.

`__all__` holds the functions behind the command line and the README
examples, the input types they take, the readers of the documents the
command line reads and the errors they raise; every other name lives in its
submodule (`graphs`, `sdp`, `theta`, `scenarios`, `selftest`).
"""

from .graphs import (
    ResourceLimitError,
    WeightedGraph,
    circulant,
    fractional_packing,
    from_json_dict as graph_from_json_dict,
    independence_number,
)
from .sdp import SolverError, min_eigenvalue
from .theta import (
    MalformedCertificateError,
    NotPsdError,
    chained_dual_certificate,
    chsh_primal_matrix,
    dual_nondegenerate,
    lovasz_theta,
    mermin_primal_matrix,
    mermin_seven_dim_check,
    seven_dim_vectors,
    solve_theta_problem,
    verify_dual_certificate,
)
from .scenarios import (
    BellWitness,
    Realization,
    builtin_witness,
    evaluate_witness,
    exclusivity_graph,
    realization_from_json_dict,
    reference_realization,
)
from .selftest import (
    NotOptimizerError,
    PreconditionError,
    SelfTestError,
    run_selftest,
)

__version__ = "1.0.0"

__all__ = [
    "BellWitness",
    "MalformedCertificateError",
    "NotOptimizerError",
    "NotPsdError",
    "PreconditionError",
    "Realization",
    "ResourceLimitError",
    "SelfTestError",
    "SolverError",
    "WeightedGraph",
    "builtin_witness",
    "chained_dual_certificate",
    "chsh_primal_matrix",
    "circulant",
    "dual_nondegenerate",
    "evaluate_witness",
    "exclusivity_graph",
    "fractional_packing",
    "graph_from_json_dict",
    "independence_number",
    "lovasz_theta",
    "mermin_primal_matrix",
    "mermin_seven_dim_check",
    "min_eigenvalue",
    "realization_from_json_dict",
    "reference_realization",
    "run_selftest",
    "seven_dim_vectors",
    "solve_theta_problem",
    "verify_dual_certificate",
]
