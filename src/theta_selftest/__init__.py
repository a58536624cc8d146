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

The names are loaded on first use (PEP 562 `__getattr__`), so `import
theta_selftest` loads no numpy: `python -m theta_selftest` can still set
OpenBLAS's idle timeout before numpy loads it (see `__main__`).
"""

import importlib

# Each exported name under the submodule that defines it.
_EXPORTS = {
    "graphs": (
        "ResourceLimitError",
        "WeightedGraph",
        "circulant",
        "fractional_packing",
        "graph_from_json_dict",
        "independence_number",
    ),
    "sdp": ("SolverError", "min_eigenvalue"),
    "theta": (
        "MalformedCertificateError",
        "NotPsdError",
        "chained_dual_certificate",
        "chsh_primal_matrix",
        "dual_nondegenerate",
        "lovasz_theta",
        "mermin_primal_matrix",
        "mermin_seven_dim_check",
        "seven_dim_vectors",
        "solve_theta_problem",
        "verify_dual_certificate",
    ),
    "scenarios": (
        "BellWitness",
        "Realization",
        "builtin_witness",
        "evaluate_witness",
        "exclusivity_graph",
        "realization_from_json_dict",
        "reference_realization",
    ),
    "selftest": (
        "NotOptimizerError",
        "PreconditionError",
        "SelfTestError",
        "run_selftest",
    ),
}
# Exported names that differ from the name in their submodule.
_RENAMED = {"graph_from_json_dict": "from_json_dict"}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "1.0.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    submodule = importlib.import_module(f".{module}", __name__)
    return getattr(submodule, _RENAMED.get(name, name))

