"""Graph-theoretic bounds and constructive self-testing for Bell witnesses.

The package computes the weighted Lovasz theta number of vertex-weighted
exclusivity graphs with a hand-written interior-point SDP solver, certifies
the bound with closed-form dual certificates, decides uniqueness of the
optimizer via dual nondegeneracy, and extracts local isometries proving that
any candidate realization saturating the bound equals the reference one up
to local isometries and a junk state.

Each name is imported from the submodule that defines it (`graphs`, `sdp`,
`theta`, `scenarios`, `selftest`, `cli`); the package root re-exports
nothing, so `import theta_selftest` loads no numpy and `python -m
theta_selftest` can set OpenBLAS's idle timeout before numpy loads it (see
`__main__`).
"""

__version__ = "1.0.0"
