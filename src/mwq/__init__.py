"""Exact Mordell-Weil lattice computations for irreducible plane quartics and
their even tangential conics: the quadratic-residue symbol of a conic mod a
quartic, conic counts from lattice enumeration, and Zariski-pair verdicts.

The API lives in the submodules (`mwq.poly`, `mwq.surface`, `mwq.lattice`,
`mwq.mwtable`, `mwq.quartic`, `mwq.parsing`, `mwq.replay`, `mwq.cli`)."""

from .poly import InternalInconsistencyError

__version__ = "0.1.0"
