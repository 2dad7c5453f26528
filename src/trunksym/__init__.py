"""Exact partition combinatorics for tensor products of truncated
symmetric powers: the Mullineux involution, the distinguished-partition
classifier, formal characters and an independent canonical-basis
decomposition-number oracle.

The public names resolve lazily (PEP 562): `trunksym.kostka` imports
`trunksym.characters` on first use, so a CLI call loads only the modules
its verb runs.  `mullineux` is imported eagerly, because the first import
of the submodule `trunksym.mullineux` would otherwise rebind the package
attribute of that name to the module.
"""

from importlib import import_module

from .mullineux import mullineux

# home module -> the public names it exports
_HOMES = {
    "partitions": (
        "EMPTY", "Node", "NodeSets", "Partition", "add", "addable_nodes", "cells", "dagger",
        "dominance_leq", "format_partition", "is_regular", "is_restricted", "l_core",
        "node_residue", "node_sets", "parse_partition", "partitions_of", "q_arrange",
        "regularity", "removable_nodes", "remove_node", "remove_rim_hook", "residue_content",
        "restricted_decompose", "rim_hooks", "transpose",
    ),
    "mullineux": (
        "LEdge", "add_l_edge", "edge_length", "find_co_suitable_node",
        "find_suitable_node_nonrestricted", "is_edge_l_connected", "l_edge", "mullineux",
        "mullineux_components", "mullineux_length", "mullineux_symbol", "remove_l_edge",
    ),
    "classify": (
        "GoodVerdict", "SpecialVerdict", "distinguished_decomposition", "enumerate_special",
        "is_distinguished", "is_m_good", "is_m_special", "phi_contains",
        "restricted_part_mull_length", "witness_is_valid",
    ),
    "characters": (
        "MonomialChar", "frobenius_stretch", "kostka", "monomials_to_schur", "pieri_h",
        "schur_to_monomials", "truncated_tensor_char", "verify_graded_free_identity",
    ),
    "fock": (
        "DecompositionMatrix", "FockVector", "canonical_column", "column_matrix",
        "decomposition_matrix", "f_apply", "ladder_monomial", "simple_label",
    ),
    "cache": ("CACHE_GENERATOR", "CacheIntegrityError", "cache_get", "cache_put", "load_or_compute"),
    "suites": ("SuiteReport", "run_suite", "suite_names"),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME_OF.get(name)
    if home is None:
        # lets `from trunksym import cli` fall back to importing the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME_OF.keys())
