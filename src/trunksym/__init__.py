"""Exact partition combinatorics for tensor products of truncated
symmetric powers: the Mullineux involution, the distinguished-partition
classifier, formal characters and an independent canonical-basis
decomposition-number oracle."""

from .partitions import (
    EMPTY,
    Node,
    NodeSets,
    Partition,
    add,
    addable_nodes,
    add_node,
    cells,
    concatenate,
    dagger,
    dominance_leq,
    format_partition,
    is_regular,
    is_restricted,
    l_core,
    node_residue,
    node_sets,
    parse_partition,
    partitions_of,
    q_arrange,
    regularity,
    removable_nodes,
    remove_node,
    remove_rim_hook,
    residue_content,
    restricted_decompose,
    rim_hooks,
    transpose,
    union,
)
from .mullineux import (
    LEdge,
    MullineuxSymbol,
    add_l_edge,
    edge_length,
    find_co_suitable_node,
    find_suitable_node_nonrestricted,
    is_edge_l_connected,
    l_edge,
    mullineux,
    mullineux_components,
    mullineux_length,
    mullineux_symbol,
    remove_l_edge,
    rim,
)
from .classify import (
    GoodVerdict,
    SpecialVerdict,
    distinguished_decomposition,
    enumerate_special,
    is_distinguished,
    is_m_good,
    is_m_special,
    phi_contains,
    restricted_part_mull_length,
    witness_is_valid,
)
from .characters import (
    MonomialChar,
    SchurExpansion,
    frobenius_stretch,
    full_power_char,
    kostka,
    monomials_to_schur,
    pieri_e,
    pieri_h,
    schur_to_monomials,
    truncated_power_char,
    truncated_tensor_char,
    verify_graded_free_identity,
)
from .fock import (
    DecompositionMatrix,
    FockVector,
    LaurentPoly,
    canonical_column,
    column_matrix,
    decomposition_matrix,
    f_apply,
    ladder_monomial,
    nabla_multiplicity,
)
from .cache import (
    CACHE_GENERATOR,
    CacheIntegrityError,
    cache_get,
    cache_put,
    load_or_compute,
)
from .suites import SuiteReport, run_suite, suite_names

__version__ = "0.1.0"
