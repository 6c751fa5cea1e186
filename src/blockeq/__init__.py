"""Commutativity-based equivalence analysis for concurrent read/write runs.

The package decides when two runs — or two events within one run — are
equivalent under three progressively coarser relations: plain commutation
of independent events, commutation extended with swaps of atomic blocks,
and preservation of program order plus reads-from.  It ships streaming
monitors whose state size is independent of the run length, brute-force
enumeration oracles that certify them at desk scale, and a CLI.
"""

from .atomicity import (
    BlockGraph,
    LibAtState,
    block_graph,
    is_conflict_serializable,
    is_liberally_atomic,
    libat_initial,
    libat_run,
    libat_step,
    serial_witness,
)
from .blocks import (
    Block,
    BlockSet,
    all_block_sets,
    annotate,
    blocks_from_annotation,
    blocks_from_writes,
    candidate_blocks,
    is_well_annotated,
    parse_block_selector,
)
from .concurrency import (
    GIVEN_BLOCKS,
    MAZURKIEWICZ,
    MODES,
    MOST_GENERAL,
    ConcQuery,
    ConcState,
    conc_decide,
    conc_events,
    conc_initial,
    conc_step,
    conc_symbols_blocks,
    conc_symbols_general,
    conc_symbols_maz,
    inner_pair_positions,
)
from .hardness import EqualityInstance, check_reduction, gen_equality_trace, ordered_in_class
from .monitor import (
    SatState,
    Universe,
    sat_initial,
    sat_run,
    sat_step,
    symbols_of,
)
from .oracle import (
    RF_BOUND,
    SWAP_BOUND,
    BoundExceeded,
    EquivClass,
    check_scope,
    count_linear_extensions,
    enum_block_class,
    enum_maz_class,
    enum_rf_class,
    intersection_order,
    proper_linearizations,
    proper_topological_sort,
)
from .orders import (
    PartialOrder,
    SaturationResult,
    after_set,
    ann_label,
    block_hb,
    is_proper_linearization,
    mazurkiewicz_hb,
    saturate,
)
from .trace import (
    READ,
    WRITE,
    AnnLabel,
    Event,
    Label,
    Run,
    TraceError,
    conflicting,
    interleave_threads,
    parse_run,
    parse_symbol,
    same_equiv_rf,
)

__all__ = [name for name in dir() if not name.startswith("_")]
