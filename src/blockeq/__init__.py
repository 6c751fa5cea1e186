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
    is_well_annotated,
    parse_block_selector,
)
from .concurrency import (
    GIVEN_BLOCKS,
    MAZURKIEWICZ,
    MODES,
    MOST_GENERAL,
    ConcState,
    conc_events,
    conc_initial,
    conc_step,
    conc_symbols_blocks,
    conc_symbols_general,
    conc_symbols_maz,
    inner_pair_positions,
)
from .hardness import EqualityInstance, check_reduction, gen_equality_trace, ordered_in_class
from .monitor import SatState, sat_initial, sat_step, symbols_of
from .oracle import (
    RF_BOUND,
    SWAP_BOUND,
    BoundExceeded,
    EquivClass,
    enum_block_class,
    enum_maz_class,
    enum_rf_class,
    proper_topological_sort,
)
from .orders import PartialOrder, SaturationResult, block_hb, mazurkiewicz_hb, saturate
from .trace import (
    READ,
    WRITE,
    AnnLabel,
    Event,
    Label,
    Run,
    TraceError,
    Universe,
    conflicting,
    parse_run,
    parse_symbol,
)

__all__ = [name for name in dir() if not name.startswith("_")]
