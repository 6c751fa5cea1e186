"""Liberal atomicity and conflict serializability.

Offline, a block set is liberally atomic exactly when its block graph is
acyclic: one node per block plus one singleton node per unblocked event,
with an edge wherever the block happens-before order relates two events
sitting in distinct nodes.  Acyclicity means the run can be reordered,
without leaving its block equivalence class, into a run where every
block is contiguous.

The decisions never close the order.  ``_condense`` collapses the
*direct* edges of the block order (or of the commutation order, for
conflict serializability) onto the nodes.  That graph has fewer edges
than the quotient of the closed order, but the same reachability:
every edge of the closed quotient is a path of direct edges, which
visits nodes in turn and so is a path of the direct quotient, and every
direct quotient edge is a closed quotient edge.  Equal reachability
gives equal acyclicity.  It also gives the same lowest-index-first Kahn
order, because a node becomes ready exactly when all of its ancestors
have been emitted, so ``serial_witness`` is unchanged.  Both the direct
edges and their quotient have O(n·|Σ|) edges, where the closed quotient
can be quadratic.  Only the public ``block_graph`` quotients the closed
block order, because its edge set is what ``atomicity --format dot``
prints; ``_quotient`` folds each node's closed rows into one mask and
maps that mask's positions to nodes.

Every graph here is given as lists: each position's successor positions
(``BlockSet._edges``), each node's member positions and successor nodes
(``_condense``), and ``topological_order`` reads successor lists.
blocks.py holds ``_condense``, and a ``BlockSet`` builds its direct
edges and its block graph's Kahn order there once: ``is_liberally_atomic``
and ``serial_witness`` share that order, and ``saturate`` those edges.
With no blocks every node is one event and every direct edge points
forward, so all three decisions answer yes, the witness being the run
itself, without building either.  ``BlockGraph`` keeps each node's
successors as a mask over nodes, its public shape, and the streaming
check keeps its summarized graph as masks and lists them for Kahn on
every step.

The streaming check keeps a *summarized* conflict graph instead: at most
one node per variable (the block on that variable that began most
recently), and edges that stand for whole paths of the offline graph
through nodes that are no longer active.  Reachability into the arriving
event is read off the saturation monitor's after sets, consulted through
two per-variable registers: for each active block, the symbols of its
members, whose one write symbol starts the block, and the symbols of
unblocked events and dead blocks its summarized paths run through.  One
pass over the active nodes finds those that reach the arriving event:
a marked event gains an edge from each, an unmarked one is recorded as
a witness of each.  When a fresh block replaces the active block on its
variable, the dropped node's incident edges are composed pairwise and
its witness symbols are folded into every predecessor, so the paths it
stood for survive the removal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from . import monitor
from .blocks import BlockSet, _condense, _nodes, blocks_from_annotation, topological_order
from .monitor import SatState, sat_initial, sat_step, symbols_of
from .orders import bits, block_hb
from .trace import AnnLabel, Event, Run, Universe


class BlockGraph:
    """Conflict graph of a block set.

    ``nodes`` is a tuple of event tuples (each in run order, first event
    earliest); blocks and unblocked singletons together partition the
    run's events.  ``succ[i]`` is the mask of the nodes j such that some
    event of node i is ordered before some event of node j.
    """

    def __init__(self, nodes: tuple[tuple[Event, ...], ...], succ: list[int]):
        self.nodes = nodes
        self.succ = succ

    def __len__(self):
        return len(self.nodes)


_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _quotient(run: Run, blocks: BlockSet, succ: Sequence[int]) -> BlockGraph:
    """The order given by the successor masks ``succ`` collapsed onto the
    nodes of ``_nodes``.  Each node's rows are folded into one mask
    before its positions are mapped to nodes, so a position is looked
    up once per node, not once per member, and only one folded row is
    listed at a time.  Closed rows are dense, so a row is listed from
    its binary digits in one linear scan rather than bit by bit."""
    node_of, members = _nodes(blocks)
    node_succ = []
    for k, nodes in enumerate(members):
        row = 0
        for i in nodes:
            row |= succ[i]
        hit = set(compress(node_of, bin(row)[:1:-1].encode().translate(_DIGITS)))
        hit.discard(k)
        node_succ.append(sum(1 << m for m in hit))
    ev = run.events
    return BlockGraph(tuple(tuple(ev[i] for i in m) for m in members), node_succ)


def block_graph(run: Run, blocks: BlockSet) -> BlockGraph:
    """Nodes are the blocks plus singleton unblocked events; edges follow
    the closed block happens-before order between distinct nodes."""
    return _quotient(run, blocks, block_hb(run, blocks).succ)


def is_liberally_atomic(run: Run, blocks: BlockSet) -> bool:
    return not blocks.writes or blocks._serial is not None


def is_conflict_serializable(run: Run, blocks: BlockSet) -> bool:
    """Classic conflict serializability with the blocks as transactions
    and every unblocked event as a unit transaction: the plain
    commutation order collapsed onto the same nodes, with no exemption
    for cross-thread block pairs, must be acyclic."""
    return not blocks.writes or topological_order(
        _condense(blocks, BlockSet(run, ())._edges)[1]) is not None


def serial_witness(run: Run, blocks: BlockSet) -> Run:
    """A run in the same block equivalence class in which every block is
    contiguous.  Emits the block-graph nodes in topological order (ties
    broken toward the node that starts earliest), each node's events in
    their original order; every happens-before pair is respected either
    inside a node or by the topological order, so the result is always a
    proper linearization."""
    if not blocks.writes:
        return run
    serial = blocks._serial
    if serial is None:
        raise ValueError("blocks are not liberally atomic; no serial witness exists")
    picked = [i for members in serial for i in members]
    return Run([run.labels[i] for i in picked], [run.annotations[i] for i in picked])


# ---- streaming check ------------------------------------------------------

@dataclass(frozen=True)
class LibAtState:
    """State of the streaming liberal-atomicity check.

    ``edges`` holds, per variable, the successor mask of its node in the
    summarized conflict graph: bit x of ``edges[y]`` asserts a path from
    the active block on variable y to the active block on variable x
    whose inner nodes are all inactive.
    Per variable, ``members`` holds the symbol mask of the active block's
    members so far, empty while the variable has no active block; its
    one write symbol began the block.  ``reach`` holds the witness mask:
    symbols whose events sit on paths out of the node through unblocked
    events and superseded blocks.  The registers outlive the
    running-block set of the saturation component, which forgets a block
    as soon as an unmarked write intervenes even though the block stays
    the node for its variable.  ``rejected`` is absorbing: once a
    prefix's summarized graph turns cyclic no extension is liberally
    atomic.  The saturation component keeps stepping either way so
    stream validation and state size stay uniform.
    """

    sat: SatState
    edges: tuple[int, ...]
    members: tuple[int, ...]
    reach: tuple[int, ...]
    rejected: bool = False

    def accepting(self) -> bool:
        return not self.rejected


def libat_initial(universe: Universe) -> LibAtState:
    nx = len(universe.variables)
    return LibAtState(sat_initial(universe), (0,) * nx, (0,) * nx, (0,) * nx, False)


def _witnessed(sat: SatState, mask: int, abit: int) -> bool:
    """True when the after set of any symbol in ``mask`` holds ``abit``.
    Occurrences of one symbol share a thread, hence chain in program
    order, so a hit through a stale occurrence still stands for a real
    path into the arriving event."""
    return any(sat.aft[b] & abit for b in bits(mask))


def libat_step(state: LibAtState, sym: AnnLabel) -> LibAtState:
    sat = sat_step(state.sat, sym)
    if state.rejected:
        return LibAtState(sat, state.edges, state.members, state.reach, True)
    lab, marked = sym
    u = sat.universe
    ai = u.index(sym)
    abit = 1 << ai
    xi = u.var_index[lab.variable]
    # an unmarked arrival changes the witness registers only
    edges, members, reach = state.edges, state.members, list(state.reach)

    if marked:
        edges, members = list(edges), list(members)
        if lab.is_write():
            if members[xi]:
                # a new block replaces the active one on this variable:
                # fold the dropped node's witness symbols into every
                # predecessor and compose its incident edges pairwise, so
                # the paths it stood for survive the removal
                carry = members[xi] | reach[xi]
                xbit, outof = 1 << xi, edges[xi]
                edges[xi] = 0
                for p, e in enumerate(edges):
                    if e & xbit:
                        reach[p] |= carry
                        assert not outof >> p & 1, "composition on an acyclic graph cannot close a loop"
                        edges[p] = e & ~xbit | outof
            members[xi] = abit
            reach[xi] = 0
        else:
            members[xi] |= abit
    composed = tuple(edges)

    # every active node that reaches the arriving event, directly from its
    # block's write or through its recorded witnesses: a marked event is a
    # member of the active block on xi and gets an edge from the node; an
    # unblocked event never becomes a node of its own, but paths out of the
    # node may run through it, so it is recorded as a witness.  A block
    # trivially reaches its own members, so a self loop needs a path that
    # leaves the node and returns, which only its witnesses can certify.
    own = xi if marked else -1
    aft, wm = sat.aft, u.write_mask
    for y, m in enumerate(members):
        if m and (y != own and aft[(m & wm).bit_length() - 1] & abit
                  or reach[y] and _witnessed(sat, reach[y], abit)):
            if marked:
                edges[y] |= 1 << xi
            else:
                reach[y] |= abit

    # the graph was acyclic before this step, and composing a dropped
    # node's edges keeps it so (a cycle afterwards would map back to one
    # through that node), so only an edge added just now can close one
    out = tuple(edges)
    rejected = out != composed and topological_order([list(bits(m)) for m in out]) is None
    return LibAtState(sat, out, tuple(members), tuple(reach), rejected)


def libat_run(aw: Run) -> bool:
    """Feed a well-annotated run through the streaming check; True means
    the annotated blocks are liberally atomic."""
    blocks_from_annotation(aw)  # validates the annotation, raises otherwise
    q = libat_initial(aw.universe)
    for s in symbols_of(aw):
        q = libat_step(q, s)
    return q.accepting()


def canonical_text(state: LibAtState) -> str:
    """Fixed-width rendering: reject flag, the edge set as one bitmask
    over variable pairs, per variable the index of the active block's
    write (-1 before any block) and the two registers, then the
    saturation state.  Byte length depends only on the universe."""
    u = state.sat.universe
    nx = len(u.variables)
    nsym = len(u.symbols)
    mask = sum(out << y * nx for y, out in enumerate(state.edges))
    ewidth = max(1, (nx * nx + 3) // 4)
    swidth = max(1, (nsym + 3) // 4)
    dwidth = len(str(nsym))  # write indices are -1 .. nsym-1
    lines = ["rej %d" % (1 if state.rejected else 0), "edges %0*x" % (ewidth, mask)]
    for v in range(nx):
        lines.append(
            "node %s %*d %0*x %0*x"
            % (
                u.variables[v],
                dwidth + 1,
                (state.members[v] & u.write_mask).bit_length() - 1,
                swidth,
                state.members[v],
                swidth,
                state.reach[v],
            )
        )
    return "\n".join(lines) + "\n" + monitor.canonical_text(state.sat)
