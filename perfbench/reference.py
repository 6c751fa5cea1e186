"""Second-route answers for checking the program's outputs.

These routines work on the generator's plain event tuples
``(thread, op, variable, marked)`` and never call ``blockeq``.  Orders
are successor bitmasks over run positions.  Every edge of the orders
below points forward in run order, so one reverse pass closes them.
They are quadratic and meant for checking, outside the timed region.
"""

from __future__ import annotations

from itertools import combinations


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def dependent(a, b) -> bool:
    if a[0] == b[0]:
        return True
    return a[2] == b[2] and "w" in (a[1], b[1])


def writers(events) -> list[int]:
    """Per position, the position of the write a read observes (-1 for writes)."""
    last: dict[str, int] = {}
    out = []
    for i, (_, op, v, _) in enumerate(events):
        if op == "w":
            last[v] = i
            out.append(-1)
        else:
            out.append(last[v])
    return out


def block_owner(events) -> list[int]:
    """Per position, the position of its block's write, or -1 if unmarked."""
    rf = writers(events)
    return [(i if e[1] == "w" else rf[i]) if e[3] else -1 for i, e in enumerate(events)]


def _closed(n: int, edge) -> list[int]:
    succ = [0] * n
    for i in range(n - 1, -1, -1):
        acc = 0
        for j in range(i + 1, n):
            if not acc >> j & 1 and edge(i, j):
                acc |= (1 << j) | succ[j]
        succ[i] = acc
    return succ


def maz_order(events) -> list[int]:
    return _closed(len(events), lambda i, j: dependent(events[i], events[j]))


def block_order(events, owner=None) -> list[int]:
    """Dependent pairs, minus cross-thread pairs in two distinct blocks."""
    if owner is None:
        owner = block_owner(events)

    def edge(i, j):
        a, b = events[i], events[j]
        if not dependent(a, b):
            return False
        return a[0] == b[0] or owner[i] < 0 or owner[j] < 0 or owner[i] == owner[j]

    return _closed(len(events), edge)


def _reclose(succ: list[int]) -> None:
    for i in range(len(succ) - 1, -1, -1):
        acc = succ[i]
        for j in _bits(succ[i]):
            acc |= succ[j]
        succ[i] = acc


def saturated_order(events, owner=None) -> list[int]:
    """The block order closed under: a pair from block B to a block B' on
    the same variable orders B before B', and ordered blocks order all
    their members crosswise.  Members of one block share its variable."""
    if owner is None:
        owner = block_owner(events)
    succ = block_order(events, owner)
    members: dict[int, int] = {}
    for i, b in enumerate(owner):
        if b >= 0:
            members[b] = members.get(b, 0) | (1 << i)
    on_var: dict[str, int] = {}
    for b, m in members.items():
        v = events[b][2]
        on_var[v] = on_var.get(v, 0) | m
    pairs: set[tuple[int, int]] = set()
    while True:
        fresh = []
        for b, m in members.items():
            reach = 0
            for i in _bits(m):
                reach |= succ[i]
            reach &= on_var[events[b][2]] & ~m
            for b2 in {owner[j] for j in _bits(reach)}:
                if (b, b2) not in pairs:
                    pairs.add((b, b2))
                    fresh.append((b, b2))
        if not fresh:
            return succ
        for b, b2 in fresh:
            for i in _bits(members[b]):
                succ[i] |= members[b2]
        _reclose(succ)


def covering(succ: list[int]) -> list[str]:
    """Covering edges in the CLI's ``hb``/``bhb`` text form."""
    out = []
    for i, s in enumerate(succ):
        cov = s
        for j in _bits(s):
            cov &= ~succ[j]
        out.extend("e%d -> e%d" % (i + 1, j + 1) for j in _bits(cov))
    return out


def _nodes(events, owner) -> list[int]:
    """Node id per position: the block's write for members, else itself."""
    return [b if b >= 0 else i for i, b in enumerate(owner)]


def acyclic_quotient(succ: list[int], node: list[int]) -> bool:
    """Is the graph on nodes, with an edge wherever the order relates two
    events of distinct nodes, acyclic?"""
    out: dict[int, set[int]] = {k: set() for k in node}
    for i, s in enumerate(succ):
        for j in _bits(s):
            if node[i] != node[j]:
                out[node[i]].add(node[j])
    color = dict.fromkeys(out, 0)
    for root in out:
        if color[root]:
            continue
        stack = [(root, iter(out[root]))]
        color[root] = 1
        while stack:
            k, it = stack[-1]
            for m in it:
                if color[m] == 1:
                    return False
                if color[m] == 0:
                    color[m] = 1
                    stack.append((m, iter(out[m])))
                    break
            else:
                color[k] = 2
                stack.pop()
    return True


class Reference:
    """Second-route answers for one annotated trace, computed lazily."""

    def __init__(self, events):
        self.events = events
        self.owner = block_owner(events)
        self.node = _nodes(events, self.owner)
        self._cache: dict[str, object] = {}

    def _get(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    @property
    def maz(self) -> list[int]:
        return self._get("maz", lambda: maz_order(self.events))

    @property
    def bhb(self) -> list[int]:
        return self._get("bhb", lambda: block_order(self.events, self.owner))

    @property
    def sat(self) -> list[int]:
        return self._get("sat", lambda: saturated_order(self.events, self.owner))

    @property
    def atomic(self) -> bool:
        return self._get("atomic", lambda: acyclic_quotient(self.bhb, self.node))

    @property
    def serializable(self) -> bool:
        return self._get("ser", lambda: acyclic_quotient(self.maz, self.node))

    def unordered_pair(self, order: list[int], c, d) -> bool:
        """Do some occurrence of label ``c`` and some of label ``d`` stand
        unordered, in either run order?  Labels are (thread, op, var)."""
        for i, e in enumerate(self.events):
            if e[:3] not in (c, d):
                continue
            other = d if e[:3] == c else c
            for j in range(i + 1, len(self.events)):
                if self.events[j][:3] == other and not order[i] >> j & 1:
                    return True
        return False

    def conc_blocks(self, c, d) -> bool:
        return self.atomic and self.unordered_pair(self.sat, c, d)

    def conc_blocks_events(self, i: int, j: int) -> bool:
        """1-based positions, i < j."""
        return self.atomic and not self.sat[i - 1] >> (j - 1) & 1

    def conc_maz(self, c, d) -> bool:
        return self.unordered_pair(self.maz, c, d)

    def conc_maz_events(self, i: int, j: int) -> bool:
        return not self.maz[i - 1] >> (j - 1) & 1

    def witness_ok(self, witness) -> bool:
        """Is ``witness`` block-equivalent to the trace with every block
        contiguous?  Events are matched by (label, occurrence)."""
        ev = self.events
        if len(witness) != len(ev):
            return False

        def occurrences(seq):
            seen: dict[tuple, int] = {}
            keys = []
            for e in seq:
                seen[e] = seen.get(e, 0) + 1
                keys.append((e, seen[e]))
            return keys

        where = {k: p for p, k in enumerate(occurrences(witness))}
        try:
            pos = [where[k] for k in occurrences(ev)]
        except KeyError:
            return False
        succ = self.bhb
        for i in range(len(ev)):
            for j in _bits(succ[i]):
                if pos[i] >= pos[j]:
                    return False
        spans: dict[int, list[int]] = {}
        for i, b in enumerate(self.owner):
            if b >= 0:
                spans.setdefault(b, []).append(pos[i])
        return all(max(p) - min(p) + 1 == len(p) for p in spans.values())

    def conc_general(self, c, d) -> bool:
        """Some choice of blocks (any subset of the writes, each with all
        its readers) is liberally atomic and leaves the pair unordered."""
        core = [(t, op, v, False) for t, op, v, _ in self.events]
        rf = writers(core)
        ws = [i for i, e in enumerate(core) if e[1] == "w"]
        for k in range(len(ws) + 1):
            for chosen in combinations(ws, k):
                pick = set(chosen)
                marked = [
                    (t, op, v, (i if op == "w" else rf[i]) in pick)
                    for i, (t, op, v, _) in enumerate(core)
                ]
                ref = Reference(marked)
                if ref.conc_blocks(c, d):
                    return True
        return False


def linear_extensions(succ: list[int]) -> int:
    """Number of linear extensions of a strict order on n <= ~16 events:
    the size of a commutation class."""
    n = len(succ)
    pred = [0] * n
    for i, s in enumerate(succ):
        for j in _bits(s):
            pred[j] |= 1 << i
    ways = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for placed, w in ways.items():
            for j in range(n):
                if not placed >> j & 1 and pred[j] & ~placed == 0:
                    key = placed | (1 << j)
                    nxt[key] = nxt.get(key, 0) + w
        ways = nxt
    return sum(ways.values())


def equality_trace(a: str, b: str) -> tuple[list[str], int, int]:
    """The hardness family's trace for bit strings ``a`` and ``b``, as
    text lines, with the 1-based positions of its two marker events
    (the writer thread's ``r u`` and the reader thread's ``w u``)."""
    lines = ["T1 w x%d" % (1 - int(a[0])), "T1 w c", "T1 w x%s" % a[0]]
    for bit in a[1:]:
        lines += ["T1 w y%s" % bit, "T1 r c", "T1 w c", "T1 r y%s" % bit]
    lines += ["T1 w u", "T1 r c", "T1 r u", "T2 w u"]
    markers = (len(lines) - 1, len(lines))
    lines += ["T2 r x%s" % b[0], "T2 w c"]
    for bit in b[1:]:
        lines += ["T2 w y%s" % bit, "T2 w c"]
    lines.append("T2 r u")
    return lines, markers[0], markers[1]
