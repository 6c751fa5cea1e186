"""Reduction traces that encode bit-vector equality in an ordering query.

For two n-bit vectors the generator lays out a two-thread trace over
the variables {c, x0, x1, y0, y1, u}: the writer thread walks the first
vector, refreshing c around each selected y-variable, then writes and
reads the scratch variable u; the reader thread walks the second
vector, overwriting c after touching each selected variable, and
finally re-reads u.  Whether the bracketing pair on u — the writer's
r(u) and the reader's w(u) — can swap in some reads-from-equivalent
word comes down to whether the reader's c-writes can all slide between
the right writer fragments, which works out exactly when the vectors
are equal... in which case the pair must NOT swap.  Ordering two fixed
events under reads-from equivalence therefore distinguishes all 2^n
writer prefixes, which is the point of the construction: any one-pass
decision needs linear space.

Deciding the order itself is delegated to ``oracle.rf_unordered``, a
memoised search over the reads-from frontier states: each thread's
count of placed events and each variable's last placed write.  On this
family the failing states it remembers grow about fourfold each time n
doubles, while the streaming monitor's state is fixed by the alphabet.
"""

from dataclasses import dataclass

from .oracle import rf_unordered
from .trace import Event, Label, Run


@dataclass(frozen=True)
class EqualityInstance:
    """Two bit vectors of one length n >= 1."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        if len(self.a) != len(self.b):
            raise ValueError("need bit vectors of one length")
        if not self.a:
            raise ValueError("need at least one bit")
        if any(bit not in (0, 1) for bit in self.a + self.b):
            raise ValueError("bits must be 0 or 1")

    @classmethod
    def from_strings(cls, a: str, b: str) -> "EqualityInstance":
        for s in (a, b):
            if not s or s.strip("01"):
                raise ValueError("bit vectors are nonempty strings over 0/1, got %r" % (s,))
        return cls(tuple(map(int, a)), tuple(map(int, b)))

    @property
    def n(self) -> int:
        return len(self.a)


def gen_equality_trace(inst: EqualityInstance) -> tuple[Run, Event, Event]:
    """The reduction word for the instance, with the two query events:
    the writer thread's r(u) and the reader thread's w(u).

    Layout (t1 = writer of a, t2 = reader for b):
      t1: w(x_{1-a1}) w(c) w(x_{a1})          -- bit 1, decoy first
          [ w(y_{ai}) r(c) w(c) r(y_{ai}) ]   -- per further bit
          w(u) r(c) r(u)                      -- bridge, r(u) = theta1
      t2: w(u)                                -- bridge end, theta2
          r(x_{b1}) w(c)                      -- bit 1
          [ w(y_{bi}) w(c) ]                  -- per further bit
          r(u)                                -- keeps theta2 observed
    """
    a, b = inst.a, inst.b
    t1, t2 = "T1", "T2"
    labels: list[Label] = []

    def put(thread, op, var):
        labels.append(Label(thread, op, var))

    put(t1, "w", "x%d" % (1 - a[0]))
    put(t1, "w", "c")
    put(t1, "w", "x%d" % a[0])
    for bit in a[1:]:
        put(t1, "w", "y%d" % bit)
        put(t1, "r", "c")
        put(t1, "w", "c")
        put(t1, "r", "y%d" % bit)
    put(t1, "w", "u")
    put(t1, "r", "c")
    put(t1, "r", "u")
    put(t2, "w", "u")
    i_theta1, i_theta2 = len(labels) - 2, len(labels) - 1
    put(t2, "r", "x%d" % b[0])
    put(t2, "w", "c")
    for bit in b[1:]:
        put(t2, "w", "y%d" % bit)
        put(t2, "w", "c")
    put(t2, "r", "u")

    run = Run(labels)
    return run, run.events[i_theta1], run.events[i_theta2]


def ordered_in_class(run: Run, theta1: Event, theta2: Event) -> bool:
    """Does theta1 stay before theta2 in every reads-from-equivalent
    word?  Decided by ``rf_unordered``; the run itself is a member, so
    theta1 must also come first in it."""
    if theta1.label == theta2.label:
        raise ValueError("need two events with distinct labels")
    p1, p2 = run.position(theta1), run.position(theta2)
    return p1 < p2 and not rf_unordered(run, p1, p2)


def check_reduction(inst: EqualityInstance) -> bool:
    """The reduction's correctness property on one instance: the two
    query events are ordered under reads-from equivalence exactly when
    the vectors are equal."""
    run, theta1, theta2 = gen_equality_trace(inst)
    return ordered_in_class(run, theta1, theta2) == (inst.a == inst.b)
