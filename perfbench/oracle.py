"""Answers computed apart from mbca: a lasso simulator and closed forms.

Nothing here imports mbca.  The simulator reads a machine only as its table
of ``(source, letter, level, target, delta)`` rows, so a fault in the
program's own simulator or analysis cannot hide behind the check.
"""

from __future__ import annotations


class Table:
    """A machine's transition table, initial state and accept family."""

    def __init__(self, rows, initial: str, accept_family):
        self.move = {(src, letter, level): (dst, delta) for src, letter, level, dst, delta in rows}
        self.states = {src for src, *_ in rows} | {row[3] for row in rows} | {initial}
        self.initial = initial
        self.accept = {frozenset(f) for f in accept_family}
        self.max_gain = max((row[4] for row in rows), default=0)

    @classmethod
    def of(cls, machine) -> "Table":
        """Read the table off an mbca machine object (its data fields only)."""
        return cls(machine.transitions, machine.initial, machine.accept_family)

    def step(self, state: str, counter: int, letter: str):
        moved = self.move.get((state, letter, "Z" if counter == 0 else "I"))
        if moved is None:
            return None
        return moved[0], counter + moved[1]


def lasso_inf(table: Table, prefix, period) -> frozenset[str] | None:
    """Inf of the run on ``prefix . period^omega``; None when the run blocks.

    After the prefix the run is cut at period boundaries.  When a state
    recurs at a boundary with a counter no lower than before, the rounds in
    between replay forever (the counter is blind, so a higher counter changes
    no move), and Inf is the set of states those rounds pass through.  Each
    state's boundary counters must otherwise strictly fall, which bounds the
    number of rounds.
    """
    state, counter = table.initial, 0
    for letter in prefix:
        nxt = table.step(state, counter, letter)
        if nxt is None:
            return None
        state, counter = nxt
    seen: dict[str, list[tuple[int, int]]] = {}
    rounds: list[set[str]] = []
    k = len(table.states)
    limit = k * (counter + k * max(table.max_gain, 1) * len(period) + 1) + 2
    for index in range(limit):
        for earlier, earlier_counter in seen.get(state, ()):
            if counter >= earlier_counter:
                return frozenset().union(*rounds[earlier:])
        seen.setdefault(state, []).append((index, counter))
        visited = set()
        for letter in period:
            nxt = table.step(state, counter, letter)
            if nxt is None:
                return None
            state, counter = nxt
            visited.add(state)
        rounds.append(visited)
    raise RuntimeError(f"no recurrence within {limit} rounds")


def accepts(table: Table, prefix, period) -> bool:
    inf = lasso_inf(table, prefix, period)
    return inf is not None and inf in table.accept


# -- closed forms for the reference machines in machines/ -----------------------
#
# A1:      q0 counts a's up, q1 counts b's down (positive level only), c moves
#          to the accepting sink q2 at any counter.
# G_OMEGA: p counts a's up, b moves to qp; each d alternates qp <-> qn and
#          decrements (positive level only); c loops in place; accept {qp}.


def a1_accepts_anbp_c(n: int, p: int) -> bool:
    """A1 on ``a^n b^p ; c``: the b's need p <= n, then c parks in q2."""
    return p <= n


def g_omega_accepts_anbdj_c(n: int, j: int) -> bool:
    """G_OMEGA on ``a^n b d^j ; c``: j d's need j <= n and end in qp iff j is even."""
    return j <= n and j % 2 == 0


def g_omega_accepts_anb_cd(n: int) -> bool:
    """G_OMEGA on ``a^n b ; c d``: every period spends one unit, so the run blocks."""
    return False


# Names the repository's README states for machines/, and the two trivial
# machines: ALL has one accepting self-loop (one positive set, m = n = 1),
# NONE one rejecting self-loop, so the two are dual.
MACHINE_NAMES = {
    "A1": "D_1^2",
    "G_OMEGA": "D_1^w*1+1",
    "ALL": "C_1^1",
    "NONE": "D_1^1",
}


def spec_name(spec: str) -> str:
    """The name a canonical machine for a one-block class spec must get.

    C and D specs name themselves; an E block has no C/D tail, so its name
    ends in the bare terminal E.
    """
    return spec + " E" if spec.startswith("E") else spec


MIRROR = {"less": "greater", "greater": "less", "equivalent": "equivalent", "dual": "dual"}
