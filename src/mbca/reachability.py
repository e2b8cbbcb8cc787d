"""Reachable counter sets per state: exact bounded core plus pumped tails.

The bounded core is a plain BFS over configurations up to the cutoff
B = (|K|+1) * (max positive delta + 1) * (|K|+2), which is conservative for
desk-scale machines.  Unboundedness at a state is witnessed by a positive
cycle somewhere en route; tails are reported as a single arithmetic
progression whose threshold sits above the finite picture and whose period is
the gcd of the cycle gains combinable at one pump state (a Frobenius slack
makes every claimed value concretely witnessable).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .automaton import LEVEL_ZERO, Configuration, Mbca, MbcaError, memo


class UnreachableTarget(MbcaError):
    pass


@dataclass(frozen=True)
class StateReach:
    finite: frozenset[int]
    tail: tuple[int, int] | None  # (threshold, period): threshold + k*period all reachable

    def contains(self, value: int) -> bool:
        if value in self.finite:
            return True
        if self.tail is None:
            return False
        t, d = self.tail
        return value >= t and (value - t) % d == 0

    def has_value_at_least(self, floor: int) -> bool:
        if self.tail is not None:
            return True
        return any(v >= floor for v in self.finite)

    def least_value_at_least(self, floor: int) -> int | None:
        candidates = [v for v in self.finite if v >= floor]
        if self.tail is not None:
            t, d = self.tail
            candidates.append(t if t >= floor else t + ((floor - t + d - 1) // d) * d)
        return min(candidates) if candidates else None


@dataclass(frozen=True)
class ReachSet:
    per_state: dict[str, StateReach]

    def at(self, state: str) -> StateReach:
        return self.per_state.get(state, StateReach(frozenset(), None))


def cutoff(machine: Mbca) -> int:
    k = len(machine.states)
    return (k + 1) * (machine.max_positive_delta() + 1) * (k + 2)


class _MoveTable:
    """Per-state successor lists, split by level, plus machine-level pump hints."""

    def __init__(self, machine: Mbca):
        self.zero: dict[str, list[tuple[str, str, int]]] = {q: [] for q in machine.states}
        self.pos: dict[str, list[tuple[str, str, int]]] = {q: [] for q in machine.states}
        for t in machine.transitions:
            bucket = self.zero if t.level == LEVEL_ZERO else self.pos
            bucket[t.source].append((t.letter, t.target, t.delta))
        self.cutoff = cutoff(machine)
        if machine.max_positive_delta() == 0:
            self.pump_capable: frozenset[str] = frozenset()
        else:
            capable = []
            probe = self.cutoff
            for q in machine.states:
                local = _bfs(self, (q, probe), probe + self.cutoff)
                if any(s == q and c > probe for (s, c) in local):
                    capable.append(q)
            self.pump_capable = frozenset(capable)


def _bfs(moves: _MoveTable, start: tuple[str, int], cap: int):
    """Exact forward exploration with parent pointers, counters <= cap."""
    parents: dict[tuple[str, int], tuple | None] = {start: None}
    frontier = [start]
    zero, pos = moves.zero, moves.pos
    while frontier:
        nxt: list[tuple[str, int]] = []
        for cfg in frontier:
            state, counter = cfg
            for letter, target, delta in (zero if counter == 0 else pos)[state]:
                ncounter = counter + delta
                succ = (target, ncounter)
                if ncounter <= cap and succ not in parents:
                    parents[succ] = (cfg, letter)
                    nxt.append(succ)
        frontier = nxt
    return parents


def _path_letters(parents, target: tuple[str, int]) -> list[str]:
    letters: list[str] = []
    cfg = target
    while parents[cfg] is not None:
        cfg, letter = parents[cfg]
        letters.append(letter)
    letters.reverse()
    return letters


class ReachAnalysis:
    """reach() result with enough bookkeeping to rebuild witness paths."""

    def __init__(self, machine: Mbca, start: Configuration):
        self.machine = machine
        self.start = (start.state, start.counter)
        self._moves = memo(machine, "moves", lambda: _MoveTable(machine))
        b = self._moves.cutoff
        self._cap = start.counter + b
        self._parents = _bfs(self._moves, self.start, self._cap)
        found: dict[str, set[int]] = {}
        for state, counter in self._parents:
            found.setdefault(state, set()).add(counter)
        self._found = found
        self._pumps = self._find_pumps(b)
        self._tails = self._build_tails(b)
        per_state = {
            q: StateReach(frozenset(values), self._tails[q][0] if q in self._tails else None)
            for q, values in found.items()
        }
        # thresholds sit above the finite picture, so the finite part stays exact
        self.reach_set = ReachSet(per_state)

    # -- pumping --------------------------------------------------------

    def _find_pumps(self, b: int):
        """Per pump-capable state, the cycle gains from its highest explored counter.

        Any genuinely iterable positive cycle is valid from some explored
        configuration, hence (shift monotonicity) from the highest one.
        """
        pumps = {}
        for p in self._moves.pump_capable:
            if p not in self._found:
                continue
            hi = max(self._found[p])
            local = _bfs(self._moves, (p, hi), hi + b)
            gains = sorted(c - hi for (s, c) in local if s == p and c > hi)
            if gains:
                pumps[p] = (hi, gains, local)
        return pumps

    def _build_tails(self, b: int):
        tails: dict[str, tuple[tuple[int, int], dict]] = {}
        for p, (hi, gains, cycle_parents) in self._pumps.items():
            g = gains[0]
            for extra in gains[1:]:
                g = gcd(g, extra)
            slack = _semigroup_slack(gains, g)
            sat = hi + slack + (b // g + 1) * g
            arrivals = _bfs(self._moves, (p, sat), sat + b)
            # the pump state itself: every multiple of g above the slack zone
            own = ((hi + slack, g), {"pump": p, "sat": sat, "arrival": None, "arrivals": None})
            current = tails.get(p)
            if current is None or (g, hi + slack) < (current[0][1], current[0][0]):
                tails[p] = own
            for state, counter in arrivals:
                current = tails.get(state)
                if current is None or (g, counter) < (current[0][1], current[0][0]):
                    tails[state] = (
                        (counter, g),
                        {"pump": p, "sat": sat, "arrival": (state, counter), "arrivals": arrivals},
                    )
        out: dict[str, tuple[tuple[int, int], dict]] = {}
        for q, ((base, g), info) in tails.items():
            top = max(self._found.get(q, {base}))
            t = base
            if t <= top:
                t += ((top - t) // g + 1) * g
            out[q] = ((t, g), info)
        return out

    # -- witness reconstruction -----------------------------------------

    def path_to(self, target: Configuration) -> list[str]:
        """Letters of a concrete path from the start to the target configuration."""
        key = (target.state, target.counter)
        if key in self._parents:
            return _path_letters(self._parents, key)
        if target.state not in self._tails or not self.reach_set.at(target.state).contains(
            target.counter
        ):
            raise UnreachableTarget(f"{target} is not a known-reachable configuration")
        (_t, _g), meta = self._tails[target.state]
        p = meta["pump"]
        hi, gains, cycle_parents = self._pumps[p]
        arrival = meta["arrival"]
        if arrival is None:  # tail at the pump state itself
            need = target.counter - hi
        else:
            need = target.counter - arrival[1] + (meta["sat"] - hi)
        combo = _gain_combo(gains, need)
        letters = _path_letters(self._parents, (p, hi))
        for gain, count in sorted(combo.items()):
            cycle = _path_letters(cycle_parents, (p, hi + gain))
            letters.extend(cycle * count)
        if arrival is not None:
            letters.extend(_path_letters(meta["arrivals"], arrival))
        return letters


def _semigroup_slack(gains: list[int], g: int) -> int:
    """Least bound past which every multiple of g is a sum of gains."""
    if gains[0] == g:
        return 0
    cap = gains[0] * gains[-1]
    mask = (1 << (cap + 1)) - 1
    representable = 1
    while True:
        grown = representable
        for gain in gains:
            grown |= (grown << gain) & mask
        if grown == representable:
            break
        representable = grown
    worst = 0
    for multiple in range(0, cap + 1, g):
        if not representable >> multiple & 1:
            worst = multiple + g
    return worst


def _gain_combo(gains: list[int], need: int) -> dict[int, int]:
    """Express ``need`` as a non-negative combination of the cycle gains."""
    best: dict[int, dict[int, int]] = {0: {}}
    frontier = [0]
    while frontier and need not in best:
        nxt = []
        for total in frontier:
            for gain in gains:
                s = total + gain
                if s <= need and s not in best:
                    combo = dict(best[total])
                    combo[gain] = combo.get(gain, 0) + 1
                    best[s] = combo
                    nxt.append(s)
        frontier = nxt
    if need not in best:
        raise UnreachableTarget(f"gain {need} is not a combination of {gains}")
    return best[need]


def analysis(machine: Mbca, start: Configuration) -> ReachAnalysis:
    return memo(machine, ("reach", start), lambda: ReachAnalysis(machine, start))


def reach(machine: Mbca, start: Configuration) -> ReachSet:
    """Sound and, over the bounded core, complete reachable-counter sets."""
    return analysis(machine, start).reach_set


def reachable_unbounded(machine: Mbca, start: Configuration, state: str) -> bool:
    return reach(machine, start).at(state).tail is not None


def min_counter_to(
    machine: Mbca,
    predicates,
    sources=None,
    extra_cap: int = 0,
) -> dict[str, int | None]:
    """Least starting counter per source state satisfying every predicate.

    Each predicate is a function of the :class:`ReachSet` seen from (q, c);
    blindness makes satisfaction upward-closed in c, so a binary search finds
    the boundary.  ``None`` marks states where no counter up to the cap works.
    """
    if callable(predicates):
        predicates = [predicates]
    cap = cutoff(machine) + extra_cap + 1

    def satisfied(q: str, c: int) -> bool:
        rs = reach(machine, Configuration(q, c))
        return all(pred(rs) for pred in predicates)

    result: dict[str, int | None] = {}
    for q in sources if sources is not None else machine.states:
        if not satisfied(q, cap):
            result[q] = None
            continue
        lo, hi = 0, cap  # upward-closed in c: binary search the boundary
        while lo < hi:
            mid = (lo + hi) // 2
            if satisfied(q, mid):
                hi = mid
            else:
                lo = mid + 1
        result[q] = lo
    return result
