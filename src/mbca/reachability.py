"""Reachable counter sets per state: exact bounded core plus pumped tails.

The bounded core is a plain BFS over configurations up to the cutoff
B = (|K|+1) * (max positive delta + 1) * (|K|+2), which is conservative for
desk-scale machines.  Unboundedness at a state is witnessed by a positive
cycle somewhere en route; tails are reported as a single arithmetic
progression whose threshold sits above the finite picture and whose period is
the gcd of the cycle gains combinable at one pump state (a Frobenius slack
makes every claimed value concretely witnessable).

Every search runs on the machine's compiled form ``Mbca.moves``, over
(state index, counter) pairs; names appear only in the results.  An analysis
keeps its answers, not its search trees: ``path_to`` rebuilds the parent maps
it needs by re-running the same deterministic searches, so its letters do not
depend on whether the maps were kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .automaton import Configuration, Mbca, MbcaError, Moves, memo


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
    return (k + 1) * (machine.moves.dplus + 1) * (k + 2)


def _pump_states(machine: Mbca) -> tuple[int, ...]:
    """States, in state order, that regain a high counter with a net gain."""
    if machine.moves.dplus == 0:
        return ()
    probe = cutoff(machine)
    return tuple(
        q
        for q in range(len(machine.states))
        if any(s == q and c > probe for s, c in _bfs(machine.moves, (q, probe), 2 * probe))
    )


def _bfs(moves: Moves, start: tuple[int, int], cap: int):
    """Exact forward exploration with parent pointers, counters <= cap."""
    parents: dict[tuple[int, int], tuple | None] = {start: None}
    frontier = [start]
    zero, pos = moves.zero, moves.pos
    while frontier:
        nxt: list[tuple[int, int]] = []
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


def _path_letters(parents, target: tuple[int, int]) -> list[str]:
    letters: list[str] = []
    cfg = target
    while parents[cfg] is not None:
        cfg, letter = parents[cfg]
        letters.append(letter)
    letters.reverse()
    return letters


class ReachAnalysis:
    """reach() result plus the pump parameters that rebuild witness paths.

    Only answers are kept: the counter sets, each pump's (hi, gains, sat) and
    each tail's (pump, arrival counter).  ``path_to`` re-runs the same
    deterministic searches that produced them.
    """

    def __init__(self, machine: Mbca, start: Configuration):
        self.machine = machine
        moves = machine.moves
        self._start = (moves.index[start.state], start.counter)
        self._b = b = cutoff(machine)
        self._cap = start.counter + b
        found: dict[int, set[int]] = {}
        for state, counter in _bfs(moves, self._start, self._cap):
            found.setdefault(state, set()).add(counter)
        self._pumps: dict[int, tuple[int, list[int], int]] = {}
        tails: dict[int, tuple[tuple[int, int], int, int | None]] = {}
        for p in memo(machine, "pumps", lambda: _pump_states(machine)):
            # any iterable positive cycle is valid from some explored
            # configuration, hence (shift monotonicity) from the highest one
            if p not in found:
                continue
            hi = max(found[p])
            gains = sorted(c - hi for s, c in _bfs(moves, (p, hi), hi + b) if s == p and c > hi)
            if not gains:
                continue
            g = gains[0]
            for extra in gains[1:]:
                g = gcd(g, extra)
            slack = _semigroup_slack(gains, g)
            sat = hi + slack + (b // g + 1) * g
            self._pumps[p] = (hi, gains, sat)
            # the pump state itself: every multiple of g above the slack zone
            current = tails.get(p)
            if current is None or (g, hi + slack) < (current[0][1], current[0][0]):
                tails[p] = ((hi + slack, g), p, None)
            for state, counter in _bfs(moves, (p, sat), sat + b):
                current = tails.get(state)
                if current is None or (g, counter) < (current[0][1], current[0][0]):
                    tails[state] = ((counter, g), p, counter)
        self._tails = {}
        for q, ((base, g), p, arrival) in tails.items():
            top = max(found.get(q, {base}))
            t = base
            if t <= top:
                t += ((top - t) // g + 1) * g
            self._tails[q] = ((t, g), p, arrival)
        # thresholds sit above the finite picture, so the finite part stays exact
        self.reach_set = ReachSet(
            {
                machine.states[q]: StateReach(
                    frozenset(values), self._tails[q][0] if q in self._tails else None
                )
                for q, values in found.items()
            }
        )

    def path_to(self, target: Configuration) -> list[str]:
        """Letters of a concrete path from the start to the target configuration."""
        moves, b = self.machine.moves, self._b
        state_reach = self.reach_set.at(target.state)
        if target.counter in state_reach.finite:
            key = (moves.index[target.state], target.counter)
            return _path_letters(_bfs(moves, self._start, self._cap), key)
        if not state_reach.contains(target.counter):
            raise UnreachableTarget(f"{target} is not a known-reachable configuration")
        q = moves.index[target.state]
        _, p, arrival = self._tails[q]
        hi, gains, sat = self._pumps[p]
        if arrival is None:  # tail at the pump state itself
            need = target.counter - hi
        else:
            need = target.counter - arrival + (sat - hi)
        combo = _gain_combo(gains, need)
        letters = _path_letters(_bfs(moves, self._start, self._cap), (p, hi))
        cycles = _bfs(moves, (p, hi), hi + b)
        for gain, count in sorted(combo.items()):
            letters.extend(_path_letters(cycles, (p, hi + gain)) * count)
        if arrival is not None:
            letters.extend(_path_letters(_bfs(moves, (p, sat), sat + b), (q, arrival)))
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
    """Express ``need`` as a non-negative combination of the cycle gains.

    A breadth-first search over totals, gains in ascending order, so the
    combination uses the fewest cycles.  Each total's new sums are one shift
    of the gains' bitset.  The last layer is not built: the first total of
    the frontier one gain short of ``need`` closes it, which is where the
    full layer would have found ``need`` first.
    """
    gain_bits = 0
    for gain in gains:
        gain_bits |= 1 << gain
    window = (1 << (need + 1)) - 1
    seen = 1
    parent: dict[int, tuple[int, int] | None] = {0: None}
    frontier = [0]
    while need not in parent:
        closing = next((t for t in frontier if need > t and gain_bits >> (need - t) & 1), None)
        if closing is not None:
            parent[need] = (closing, need - closing)
            break
        nxt = []
        for total in frontier:
            new = (gain_bits << total) & window & ~seen
            seen |= new
            while new:  # lowest bit first: ascending gains
                s = (new & -new).bit_length() - 1
                parent[s] = (total, s - total)
                nxt.append(s)
                new &= new - 1
        if not nxt:
            raise UnreachableTarget(f"gain {need} is not a combination of {gains}")
        frontier = nxt
    combo: dict[int, int] = {}
    while parent[need] is not None:
        need, gain = parent[need]
        combo[gain] = combo.get(gain, 0) + 1
    return combo


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
