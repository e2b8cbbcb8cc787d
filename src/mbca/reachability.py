"""Reachable counter sets per state, and backward cover tables.

A forward analysis, ``ReachAnalysis``, gives the exact bounded core plus
pumped tails.  The bounded core is every configuration reachable from the
start along a path whose counters stay at or below the cap start + B, with
the cutoff B = (|K|+1) * (max positive delta + 1) * (|K|+2), which is
conservative for desk-scale machines.  Unboundedness at a state is witnessed by a positive
cycle somewhere en route; tails are reported as a single arithmetic
progression whose threshold sits above the finite picture and whose period is
the gcd of the cycle gains combinable at one pump state (a Frobenius slack
makes every claimed value concretely witnessable).

Sets are bitsets.  ``_reach_bits`` keeps one Python int per state, bit c set
when (state, c) is reachable, and runs a worklist of each state's new bits to
its fixpoint: a Z-level move fires from bit 0 and lands at its delta if that
is within the cap, an I-level move shifts every bit above 0 by its delta,
masked to the cap.  The main set (and its highest value per state), the pump
gains and the tail arrivals are all read off such bitsets.  A pump keeps its
gains as one too, bit g set for gain g: ``_gcd_of`` reads their gcd off the
set bits and stops once every set bit is a multiple of it, and the gains are
listed only where a search needs them, for ``path_to`` and for the Frobenius
slack when the least gain is not the gcd.

Before a state's new bits move on, each summarised closed I-level walk through
it is accelerated.  A walk, read from that state, has a gain g != 0, a
``need`` (the least start counter that keeps every step at I-level, 1 minus
its lowest proper prefix sum) and a ``peak`` (its highest prefix sum).  One trip
from c is a concrete path inside [0, cap] exactly when
need <= c <= cap - peak.  That window is an interval, so k trips from c stay
inside the cap when the first and the last trip start inside the window, and
doubling the shift (g, 2g, 4g, ...) saturates every start in the window in
O(log cap) shifts; one more shift by g gives the arrivals.  Exactness: the
acceleration adds only configurations that a concrete path inside the cap
reaches, and the worklist still applies every single move until nothing is
new, so it adds every configuration such a path reaches.  The result is the
breadth-first search's set, whichever closed walks were accelerated.

Summaries.  ``_cycles`` keeps, per state q, the first closed walk of each gain
sign met by a breadth-first search from (q, 0) over (state, prefix sum) inside
q's I-level SCC S, every prefix sum within E = 4|S|(d+1) of 0, d the largest
positive delta.  The box loses no sign.  Say S has a simple cycle C of sign s,
through x.  Take simple paths P: q -> x and Q: x -> q in S, w the gain of PQ,
and L >= 1 least such that w + L*gain(C) has sign s.  Deltas lie in [-1, d],
P and Q have fewer than |S| steps and C at most |S|, so |gain(P)| and |w|/2
are under |S|(d+1), and (L-1)|gain(C)| <= |w|.  Inside the copies of C a
prefix is gain(P) + j*gain(C) + a part of C; inside Q it is the final gain
(at most |w| + |gain(C)|, and |gain(C)| if L > 1) less a suffix of Q.  Both
stay under E in size, so P C^L Q lies in the box.  Conversely a closed walk
of sign s is a sum of simple cycles of S, one of them of sign s.  So q has a
summary of sign s iff its SCC has a simple cycle of sign s.

Cover tables.  Whether a run from (q, c) reaches (t, >= f) is one-counter
coverability (Abdulla, Cerans, Jonsson & Tsay, LICS 1996; Bouyer, Fahrenberg,
Larsen, Markey & Srba, FORMATS 2008).  Blindness makes the answer
upward-closed in c, so one table need[q] per target (t, f) answers it for every
source: the least c that works, infinite if none does.  It is the least
fixpoint of three rules:
- need[t] = f;
- need[q] = min over I-edges (q, t', d) of max(1, need[t'] - d), as a run
  at c >= 1 moves by I-edges only;
- need[q] = 0 if some Z-edge (q, t', d) has need[t'] <= d.
``_cover`` starts from need = inf except at t and relaxes the in-edges of each
state whose need fell.  It ends because needs only fall and stay >= 0, and
soon: the first finite need of a state comes from an edge into a state whose
need was already finite, and I-level deltas are >= -1, so it is at most one
more than that one's (and at least 1).  Along the tree of these first
assignments, every finite need is thus at most max(1, f) + |K| - 1, and each
state's need falls at most that many times.  A run from (q, c) reaches a state
at unboundedly many counters iff it reaches some pump state p (one with a
positive summary) with p's credit, ``automaton.credit`` on p's I-level SCC,
and p reaches that state in the I-level graph (``tail_states``).  From the
credit the run climbs forever, then walks down to the state.  Conversely, a
run that reaches the state high enough passes, at more than |K| rising levels
spaced d+1 apart, a last point below each level, so two of them share a state
x with the later one higher and everything between above 1: a positive closed
walk at x, which thus is a pump reached with its credit, and Z-edges have
I-level twins, so x reaches the state in the I-level graph.

Every search runs on the machine's compiled form ``Mbca.moves``, over
(state index, counter) pairs; names appear only in the results.  An analysis
keeps its answers, not its search trees.  The explicit breadth-first search
``_bfs`` is kept only for ``path_to`` witnesses: it fixes each parent when
the configuration is first discovered, so it stops after the layer in which
its last target is discovered, and its letters do not depend on where it
stops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, inf

from .automaton import Configuration, Mbca, MbcaError, Moves, closure, credit, memo, potentials, sccs


class UnreachableTarget(MbcaError):
    pass


@dataclass(frozen=True)
class StateReach:
    bits: int  # bit c set: counter c is reachable inside the cap
    tail: tuple[int, int] | None  # (threshold, period): threshold + k*period all reachable

    @cached_property
    def finite(self) -> frozenset[int]:
        return frozenset(_values(self.bits))

    def max_finite(self) -> int | None:
        return self.bits.bit_length() - 1 if self.bits else None

    def contains(self, value: int) -> bool:
        if value >= 0 and self.bits >> value & 1:
            return True
        if self.tail is None:
            return False
        t, d = self.tail
        return value >= t and (value - t) % d == 0

    def has_value_at_least(self, floor: int) -> bool:
        return self.tail is not None or self.bits >> max(floor, 0) != 0

    def least_value_at_least(self, floor: int) -> int | None:
        floor = max(floor, 0)
        above = self.bits >> floor
        least = floor + _low_bit(above) if above else None
        if self.tail is not None:
            t, d = self.tail
            first = t if t >= floor else t + ((floor - t + d - 1) // d) * d
            if least is None or first < least:
                least = first
        return least


@dataclass(frozen=True)
class ReachSet:
    per_state: dict[str, StateReach]

    def at(self, state: str) -> StateReach:
        return self.per_state.get(state, StateReach(0, None))


def cutoff(machine: Mbca) -> int:
    k = len(machine.states)
    return (k + 1) * (machine.moves.dplus + 1) * (k + 2)


def _low_bit(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _values(bits: int) -> list[int]:
    """The set bits' positions, ascending."""
    return [c for c, digit in enumerate(bin(bits)[:1:-1]) if digit == "1"]


Cycle = tuple[int, int, int]  # (gain, need, peak) of a closed I-level walk read from one state


def _cycles(moves: Moves) -> tuple[tuple[Cycle, ...], ...]:
    """Per state, the first closed I-level walk of each nonzero gain sign, as (gain, need, peak).

    Bellman–Ford on the SCC names the signs that occur, so each search stops
    at its last needed walk, which the box of the module docstring holds.
    """
    n = len(moves.pos)
    found: list[tuple[Cycle, ...]] = [()] * n
    for scc in sccs(range(n), {q: {t for _, t, _ in moves.pos[q]} for q in range(n)}):
        inner = {q: [(t, d) for _, t, d in moves.pos[q] if t in scc] for q in scc}
        arcs = [(q, t, d) for q in scc for t, d in inner[q]]
        # S has a cycle of sign s iff it has a negative cycle under the weights -s*d
        signs = sum(potentials(scc, [(a, b, -s * d) for a, b, d in arcs])[1] for s in (1, -1))
        if not signs:
            continue
        bound = 4 * len(scc) * (moves.dplus + 1)
        for q in scc:
            span = {(q, 0): (0, 0)}  # (state, prefix sum) -> least and most prefix sum on its path
            frontier = [(q, 0)]
            walks: dict[bool, Cycle] = {}
            while frontier and len(walks) < signs:
                nxt = []
                for x, s in frontier:
                    low, high = span[x, s]
                    for t, d in inner[x]:
                        p = s + d
                        if -bound <= p <= bound and (t, p) not in span:
                            span[t, p] = (min(low, p), max(high, p))
                            nxt.append((t, p))
                            if t == q:  # p != 0, since (q, 0) is the root
                                walks.setdefault(p > 0, (p, 1 - low, max(high, p)))
                frontier = nxt
            found[q] = tuple(sorted(walks.values()))
    return tuple(found)


def _reach_bits(
    moves: Moves, cycles: tuple[tuple[Cycle, ...], ...], start: tuple[int, int], cap: int
) -> list[int]:
    """Per-state bitsets of the configurations reachable from ``start``, counters <= cap."""
    zero, pos = moves.zero, moves.pos
    mask = (1 << (cap + 1)) - 1
    q0, c0 = start
    bits = [0] * len(pos)
    pending = [0] * len(pos)
    bits[q0] = pending[q0] = 1 << c0
    work = [q0]
    while work:
        q = work.pop()
        new, pending[q] = pending[q], 0
        for g, need, peak in cycles[q]:
            top = cap - peak
            window = (1 << (top + 1)) - (1 << need) if top >= need else 0
            starts = new & window
            if not starts:
                continue
            shift, width = abs(g), top - need
            while shift <= width:  # after round j: every start up to 2^j - 1 trips on
                starts |= (starts << shift if g > 0 else starts >> shift) & window
                shift <<= 1
            arrivals = (starts << g if g > 0 else starts >> -g) & ~bits[q]
            bits[q] |= arrivals
            new |= arrivals
        moved = []
        if new & 1:
            moved += [(t, 1 << d) for _, t, d in zero[q] if d <= cap]
        up = new & ~1
        if up:
            moved += [(t, (up >> 1 if d < 0 else up << d) & mask) for _, t, d in pos[q]]
        for t, reached in moved:
            fresh = reached & ~bits[t]
            if fresh:
                bits[t] |= fresh
                if not pending[t]:
                    work.append(t)
                pending[t] |= fresh
    return bits


def _pump_states(cycles: tuple[tuple[Cycle, ...], ...]) -> tuple[int, ...]:
    """States, in state order, with a positive summary.

    They are the states q that climb above ``cutoff`` from (q, cutoff) under
    the cap 2 * cutoff.  Blindness mirrors each Z-level move at I-level, so a
    climb is a closed I-level walk with positive gain, which has a positive
    simple cycle in q's SCC S.  Conversely P C^L Q of the module docstring
    replays from (q, cutoff), as cutoff >= (|S|+1)(|S|+2)(d+1) > 4|S|(d+1).
    """
    return tuple(q for q, walks in enumerate(cycles) if any(g > 0 for g, _, _ in walks))


def _bfs(moves: Moves, start: tuple[int, int], cap: int, targets) -> list[list[str]]:
    """Letters of the breadth-first-search path to each target, counters <= cap.

    A configuration (state, counter) is keyed as counter * |K| + state.  A
    parent is fixed when its configuration is first discovered, so the search
    stops after the layer in which every target is discovered.
    """
    n = len(moves.pos)
    # each edge as (letter, key offset): the move from key lands at key + offset
    zero = [[(a, d * n + t - q) for a, t, d in edges] for q, edges in enumerate(moves.zero)]
    pos = [[(a, d * n + t - q) for a, t, d in edges] for q, edges in enumerate(moves.pos)]
    wanted = [c * n + q for q, c in targets]
    limit = (cap + 1) * n
    root = start[1] * n + start[0]
    parents: dict[int, tuple[int, str] | None] = {root: None}
    frontier = [root]
    while frontier and not all(key in parents for key in wanted):
        nxt: list[int] = []
        for key in frontier:
            for letter, offset in (pos[key % n] if key >= n else zero[key]):
                succ = key + offset
                if succ < limit and succ not in parents:
                    parents[succ] = (key, letter)
                    nxt.append(succ)
        frontier = nxt
    paths = []
    for key in wanted:
        letters: list[str] = []
        while parents[key] is not None:
            key, letter = parents[key]
            letters.append(letter)
        letters.reverse()
        paths.append(letters)
    return paths


class ReachAnalysis:
    """reach() result plus the pump parameters that rebuild witness paths.

    Only answers are kept: the counter bitsets, each pump's (hi, gains, sat),
    its gains a bitset too, and each tail's (pump, arrival counter).
    ``path_to`` searches for the configurations those answers name.
    """

    def __init__(self, machine: Mbca, start: Configuration):
        self.machine = machine
        moves = machine.moves
        cycles = memo(machine, "cycles", lambda: _cycles(moves))
        self._start = (moves.index[start.state], start.counter)
        self._b = b = cutoff(machine)
        self._cap = start.counter + b
        found = _reach_bits(moves, cycles, self._start, self._cap)
        self._pumps: dict[int, tuple[int, int, int]] = {}
        tails: dict[int, tuple[tuple[int, int], int, int | None]] = {}
        for p in _pump_states(cycles):
            # any iterable positive cycle is valid from some explored
            # configuration, hence (shift monotonicity) from the highest one
            if not found[p]:
                continue
            hi = found[p].bit_length() - 1
            gains = _reach_bits(moves, cycles, (p, hi), hi + b)[p] >> hi & ~1  # bit g: gain g
            if not gains:
                continue
            g = _gcd_of(gains)
            slack = _semigroup_slack(gains, g)
            sat = hi + slack + (b // g + 1) * g
            self._pumps[p] = (hi, gains, sat)
            # the pump state itself: every multiple of g above the slack zone
            current = tails.get(p)
            if current is None or (g, hi + slack) < (current[0][1], current[0][0]):
                tails[p] = ((hi + slack, g), p, None)
            for state, arrived in enumerate(_reach_bits(moves, cycles, (p, sat), sat + b)):
                if not arrived:
                    continue
                counter = _low_bit(arrived)
                current = tails.get(state)
                if current is None or (g, counter) < (current[0][1], current[0][0]):
                    tails[state] = ((counter, g), p, counter)
        self._tails = {}
        for q, ((base, g), p, arrival) in tails.items():
            top = found[q].bit_length() - 1 if found[q] else base
            t = base
            if t <= top:
                t += ((top - t) // g + 1) * g
            self._tails[q] = ((t, g), p, arrival)
        # thresholds sit above the finite picture, so the finite part stays exact
        self.reach_set = ReachSet(
            {
                machine.states[q]: StateReach(
                    values, self._tails[q][0] if q in self._tails else None
                )
                for q, values in enumerate(found)
                if values
            }
        )

    def path_to(self, target: Configuration) -> list[str]:
        """Letters of a concrete path from the start to the target configuration."""
        moves, b = self.machine.moves, self._b
        state_reach = self.reach_set.at(target.state)
        key = (moves.index[target.state], target.counter)
        if target.counter >= 0 and state_reach.bits >> target.counter & 1:
            return _bfs(moves, self._start, self._cap, [key])[0]
        if not state_reach.contains(target.counter):
            raise UnreachableTarget(f"{target} is not a known-reachable configuration")
        q = key[0]
        _, p, arrival = self._tails[q]
        hi, gains, sat = self._pumps[p]
        if arrival is None:  # tail at the pump state itself
            need = target.counter - hi
        else:
            need = target.counter - arrival + (sat - hi)
        combo = sorted(_gain_combo(_values(gains), need).items())
        letters = _bfs(moves, self._start, self._cap, [(p, hi)])[0]
        trips = _bfs(moves, (p, hi), hi + b, [(p, hi + gain) for gain, _ in combo])
        for (_, count), trip in zip(combo, trips):
            letters.extend(trip * count)
        if arrival is not None:
            letters.extend(_bfs(moves, (p, sat), sat + b, [(q, arrival)])[0])
        return letters


def _gcd_of(gains: int) -> int:
    """The gcd of the set bits' positions, which are all >= 1.

    Each round folds in the least position that is not a multiple of the gcd
    so far and clears every multiple of the new one, so the gcd falls to a
    proper divisor each round and the rounds are few.
    """
    g, width = 0, gains.bit_length()
    while gains:
        g = gcd(g, _low_bit(gains))
        multiples, span = 1, g  # bits 0, g, 2g, ... below width
        while span < width:
            multiples |= multiples << span
            span <<= 1
        gains &= ~multiples
    return g


def _semigroup_slack(gain_bits: int, g: int) -> int:
    """Least bound past which every multiple of g is a sum of gains (bit c: gain c)."""
    if _low_bit(gain_bits) == g:
        return 0
    gains = _values(gain_bits)
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


def _backward(moves: Moves):
    """Per state x, its incoming I-edges and Z-edges as (source, delta) lists."""
    n = len(moves.pos)
    into_pos: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    into_zero: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for into, rows in ((into_pos, moves.pos), (into_zero, moves.zero)):
        for q, edges in enumerate(rows):
            for _, t, d in edges:
                into[t].append((q, d))
    return into_pos, into_zero


def _cover(moves: Moves, back, target: int, floor: int) -> tuple[float, ...]:
    """need[q]: the least c from which (q, c) reaches (target, >= floor); inf if none.

    The least fixpoint of the module docstring's three rules, by a worklist of
    the states whose need fell.
    """
    into_pos, into_zero = back
    need = [inf] * len(moves.pos)
    need[target] = floor
    work = [target]
    while work:
        x = work.pop()
        here = need[x]
        for q, d in into_pos[x]:
            offer = max(1, here - d)
            if offer < need[q]:
                need[q] = offer
                work.append(q)
        for q, d in into_zero[x]:
            if here <= d and need[q]:
                need[q] = 0
                work.append(q)
    return tuple(need)


def cover(machine: Mbca, state: str, floor: int) -> tuple[float, ...]:
    """Per state index, the least counter from which a run reaches ``state``
    with a counter of at least ``floor`` (``inf`` where no counter does)."""
    moves = machine.moves

    def build():
        back = memo(machine, "backward", lambda: _backward(moves))
        return _cover(moves, back, moves.index[state], floor)

    return memo(machine, ("cover", state, floor), build)


def covers(machine: Mbca, source: Configuration, state: str, floor: int) -> bool:
    """Whether a run from ``source`` reaches ``state`` with a counter >= ``floor``."""
    return source.counter >= cover(machine, state, floor)[machine.moves.index[source.state]]


def _pump_credits(machine: Mbca) -> tuple[tuple[str, int, frozenset[str]], ...]:
    """Per pump state p: its credit (``automaton.credit`` on p's I-level SCC)
    and the states of the I-level graph that p reaches, p included."""
    moves = machine.moves
    cycles = memo(machine, "cycles", lambda: _cycles(moves))
    pumps = set(_pump_states(cycles))
    n = len(moves.pos)
    adj = {q: {t for _, t, _ in moves.pos[q]} for q in range(n)}
    found = []
    for scc in sccs(range(n), adj):
        if not pumps & scc:
            continue
        need = credit(scc, [(q, t, d) for q in scc for _, t, d in moves.pos[q] if t in scc])
        below = frozenset(machine.states[t] for t in closure(min(scc), range(n), adj))
        found += [(p, need[p], below) for p in pumps & scc]
    return tuple((machine.states[p], c, below) for p, c, below in sorted(found))


def tail_states(machine: Mbca, source: Configuration) -> frozenset[str]:
    """The states a run from ``source`` reaches at unboundedly many counters:
    those below a pump state that it reaches with the pump's credit."""
    pumps = memo(machine, "pump credits", lambda: _pump_credits(machine))
    reached: frozenset[str] = frozenset()
    for p, need, below in pumps:
        if not below <= reached and covers(machine, source, p, need):
            reached |= below
    return reached


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

    Each predicate is a function of the :class:`ReachSet` seen from (q, c),
    and must be monotone in it: a predicate that holds of a reach set holds of
    every larger one.  Blindness makes reach sets grow with c, so satisfaction
    is then upward-closed in c, and the search rests on that.  The cap is
    probed first, and ``None`` marks states where no counter up to it works.
    Otherwise the search gallops over the counters 0, 1, 3, 7, ... to the
    first satisfied one and bisects below it, so a low answer costs few
    probes, and low probes are the cheap ones: an analysis from (q, c)
    explores counters up to c + ``cutoff``.
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
        lo, hi = 0, 0  # gallop over 0, 1, 3, 7, ... to a satisfied counter
        while hi < cap and not satisfied(q, hi):
            lo, hi = hi + 1, min(2 * hi + 1, cap)
        while lo < hi:  # upward-closed in c: bisect below it
            mid = (lo + hi) // 2
            if satisfied(q, mid):
                hi = mid
            else:
                lo = mid + 1
        result[q] = lo
    return result
