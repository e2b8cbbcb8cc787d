"""Essential sets and anchored loop descriptors.

A loop descriptor records that some covering walk through the anchor visits
exactly the candidate state set and returns to the anchor with net counter
gain (kind ``plus``) or no gain (kind ``equal``).  I-level walks use only
positive-level entries and may dip below the anchor counter; the recorded dip
is minimal, and dip+1 is the least anchor counter from which the walk
iterates forever.  Z-level walks run from counter zero back to counter zero
under the full table; blindness makes them replayable from any anchor
counter, so their minimal anchor counter is zero.

Searches run on the product (state in F) x (visited subset of F) with a
bounded counter, per candidate set F drawn from induced strongly connected
subsets; the run-semantics oracle cross-checks the bounds in the tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automaton import LEVEL_POS, LEVEL_ZERO, Configuration, Mbca, MbcaError, memo
from .reachability import analysis
from .semantics import UPWord


class AnchorUnreachable(MbcaError):
    pass


@dataclass(frozen=True)
class LoopDescriptor:
    anchor: str
    level: str  # Z | I
    essential_set: frozenset[str]
    delta_kind: str  # plus | equal
    positive: bool  # essential_set in the accept family
    dip: int
    cycle: tuple[str, ...]  # witness letters, replayable from the anchor

    @property
    def min_anchor_counter(self) -> int:
        return 0 if self.level == LEVEL_ZERO else self.dip + 1

    @property
    def sign(self) -> str:
        return "positive" if self.positive else "negative"


def _tarjan_sccs(nodes: list[int], adj: dict[int, set[int]]) -> list[set[int]]:
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[set[int]] = []
    counter = [0]

    def strongconnect(v: int):
        work = [(v, iter(sorted(adj.get(v, ()))))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adj.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.add(w)
                    if w == node:
                        break
                sccs.append(scc)

    for v in nodes:
        if v not in index:
            strongconnect(v)
    return sccs


def _induced_strongly_connected(subset: frozenset[int], adj: dict[int, set[int]]) -> bool:
    if not subset:
        return False
    if len(subset) == 1:
        (v,) = subset
        return v in adj.get(v, ())
    seed = next(iter(subset))
    fwd = {seed}
    frontier = [seed]
    while frontier:
        v = frontier.pop()
        for w in adj.get(v, ()):
            if w in subset and w not in fwd:
                fwd.add(w)
                frontier.append(w)
    if fwd != subset:
        return False
    radj: dict[int, set[int]] = {}
    for v in subset:
        for w in adj.get(v, ()):
            if w in subset:
                radj.setdefault(w, set()).add(v)
    back = {seed}
    frontier = [seed]
    while frontier:
        v = frontier.pop()
        for w in radj.get(v, ()):
            if w not in back:
                back.add(w)
                frontier.append(w)
    return back == subset


def _candidate_sets(n: int, adj: dict[int, set[int]]):
    for scc in _tarjan_sccs(list(range(n)), adj):
        members = sorted(scc)
        if len(members) > 16:
            raise MbcaError("candidate enumeration beyond desk scale (> 16 states in one SCC)")
        for bits in range(1, 1 << len(members)):
            subset = frozenset(members[i] for i in range(len(members)) if bits >> i & 1)
            if _induced_strongly_connected(subset, adj):
                yield subset


def _search(edge_fn, anchor: int, full_mask: int, lo: int, hi: int, accept):
    """BFS over (state, visited-mask, relative counter); targets hit on arrival.

    ``accept(state, mask, rel)`` classifies an arrival reached by at least one
    step.  Returns the witness letters of the first accepted arrival, or None.
    """
    start = (anchor, 1 << anchor, 0)
    parents: dict[tuple[int, int, int], tuple | None] = {start: None}
    dq = deque([start])
    while dq:
        node = dq.popleft()
        state, mask, rel = node
        for letter, target, delta in edge_fn(state, rel):
            nrel = rel + delta
            if not lo <= nrel <= hi:
                continue
            nmask = mask | (1 << target)
            nnode = (target, nmask, nrel)
            if accept(target, nmask, nrel):
                letters = []
                back = node
                while parents[back] is not None:
                    back, prev_letter = parents[back]
                    letters.append(prev_letter)
                letters.reverse()
                letters.append(letter)
                return letters
            if nnode not in parents:
                parents[nnode] = (node, letter)
                dq.append(nnode)
    return None


def _loops_of(machine: Mbca) -> tuple[LoopDescriptor, ...]:
    states = list(machine.states)
    idx = {q: i for i, q in enumerate(states)}
    dplus = machine.max_positive_delta()

    i_edges: dict[int, list[tuple[str, int, int]]] = {i: [] for i in range(len(states))}
    z_edges: dict[int, list[tuple[str, int, int]]] = {i: [] for i in range(len(states))}
    for t in machine.transitions:
        entry = (t.letter, idx[t.target], t.delta)
        if t.level == LEVEL_POS:
            i_edges[idx[t.source]].append(entry)
        else:
            z_edges[idx[t.source]].append(entry)

    i_adj = {s: {t for _, t, _ in es} for s, es in i_edges.items()}
    u_adj = {
        s: {t for _, t, _ in i_edges[s]} | {t for _, t, _ in z_edges[s]}
        for s in range(len(states))
    }

    found: dict[tuple, LoopDescriptor] = {}

    def emit(anchor_i, level, subset, kind, dip, cycle):
        fset = frozenset(states[i] for i in subset)
        key = (states[anchor_i], level, fset, kind)
        if key not in found:
            found[key] = LoopDescriptor(
                anchor=states[anchor_i],
                level=level,
                essential_set=fset,
                delta_kind=kind,
                positive=fset in machine.accept_family,
                dip=dip,
                cycle=tuple(cycle),
            )

    # I-level: uniform positive-level edges, relative counters, minimal dips.
    for subset in _candidate_sets(len(states), i_adj):
        fmask = 0
        for i in subset:
            fmask |= 1 << i
        size = len(subset)
        rel_cap = (size * (1 << size) + 1) * (dplus + 1)
        edges = {
            s: [e for e in i_edges[s] if e[1] in subset] for s in subset
        }

        def edge_fn(s, rel, _edges=edges):
            return _edges[s]

        for anchor in subset:
            for kind, ok in (
                ("equal", lambda st, m, r, a=anchor: st == a and m == fmask and r == 0),
                ("plus", lambda st, m, r, a=anchor: st == a and m == fmask and r > 0),
            ):
                if _search(edge_fn, anchor, fmask, -rel_cap, rel_cap, ok) is None:
                    continue
                for dip in range(rel_cap + 1):
                    cycle = _search(edge_fn, anchor, fmask, -dip, rel_cap, ok)
                    if cycle is not None:
                        emit(anchor, LEVEL_POS, subset, kind, dip, cycle)
                        break

    # Z-level: full table, absolute counters from zero back to zero.
    k = len(states)
    b_z = (k * (1 << k) + 1) * (dplus + 1)
    for subset in _candidate_sets(len(states), u_adj):
        fmask = 0
        for i in subset:
            fmask |= 1 << i
        ze = {s: [e for e in z_edges[s] if e[1] in subset] for s in subset}
        ie = {s: [e for e in i_edges[s] if e[1] in subset] for s in subset}
        has_negative = any(d < 0 for es in ie.values() for _, _, d in es)
        cap = b_z if has_negative else 0
        can_drop: set[int] = set()
        if has_negative:
            drop_sources = {s for s in subset if any(d < 0 for _, _, d in ie[s])}
            can_drop = set(drop_sources)
            changed = True
            while changed:
                changed = False
                for s in subset:
                    if s not in can_drop and any(t in can_drop for _, t, _ in ie[s]):
                        can_drop.add(s)
                        changed = True

        def edge_fn(s, rel, _ze=ze, _ie=ie, _can_drop=can_drop):
            if rel == 0:
                return _ze[s]
            if s not in _can_drop:
                return ()
            return _ie[s]

        for anchor in subset:
            ok = lambda st, m, r, a=anchor: st == a and m == fmask and r == 0
            cycle = _search(edge_fn, anchor, fmask, 0, cap, ok)
            if cycle is not None:
                emit(anchor, LEVEL_ZERO, subset, "equal", 0, cycle)

    return tuple(sorted(found.values(), key=lambda d: (d.anchor, d.level, sorted(d.essential_set), d.delta_kind)))


def loops(machine: Mbca) -> tuple[LoopDescriptor, ...]:
    """Every structural loop descriptor, before anchor-reachability filtering."""
    return memo(machine, "loops", lambda: _loops_of(machine))


def admissible(machine: Mbca, descriptor: LoopDescriptor, threshold: int = 0) -> bool:
    """Anchor reachable (from the initial configuration) at an operating counter."""
    floor = max(descriptor.min_anchor_counter, threshold)
    state_reach = analysis(machine, machine.initial_configuration()).reach_set.at(
        descriptor.anchor
    )
    return state_reach.has_value_at_least(floor)


def essential_sets(
    machine: Mbca, thresholds: dict[str, int] | None = None
) -> set[tuple[frozenset[str], str]]:
    """Realizable Inf sets with their signs: loops whose anchors are operable."""
    thresholds = thresholds or {}
    out = set()
    for d in loops(machine):
        if admissible(machine, d, thresholds.get(d.anchor, 0)):
            out.add((d.essential_set, d.sign))
    return out


def witness_word(machine: Mbca, descriptor: LoopDescriptor, threshold: int = 0) -> UPWord:
    """An ultimately periodic word whose run realizes Inf = the descriptor's set."""
    floor = max(descriptor.min_anchor_counter, threshold)
    ra = analysis(machine, machine.initial_configuration())
    entry = ra.reach_set.at(descriptor.anchor).least_value_at_least(floor)
    if entry is None:
        raise AnchorUnreachable(
            f"anchor {descriptor.anchor} not reachable with counter >= {floor}"
        )
    prefix = ra.path_to(Configuration(descriptor.anchor, entry))
    return UPWord(tuple(prefix), descriptor.cycle)
