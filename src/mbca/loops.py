"""Essential sets and anchored loop descriptors.

A loop descriptor records that some covering walk through the anchor visits
exactly the candidate state set and returns to the anchor with net counter
gain (kind ``plus``) or no gain (kind ``equal``).  I-level walks use only
positive-level entries and may dip below the anchor counter; the recorded dip
is minimal, and dip+1 is the least anchor counter from which the walk
iterates forever.  Z-level walks run from counter zero back to counter zero
under the full table; blindness makes them replayable from any anchor
counter, so their minimal anchor counter is zero.

Candidate sets F are the induced strongly connected subsets of each SCC, read
off the machine's compiled form ``Mbca.moves`` (SCCs by ``automaton.sccs``).
Whether an I-level loop exists is decided once per set, and one counter
abstraction then refutes each Z-level anchor and each I-level (anchor, dip)
before any search.  The product search ``_search`` over (state in F) x
(visited subset of F) x (bounded counter) runs only where a loop may exist, to
find the minimal dip and the witness letters.

I-level existence is cycle arithmetic on F's I-edges, the one-dimensional case
of Kosaraju & Sullivan (STOC 1988).  F is strongly connected, so a closed walk
W through the anchor covers F, and any cycle of F can be spliced into W where
W meets it.  So the answer is the same for every anchor of F.

- ``plus`` exists iff F has a positive cycle: splice in enough copies of it.
- ``equal`` exists iff F has cycles of both signs, or the tight edges (reduced
  weight 0) under Bellman–Ford potentials strongly connect F.  Every
  closed-walk weight is a sum of cycle weights, so a multiple of their gcd g.
  Cycles of both signs generate all of gZ with nonnegative coefficients, so
  spliced copies cancel W's weight.  If no cycle is positive (or none is
  negative), a zero closed walk is a union of zero cycles, whose edges are
  exactly the tight ones under the longest-path (or shortest-path)
  potentials.  Conversely, a closed walk on tight edges has weight 0.

Both levels refute walks by one counter abstraction, ``_may_close``.  Values
floor..K are exact and one class T stands for every value above K, with
K = d+ + 1, where d+ is the machine's largest positive delta.  Moves follow the
concrete move function, which depends only on whether the counter is zero; a
step landing above K lands on T, one landing below floor is dropped, and a -1
step from T lands on K or stays.  I-level deltas are >= -1 (``automaton.check``
enforces it), so a step from a value above K stays at K or above, and every
concrete step that keeps the counter >= floor maps to an abstract one, for every
K >= 0.  The floor is 0 at the Z-level, where counters are absolute, and -dip
at the I-level, where a search at that dip keeps relative counters >= -dip.
A concrete covering walk from (anchor, 0) to its end, (anchor, 0) for ``equal``
or (anchor, > 0) for ``plus``, therefore maps to an abstract walk whose nodes
are all reachable from (anchor, 0) and all reach an abstract end.  No visited
mask is needed: if the states of that forward and backward set miss a state of
F, no concrete walk covers F, and the search is skipped; otherwise ``_search``
decides.  Refusal is monotone in the dip, since a lower floor only removes
abstract walks, so refused dips are exactly those below the first unrefused
one, which is at most the minimal dip.

Search bounds.  Let N = |F| * 2^|F| count the (state, visited subset) pairs
and D = d+; deltas are >= -1.  ``rel_cap`` is (N + 1)(D + 1).  A shortest
covering closed walk W in the product has at most N steps, so its relative
counter stays in [-N, N*D].
- ``plus``: if W's weight w is <= 0, splice m copies of a positive simple
  cycle (weight c, at most |F| steps) where W first meets it, with m least
  such that w + m*c > 0.  Every prefix then lies between -(N + |F|) and
  max(N*D, N + |F|*D), which is within rel_cap since D >= 1.
- ``equal`` from tight edges: along a tight walk the relative counter is a
  potential difference, at most (|F| - 1) * max(D, 1) in size.
- ``equal`` from cycles of both signs: no bound is proved here.
Z-level searches cap the absolute counter at b_z, the same formula over all
the machine's states.  Cutting repeated up- and down-crossings of a counter
level shortens a witness only to height N^2 * D, so b_z is not proved either.
For those two cases the tests check the bounds instead: the lasso oracle must
realize no Inf set that the loops miss, and the arithmetic must agree with the
bounded search.  The I-level dip scan runs ``_search`` at every dip from the
first unrefused one, so its dips and witness letters are those of a scan that
refutes nothing.  It raises ``MbcaError`` if the arithmetic promises a loop
that no dip up to rel_cap gives.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automaton import LEVEL_POS, LEVEL_ZERO, Configuration, Mbca, MbcaError, memo
from .automaton import closure, potentials, reverse, sccs
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


def _induced_strongly_connected(subset: frozenset[int], adj: dict[int, set[int]]) -> bool:
    if not subset:
        return False
    if len(subset) == 1:
        (v,) = subset
        return v in adj.get(v, ())
    seed = next(iter(subset))
    if closure(seed, subset, adj) != subset:
        return False
    return closure(seed, subset, reverse({v: adj.get(v, ()) for v in subset})) == subset


def _candidate_sets(n: int, adj: dict[int, set[int]]):
    for scc in sccs(n, adj):
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


def _mask(subset) -> int:
    return sum(1 << i for i in subset)


def _closes(anchor: int, fmask: int, kind: str):
    """The ``_search`` target of a covering closed walk of the given kind."""
    if kind == "equal":
        return lambda st, m, r: st == anchor and m == fmask and r == 0
    return lambda st, m, r: st == anchor and m == fmask and r > 0


def _cap(size: int, dplus: int) -> int:
    """(N + 1)(d+ + 1) for the N = size * 2^size (state, visited subset) pairs."""
    return (size * (1 << size) + 1) * (dplus + 1)


def _i_level_sets(machine: Mbca):
    """Each I-level candidate set F with the I-edges inside F, keyed by state index."""
    pos = machine.moves.pos
    i_adj = {s: {t for _, t, _ in edges} for s, edges in enumerate(pos)}
    for subset in _candidate_sets(len(pos), i_adj):
        yield subset, {s: [e for e in pos[s] if e[1] in subset] for s in subset}


def _z_level_sets(machine: Mbca):
    """Each Z-level candidate set F with its move function and counter cap.

    The move function gives Z-edges at counter zero and, above zero, I-edges
    only from states that can still reach a -1 edge inside F.
    """
    zero, pos = machine.moves.zero, machine.moves.pos
    u_adj = {s: {t for _, t, _ in pos[s] + zero[s]} for s in range(len(pos))}
    b_z = _cap(len(pos), machine.moves.dplus)
    for subset in _candidate_sets(len(pos), u_adj):
        ze = {s: [e for e in zero[s] if e[1] in subset] for s in subset}
        ie = {s: [e for e in pos[s] if e[1] in subset] for s in subset}
        can_drop = {s for s in subset if any(d < 0 for _, _, d in ie[s])}
        changed = bool(can_drop)
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

        yield subset, edge_fn, b_z if can_drop else 0


def _i_level_kinds(
    subset: frozenset[int], edges: dict[int, list[tuple[str, int, int]]]
) -> tuple[str, ...]:
    """The kinds of covering closed walk that F's I-edges admit, in search order.

    The answer is the same at every anchor of F; the module docstring argues it.
    """
    arcs = [(s, t, d) for s in subset for _, t, d in edges[s]]
    cycle_signs: set[int] = set()
    tight_cover = False
    for sign in (1, -1):  # shortest paths, then longest paths as shortest under -d
        signed = [(s, t, sign * d) for s, t, d in arcs]
        dist, cyclic = potentials(subset, signed)
        if cyclic:
            cycle_signs.add(-sign)
            continue
        tight: dict[int, set[int]] = {}
        for s, t, d in signed:
            if dist[s] + d == dist[t]:
                tight.setdefault(s, set()).add(t)
        tight_cover = tight_cover or _induced_strongly_connected(subset, tight)
    equal = cycle_signs == {1, -1} or tight_cover
    return tuple(kind for kind, ok in (("equal", equal), ("plus", 1 in cycle_signs)) if ok)


def _may_close(
    edge_fn, anchor: int, subset: frozenset[int], floor: int, top: int, kind: str
) -> bool:
    """Whether the counter abstraction has a walk from (anchor, 0) of the given
    kind whose states cover F.

    Counters floor..top-1 are exact and ``top`` stands for every larger value;
    a -1 step from ``top`` may land on top-1 or stay, and arrivals below
    ``floor`` are dropped.  The walk ends, after at least one step, at
    (anchor, 0) for ``equal`` and at (anchor, > 0) for ``plus``.  The module
    docstring argues that False means no concrete walk exists.
    """

    def successors(node):
        s, c = node
        for _, t, d in edge_fn(s, c):
            if c < top:
                if c + d >= floor:
                    yield t, min(c + d, top)
            else:
                if d < 0:
                    yield t, top - 1
                yield t, top

    seen: set[tuple[int, int]] = set()
    preds: dict[tuple[int, int], list[tuple[int, int]]] = {}
    frontier = [(anchor, 0)]
    while frontier:
        node = frontier.pop()
        for nxt in successors(node):
            preds.setdefault(nxt, []).append(node)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    closing = {(s, c) for s, c in seen if s == anchor and (c > 0 if kind == "plus" else c == 0)}
    frontier = list(closing)
    while frontier:
        for prev in preds.get(frontier.pop(), ()):
            if prev not in closing:
                closing.add(prev)
                frontier.append(prev)
    return {s for s, _ in closing} == subset


def _loops_of(machine: Mbca) -> tuple[LoopDescriptor, ...]:
    states = list(machine.states)
    dplus = machine.max_positive_delta()
    found: dict[tuple, LoopDescriptor] = {}
    top = dplus + 2  # the abstraction keeps counters up to K = d+ + 1 exact

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
    for subset, edges in _i_level_sets(machine):
        kinds = _i_level_kinds(subset, edges)
        fmask = _mask(subset)
        rel_cap = _cap(len(subset), dplus)

        def edge_fn(s, rel, _edges=edges):
            return _edges[s]

        for anchor in subset:
            for kind in kinds:
                ok = _closes(anchor, fmask, kind)
                for dip in range(rel_cap + 1):
                    if not _may_close(edge_fn, anchor, subset, -dip, top, kind):
                        continue
                    cycle = _search(edge_fn, anchor, fmask, -dip, rel_cap, ok)
                    if cycle is not None:
                        emit(anchor, LEVEL_POS, subset, kind, dip, cycle)
                        break
                else:
                    raise MbcaError(
                        f"internal error: cycle arithmetic promises an I-level {kind} "
                        f"loop on {{{', '.join(states[i] for i in sorted(subset))}}} "
                        f"at {states[anchor]}, but no dip up to {rel_cap} gives one"
                    )

    # Z-level: full table, absolute counters from zero back to zero.
    for subset, edge_fn, cap in _z_level_sets(machine):
        fmask = _mask(subset)
        for anchor in subset:
            if not _may_close(edge_fn, anchor, subset, 0, top, "equal"):
                continue
            cycle = _search(edge_fn, anchor, fmask, 0, cap, _closes(anchor, fmask, "equal"))
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
