"""Essential sets and anchored loop descriptors.

A loop descriptor records that some covering walk through the anchor visits
exactly the candidate state set and returns to the anchor with net counter
gain (kind ``plus``) or no gain (kind ``equal``).  I-level walks use only
positive-level entries and may dip below the anchor counter; the recorded dip
is minimal, and dip+1 is the least anchor counter from which the walk
iterates forever.  Z-level walks run from counter zero back to counter zero
under the full table; blindness makes them replayable from any anchor
counter, so their minimal anchor counter is zero.

Candidate sets F are the induced strongly connected subsets of each SCC of
the I-level graph, read off ``Mbca.moves`` (SCCs by ``automaton.sccs``);
blindness mirrors every Z-edge at I-level, so they serve both levels.  Cycle
arithmetic on F's I-edges gives the I-level kinds and every anchor's dip, and
one descent summary gives every Z-level anchor; neither runs a product search.

I-level existence is the one-dimensional case of Kosaraju & Sullivan (STOC
1988).  F is strongly connected, so a closed walk W through the anchor covers
F, and any cycle of F can be spliced into W where W meets it.  So the answer
is the same for every anchor of F.

- ``plus`` exists iff F has a positive cycle: splice in enough copies of it.
- ``equal`` exists iff F has cycles of both signs, or the tight edges (reduced
  weight 0) under Bellman–Ford potentials strongly connect F.  Every
  closed-walk weight is a sum of cycle weights, so a multiple of their gcd g.
  Cycles of both signs generate all of gZ with nonnegative coefficients, so
  spliced copies cancel W's weight.  If no cycle is positive (or none is
  negative), a zero closed walk is a union of zero cycles, whose edges are
  exactly the tight ones under the longest-path (or shortest-path)
  potentials.  Conversely, a closed walk on tight edges has weight 0.

I-level dips come from one credit fixpoint per set, ``automaton.credit``: per
state q, need[q] is the least counter from which a walk at q that stays >= 1
climbs forever, when F has a positive cycle; its docstring argues the
fixpoint's ceiling.  The dip at each anchor a then follows:
- ``plus``: need[a] - 1.  A covering positive closed walk of dip D iterates
  forever from D + 1; conversely a walk from need[a] climbs high enough to
  cover F and come back to a above need[a].  Proved.
- ``equal`` with tight edges under a potential P covering F: every zero
  closed walk is tight, so along one the counter moves by P(v) - P(a), and a
  covering one meets every v.  The dip is max(0, max_v P(a) - P(v)).  Proved.
- ``equal`` with cycles of both signs: the larger of need[a] and the same
  credit on reversed, negated arcs (the credit to come down into a from
  arbitrarily high), minus 1.  That much suffices: climb, cover F and cancel
  the weight high up, then come down into a.  That no lower dip closes is
  checked, not proved: the tests compare every dip with a linear dip scan.
If ``_i_level_kinds`` promises a kind that no rule gives, enumeration raises
``MbcaError``.

Z-level existence comes from one descent summary per set, one-counter
pushdown summarization (Reps, Horwitz & Sagiv, POPL 1995; Bouajjani, Esparza
& Maler, CONCUR 1997).  A descent from x to y goes inside F from (x, 1) to
(y, 0) and stays >= 1 until its last step, so it runs on I-edges, and as well
from (x, c) to (y, c - 1) for any c >= 1.  I-level deltas are >= -1
(``automaton.check`` enforces it), so a walk from counter c down to 0 is c
chained descents, cut at its first arrival at each lower level.  A descent
is thus a -1 edge, or an edge of delta d >= 0 followed by d + 1 chained
descents; ``_descents`` keeps per (x, y) the union of the states that its
descents visit, as the least fixpoint of these rules.  Z-level deltas are
>= 0, so a walk between consecutive visits of zero is a Z-edge p -> q of
delta k and k chained descents from q: one edge p -> t of the zero graph,
with the union of their states.  Closed walks from (a, 0) to (a, 0)
concatenate, so a loops iff every state of F lies on one; no visited mask is
needed.  They are the closed zero-graph walks through a, inside a's SCC
there, and each walk of each edge in that SCC lies on one.  So a loops iff
the unions of the edges inside its SCC cover F, with no counter bound.

Witness letters are found on first read of a descriptor's ``cycle``, by one
``_search`` at the loop's dip; at the I-level, the walk a scan upward from
dip 0 finds first.  A descriptor keeps only its machine for this, and naming
reads no letters.  The Z-level search expands counters above zero only at
states with a descent: from the others the counter never returns to zero,
so the cut keeps the parents of every target, hence the letters.

Search bounds.  Let N = |F| * 2^|F| count the (state, visited subset) pairs
and D = d+, the machine's largest positive delta; deltas are >= -1.
``rel_cap`` is (N + 1)(D + 1).  A shortest covering closed walk W in the
product has at most N steps, so its relative counter stays in [-N, N*D].
- ``plus``: if W's weight w is <= 0, splice m copies of a positive simple
  cycle (weight c, at most |F| steps) where W first meets it, with m least
  such that w + m*c > 0.  Every prefix then lies between -(N + |F|) and
  max(N*D, N + |F|*D), which is within rel_cap since D >= 1.
- ``equal`` from tight edges: along a tight walk the relative counter is a
  potential difference, at most (|F| - 1) * max(D, 1) in size.
- ``equal`` from cycles of both signs: no bound is proved here.
The Z-level letters search caps the absolute counter at b_z, the same formula
over all the machine's states; b_z bounds only that search, as rel_cap does
the I-level one.  Cutting repeated up- and down-crossings of a counter level
shortens a witness only to height N^2 * D, so b_z is not proved.  For those
two cases the tests check the bounds instead: the lasso oracle must realize
no Inf set that the loops miss, and the summaries and the arithmetic must
agree with the bounded search.  Reading a loop's letters raises ``MbcaError``
if no walk at its dip stays within its cap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .automaton import LEVEL_POS, LEVEL_ZERO, Configuration, Mbca, MbcaError, memo
from .automaton import closure, credit, potentials, reverse, sccs
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
    machine: Mbca = field(compare=False, repr=False)

    @cached_property
    def cycle(self) -> tuple[str, ...]:
        """Witness letters, replayable from the anchor; found on first read."""
        return _letters(self)

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
    for scc in sccs(range(n), adj):
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


def _inside(rows, subset: frozenset[int]) -> dict[int, list[tuple[str, int, int]]]:
    """The edges of ``rows`` (one list per state index) that stay inside F."""
    return {s: [e for e in rows[s] if e[1] in subset] for s in subset}


def _i_level_sets(machine: Mbca):
    """Each candidate set F, of both levels, with the I-edges inside F, keyed by state index."""
    pos = machine.moves.pos
    i_adj = {s: {t for _, t, _ in edges} for s, edges in enumerate(pos)}
    for subset in _candidate_sets(len(pos), i_adj):
        yield subset, _inside(pos, subset)


def _chains(desc: dict[int, dict[int, int]], q: int, k: int) -> dict[int, int]:
    """Per end state t, the union of the states visited by every chain of k
    descents from q that ends at t; with k = 0, q itself."""
    ends = {q: 1 << q}
    for _ in range(k):
        nxt: dict[int, int] = {}
        for y, mask in ends.items():
            for t, visited in desc[y].items():
                nxt[t] = nxt.get(t, 0) | mask | visited
        ends = nxt
    return ends


def _descents(subset: frozenset[int], ie: dict[int, list[tuple[str, int, int]]]):
    """desc[x][y]: the states visited by the descents from x to y on F's I-edges
    ``ie``, from a worklist of walks (x, at, k, visited) that left x by one
    edge, are at ``at`` and owe k more descents."""
    desc: dict[int, dict[int, int]] = {x: {} for x in subset}
    owing: dict[tuple[int, int, int], int] = {}  # (x, at, k) -> the union of its walks' states
    waits: dict[int, set[tuple[int, int]]] = {y: set() for y in subset}  # at -> its (x, k)
    work = [(x, z, d + 1, 1 << x | 1 << z) for x in subset for _, z, d in ie[x]]
    while work:
        x, at, k, visited = work.pop()
        old = owing.get((x, at, k), 0) if k else desc[x].get(at, 0)
        if visited | old == old:
            continue
        visited |= old
        if k:
            owing[x, at, k] = visited
            waits[at].add((x, k))
            work += [(x, t, k - 1, visited | m) for t, m in desc[at].items()]
        else:  # a descent from x to `at`: the walks waiting at x move on
            desc[x][at] = visited
            work += [(w, at, j - 1, owing[w, x, j] | visited) for w, j in waits[x]]
    return desc


def _z_level_anchors(machine: Mbca, subset: frozenset[int]) -> set[int]:
    """The anchors of F's Z-level loops, all at once from one descent summary:
    a loops iff the edges inside its SCC of the zero graph cover F."""
    ze = _inside(machine.moves.zero, subset)
    if not any(ze.values()):
        return set()
    desc = _descents(subset, _inside(machine.moves.pos, subset))
    adj: dict[int, set[int]] = {}
    covers: dict[tuple[int, int], int] = {}  # zero-graph edge -> the states its walks visit
    for p in subset:
        for _, q, k in ze[p]:
            for t, visited in _chains(desc, q, k).items():
                adj.setdefault(p, set()).add(t)
                covers[p, t] = covers.get((p, t), 0) | visited | 1 << p
    component = {v: i for i, scc in enumerate(sccs(subset, adj)) for v in scc}
    covered: dict[int, int] = {}
    for (p, t), visited in covers.items():
        if component[p] == component[t]:
            covered[component[p]] = covered.get(component[p], 0) | visited
    full = _mask(subset)
    return {a for a in subset if covered.get(component[a]) == full}


def _z_level_moves(machine: Mbca, subset: frozenset[int]):
    """The Z-level move function inside F and its counter cap, for witness
    letters: Z-edges at counter zero and, above zero, I-edges only from states
    that have a descent (from the others the counter never returns to zero)."""
    ze, ie = _inside(machine.moves.zero, subset), _inside(machine.moves.pos, subset)
    desc = _descents(subset, ie)

    def edge_fn(s, rel):
        if rel == 0:
            return ze[s]
        return ie[s] if desc[s] else ()

    return edge_fn, _cap(len(machine.states), machine.moves.dplus) if any(desc.values()) else 0


def _arcs(subset: frozenset[int], edges: dict[int, list[tuple[str, int, int]]]):
    return [(s, t, d) for s in subset for _, t, d in edges[s]]


def _cycle_arithmetic(subset: frozenset[int], arcs: list[tuple[int, int, int]]):
    """The signs of F's cycles, and a potential P whose tight edges strongly
    connect F (None if there is none).

    Along a walk on tight edges the counter moves by P(target) - P(source).
    """
    cycle_signs: set[int] = set()
    tight_potential = None
    for sign in (1, -1):  # shortest paths, then longest paths as shortest under -d
        signed = [(s, t, sign * d) for s, t, d in arcs]
        dist, cyclic = potentials(subset, signed)
        if cyclic:
            cycle_signs.add(-sign)
            continue
        if tight_potential is None:
            tight: dict[int, set[int]] = {}
            for s, t, d in signed:
                if dist[s] + d == dist[t]:
                    tight.setdefault(s, set()).add(t)
            if _induced_strongly_connected(subset, tight):
                tight_potential = {v: sign * dist[v] for v in subset}
    return cycle_signs, tight_potential


def _i_level_kinds(
    subset: frozenset[int], edges: dict[int, list[tuple[str, int, int]]]
) -> tuple[str, ...]:
    """The kinds of covering closed walk that F's I-edges admit: equal, then plus.

    The answer is the same at every anchor of F; the module docstring argues it.
    """
    cycle_signs, tight_potential = _cycle_arithmetic(subset, _arcs(subset, edges))
    equal = cycle_signs == {1, -1} or tight_potential is not None
    return tuple(kind for kind, ok in (("equal", equal), ("plus", 1 in cycle_signs)) if ok)


def _i_level_dips(
    subset: frozenset[int], edges: dict[int, list[tuple[str, int, int]]]
) -> dict[str, dict[int, int]]:
    """Per kind of loop that F admits, each anchor's minimal dip, by the rules
    the module docstring argues."""
    arcs = _arcs(subset, edges)
    cycle_signs, tight_potential = _cycle_arithmetic(subset, arcs)
    dips: dict[str, dict[int, int]] = {}
    if tight_potential is not None:
        low = min(tight_potential.values())
        dips["equal"] = {a: p - low for a, p in tight_potential.items()}
    if 1 in cycle_signs:
        need = credit(subset, arcs)
        dips["plus"] = {a: need[a] - 1 for a in subset}
        if -1 in cycle_signs:
            back = credit(subset, [(t, s, -d) for s, t, d in arcs])
            dips["equal"] = {a: max(need[a], back[a]) - 1 for a in subset}
    return dips


def _letters(d: LoopDescriptor) -> tuple[str, ...]:
    """A loop's witness letters: the first walk ``_search`` finds at its dip.

    At the I-level that is the walk a scan upward from dip 0 finds first.
    """
    states = d.machine.states
    index = {q: i for i, q in enumerate(states)}
    subset = frozenset(index[q] for q in d.essential_set)
    anchor, fmask = index[d.anchor], _mask(subset)
    if d.level == LEVEL_ZERO:
        edge_fn, cap = _z_level_moves(d.machine, subset)
    else:
        edges = _inside(d.machine.moves.pos, subset)
        edge_fn, cap = (lambda s, rel: edges[s]), _cap(len(subset), d.machine.moves.dplus)
    cycle = _search(edge_fn, anchor, fmask, -d.dip, cap, _closes(anchor, fmask, d.delta_kind))
    if cycle is None:
        members = ", ".join(states[i] for i in sorted(subset))
        raise MbcaError(
            f"internal error: the {d.level}-level {d.delta_kind} loop on {{{members}}} "
            f"at {d.anchor} has no walk at dip {d.dip} up to {cap}"
        )
    return tuple(cycle)


def _loops_of(machine: Mbca) -> tuple[LoopDescriptor, ...]:
    states = machine.states
    found: list[LoopDescriptor] = []

    def emit(anchor, level, fset, kind, dip):
        found.append(
            LoopDescriptor(
                anchor=states[anchor],
                level=level,
                essential_set=fset,
                delta_kind=kind,
                positive=fset in machine.accept_family,
                dip=dip,
                machine=machine,
            )
        )

    # I-level: uniform positive-level edges, relative counters, dips in closed form.
    for subset, edges in _i_level_sets(machine):
        kinds = _i_level_kinds(subset, edges)
        dips = _i_level_dips(subset, edges) if kinds else {}
        fset = frozenset(states[i] for i in subset)
        for anchor in subset:
            for kind in kinds:
                if kind not in dips:
                    members = ", ".join(states[i] for i in sorted(subset))
                    raise MbcaError(
                        f"internal error: cycle arithmetic promises an I-level {kind} loop "
                        f"on {{{members}}} at {states[anchor]}, but no dip rule gives one"
                    )
                emit(anchor, LEVEL_POS, fset, kind, dips[kind][anchor])
        # Z-level: full table, absolute counters from zero back to zero.
        for anchor in _z_level_anchors(machine, subset):
            emit(anchor, LEVEL_ZERO, fset, "equal", 0)

    return tuple(sorted(found, key=lambda d: (d.anchor, d.level, sorted(d.essential_set), d.delta_kind)))


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
