"""Alternating chains, transfinite superchains, and the m/n/s invariants.

Chains are strictly increasing alternating sequences of essential sets inside
a site (a maximal essential set).  Finite superchains are one-way alternating
walks over the sites carrying maximal chains.  A length-omega unit pairs an
I-level equal-kind loop of a positive maximal site with one of a negative
maximal site, mutually reachable at high counter with unboundedly reachable
anchors; the counter then meters how often the two sides may alternate.
Longer transfinite parts chain such units through genuinely re-pumping
(tail) reachability, and a finite prefix of maximal chains may sit on top,
giving lengths omega*p + s below omega^2.

Every reachability question of the assembly is set algebra on one cached
record per source configuration, ``Analyzer._seen``: the maximal-site loops a
run from the source operates and the states it reaches with a tail.  The
record is read off backward cover tables (``reachability.cover``), one per
target shared by every source, so no source needs a forward analysis.  "High"
is the counter ``math.inf``: a source at counter inf covers exactly the
targets of finite need, which is what every high enough counter covers, since
tables are upward-closed.  Each essential set is read from one source,
``Analyzer.loop_source``, and each link from ``OmegaLink.source``, as argued
where they are defined.  A source's counter comes from ``Analyzer._entry``,
which reads the same tables and ``reachability.tail_states``.  One
walker, ``_simple_paths``, yields both the link chains and the alternating
site paths in depth-first preorder, and one pass over the essential sets keeps
each set's first longest chain per first sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering, wraps
from math import inf

from .automaton import LEVEL_POS, Configuration, Mbca, memo
from .loops import LoopDescriptor, admissible, loops
from .reachability import covers, tail_states


@total_ordering
@dataclass(frozen=True)
class OrdinalW2:
    """An ordinal omega*p + s below omega^2, ordered lexicographically."""

    p: int
    s: int

    def __lt__(self, other: "OrdinalW2") -> bool:
        return (self.p, self.s) < (other.p, other.s)

    def is_zero(self) -> bool:
        return self.p == 0 and self.s == 0

    def render(self) -> str:
        if self.p == 0:
            return str(self.s)
        text = f"w*{self.p}"
        return f"{text}+{self.s}" if self.s else text


def parse_ordinal(text: str) -> OrdinalW2:
    text = text.strip()
    if "w" not in text:
        return OrdinalW2(0, int(text))
    body = text[1:]  # drop 'w'
    p, s = 1, 0
    if body.startswith("*"):
        rest = body[1:]
        if "+" in rest:
            p_text, s_text = rest.split("+", 1)
            p, s = int(p_text), int(s_text)
        else:
            p = int(rest)
    elif body.startswith("+"):
        s = int(body[1:])
    elif body:
        raise ValueError(f"bad ordinal {text!r}")
    return OrdinalW2(p, s)


@dataclass(frozen=True)
class Chain:
    sets: tuple[frozenset[str], ...]
    sign: str  # sign of the first element
    site: frozenset[str]

    def __len__(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class OmegaLink:
    pos_site: frozenset[str]
    neg_site: frozenset[str]
    pos_loop: LoopDescriptor
    neg_loop: LoopDescriptor

    def states(self) -> frozenset[str]:
        return self.pos_site | self.neg_site

    @property
    def source(self) -> Configuration:
        """The source the link is read from; ``Analyzer.links`` argues that
        every state of the link, at counter inf, covers the same targets."""
        return Configuration(self.pos_loop.anchor, inf)


@dataclass(frozen=True)
class Superchain:
    length: OrdinalW2
    finite_part: tuple[Chain, ...]
    omega_part: tuple[OmegaLink, ...]
    sign: str
    anchor_loop: LoopDescriptor | None  # sign carrier when the finite part is empty


@dataclass(frozen=True)
class InvariantTriple:
    m: int
    n: OrdinalW2
    s: int  # +1 / -1 / 0

    @property
    def coarse_class(self) -> str:
        if self.m == 0:
            return "E"
        letter = {1: "C", -1: "D", 0: "E"}[self.s]
        return f"{letter}_{self.m}^{self.n.render()}"


def _opposite(sign: str) -> str:
    return "negative" if sign == "positive" else "positive"


def _simple_paths(heads, successors):
    """Every simple path from each head in turn, in depth-first preorder: a path
    comes before its extensions, which follow the order of ``successors(path)``."""
    stack = [(head,) for head in reversed(heads)]
    while stack:
        path = stack.pop()
        yield path
        stack.extend(path + (n,) for n in reversed(successors(path)) if n not in path)


def _cached(method):
    """Memoize an ``Analyzer`` method per instance and argument: its inputs (the
    machine and the thresholds) are fixed when the instance is made."""

    @wraps(method)
    def cached(self, *args):
        key = (method.__name__, *args)
        if key not in self._cache:
            self._cache[key] = method(self, *args)
        return self._cache[key]

    return cached


class Analyzer:
    """One machine (plus per-state counter thresholds) analyzed lazily.

    Thresholds come from derivations: a loop is admissible only if its anchor
    is reachable with a counter at least max(its own operating minimum, the
    anchor's threshold).  The base machine has no thresholds.
    """

    def __init__(self, machine: Mbca, thresholds: dict[str, int] | None = None):
        self.machine = machine
        self.thresholds = dict(thresholds or {})
        self._cache: dict[tuple, object] = {}

    # -- loops and essential sets ----------------------------------------

    def threshold(self, state: str) -> int:
        return self.thresholds.get(state, 0)

    @_cached
    def admissible_loops(self) -> tuple[LoopDescriptor, ...]:
        return tuple(
            d
            for d in loops(self.machine)
            if admissible(self.machine, d, self.threshold(d.anchor))
        )

    @_cached
    def essential(self) -> dict[frozenset[str], str]:
        return {f: ds[-1].sign for f, ds in self._descriptor_index().items()}

    @_cached
    def _descriptor_index(self) -> dict[frozenset[str], tuple[LoopDescriptor, ...]]:
        index: dict[frozenset[str], tuple[LoopDescriptor, ...]] = {}
        for d in self.admissible_loops():
            index[d.essential_set] = index.get(d.essential_set, ()) + (d,)
        return index

    def descriptors(self, essential_set: frozenset[str]) -> tuple[LoopDescriptor, ...]:
        """The admissible loops of one essential set, in ``admissible_loops()`` order."""
        return self._descriptor_index().get(essential_set, ())

    @_cached
    def sites(self) -> tuple[frozenset[str], ...]:
        ess = list(self.essential())
        return tuple(
            sorted(
                (f for f in ess if not any(f < g for g in ess)),
                key=sorted,
            )
        )

    # -- chains -----------------------------------------------------------

    @_cached
    def _chain_data(self):
        """Per site: maximal chain length and one representative per first sign.

        One pass over the essential sets, smallest first, keeps for each set F
        the first longest alternating chain ending at F, extending the chain of
        the first smaller set, in this order, that gives the longest one.  A
        chain's length and last set fix its first sign, so one chain per set
        serves every sign.
        """
        ess = self.essential()
        ends: dict[frozenset[str], tuple[frozenset[str], ...]] = {}
        for f in sorted(ess, key=lambda f: (len(f), sorted(f))):
            longer = (ends[e] + (f,) for e in ends if e < f and ess[e] != ess[f])
            ends[f] = max(longer, key=len, default=(f,))
        info = {}
        for site in self.sites():
            inside = [ends[f] for f in ends if f <= site]
            length = max(map(len, inside))
            reps: dict[str, Chain] = {}
            for sets in inside:
                if len(sets) == length:
                    reps.setdefault(ess[sets[0]], Chain(sets, ess[sets[0]], site))
            info[site] = (length, frozenset(reps), reps)
        return info

    def chains(self) -> tuple[Chain, ...]:
        """One longest alternating chain per site (per achievable first sign)."""
        out = []
        for _, _, reps in self._chain_data().values():
            out.extend(reps[sign] for sign in sorted(reps))
        return tuple(out)

    def m_value(self) -> int:
        data = self._chain_data()
        return max((length for length, _, _ in data.values()), default=0)

    def max_sites(self) -> tuple[frozenset[str], ...]:
        m = self.m_value()
        return tuple(site for site, (l, _, _) in self._chain_data().items() if l == m)

    def site_first_signs(self, site: frozenset[str]) -> frozenset[str]:
        return self._chain_data()[site][1]

    def site_chain(self, site: frozenset[str], sign: str | None = None) -> Chain:
        reps = self._chain_data()[site][2]
        if sign is None:
            sign = sorted(reps)[0]
        return reps[sign]

    # -- what a run from a source can do ------------------------------------

    @_cached
    def _initial_tails(self) -> frozenset[str]:
        return tail_states(self.machine, self.machine.initial_configuration())

    @_cached
    def _entry(self, state: str, floor: int) -> float:
        """The highest counter at which the initial configuration reaches
        ``state``, which it reaches at ``floor`` or above: ``inf`` for a tail
        state.

        Otherwise the scan raises f while a run still reaches ``state`` at
        f + 1 or above.  It ends: ``tail_states`` holds exactly the states
        reached at unboundedly many counters (the ``reachability`` module
        docstring), so a state outside it is reached at only finitely many,
        and some f + 1 lies above them all.
        """
        if state in self._initial_tails():
            return inf
        machine, f = self.machine, floor
        while covers(machine, machine.initial_configuration(), state, f + 1):
            f += 1
        return f

    def operating_min(self, d: LoopDescriptor) -> int:
        return max(d.min_anchor_counter, self.threshold(d.anchor))

    @_cached
    def loop_source(self, essential_set: frozenset[str]) -> Configuration:
        """The configuration from which everything reachable while iterating
        an admissible loop of the set is reachable: the first loop's anchor,
        entered at ``_entry`` (counter inf, "arbitrarily high", for a tail
        state).  A ``plus`` loop's anchor is a tail state: it is reached at
        or above the operating minimum, at least dip + 1, and iterating the
        loop from there reaches it at unboundedly many counters.

        Any loop's anchor would do: they all cover the same targets.  Let x
        and y anchor admissible loops of F, entered at e_x and e_y.  Blindness
        makes an upward shift of a run a run, so y's loop runs from (y, e_y).
        It visits x at counter e_y + g1, which the initial configuration
        reaches, so e_y + g1 <= e_x.  The rest of the loop, from x back to y,
        gains g2 with g1 + g2 >= 0; shifted up, it runs from (x, e_x) and
        reaches y at a counter of at least e_y.  Cover tables are
        upward-closed, so (x, e_x) covers everything (y, e_y) covers, and
        symmetrically.  If one anchor is a tail state, so is every anchor,
        and every entry is inf.
        """
        d = self.descriptors(essential_set)[0]
        return Configuration(d.anchor, self._entry(d.anchor, self.operating_min(d)))

    @_cached
    def _seen(self, source: Configuration) -> tuple[frozenset[int], frozenset[str]]:
        """The one record every assembly relation reads: the positions, in
        ``admissible_loops()``, of the maximal-site loops that a run from
        ``source`` operates (reaches the anchor at or above its operating
        minimum), and the states it reaches with a tail.  Both are read off
        backward cover tables, one per (anchor, operating minimum) and one per
        pump state, each shared by every source."""
        sites = set(self.max_sites())
        operated = frozenset(
            i
            for i, d in enumerate(self.admissible_loops())
            if d.essential_set in sites
            and covers(self.machine, source, d.anchor, self.operating_min(d))
        )
        return operated, tail_states(self.machine, source)

    def _operated_sites(self, source: Configuration) -> set[frozenset[str]]:
        """The maximal sites with a loop that a run from ``source`` operates."""
        descs = self.admissible_loops()
        return {descs[i].essential_set for i in self._seen(source)[0]}

    # -- omega structure ----------------------------------------------------

    @_cached
    def links(self) -> tuple[OmegaLink, ...]:
        """Per pair of a positive and a negative maximal site, the first pair of
        their I-level equal loops, anchored with a tail, each operated from
        the other's anchor at counter inf.

        Every state of a link, at counter inf, covers what its ``source``
        covers.  Both sites are strongly connected in the I-level graph and
        their linked anchors are tail states, so every link state is a tail
        state, entered at inf.  From any link state at inf a run reaches its
        own site's anchor, hence, by the operation the link records, the
        other site's anchor, at arbitrarily high counters; and back.  So every
        link state has the same ``_seen`` record.
        """
        tails = self._initial_tails()
        descs = self.admissible_loops()
        sites = self.max_sites()
        pos = [f for f in sites if "positive" in self.site_first_signs(f)]
        neg = [f for f in sites if "negative" in self.site_first_signs(f)]
        units: dict[frozenset[str], list[int]] = {f: [] for f in pos + neg}
        for i, d in enumerate(descs):
            if d.essential_set in units and d.level == LEVEL_POS and d.delta_kind == "equal":
                if d.anchor in tails:
                    units[d.essential_set].append(i)

        def operates(i: int, j: int) -> bool:
            return j in self._seen(Configuration(descs[i].anchor, inf))[0]

        out = []
        for p_site in pos:
            for n_site in neg:
                pairs = (
                    (descs[i], descs[j])
                    for i in units[p_site]
                    for j in units[n_site]
                    if p_site != n_site and operates(i, j) and operates(j, i)
                )
                if pair := next(pairs, None):
                    out.append(OmegaLink(p_site, n_site, *pair))
        return tuple(out)

    def _link_chains(self) -> list[tuple[int, ...]]:
        """All simple paths over links (indices), longest first.  One link leads
        to another when every state of the second, with genuinely re-pumped
        counters, is tail-reached from every state of the first."""
        links = self.links()

        def leads(i: int, j: int) -> bool:
            return i != j and links[j].states() <= self._seen(links[i].source)[1]

        edges = [[j for j in range(len(links)) if leads(i, j)] for i in range(len(links))]
        paths = _simple_paths(range(len(links)), lambda path: edges[path[-1]])
        return sorted(paths, key=len, reverse=True)

    # -- superchain assembly -------------------------------------------------

    @_cached
    def _h_edges(self):
        sites = self.max_sites()
        if len(sites) == 1:  # no edge to read, so no source is built
            return {sites[0]: set()}
        return {a: self._operated_sites(self.loop_source(a)) - {a} for a in sites}

    def _alternating_paths(self, allowed, require_tail_to=None):
        """Longest alternating simple paths over allowed sites.

        Returns (best_length, firsts): firsts maps each (first_site,
        first_sign) head of a maximal path to the first maximal path with
        that head, in search order.  A path counts only if its last element
        tail-reaches one of the ``require_tail_to`` anchor states (no
        constraint when None).
        """
        edges, signs = self._h_edges(), self.site_first_signs
        allowed = list(allowed)
        inside, targets = set(allowed), set(require_tail_to or ())
        ends = {
            f
            for f in allowed
            if require_tail_to is None or self._seen(self.loop_source(f))[1] & targets
        }
        heads = [(f, sign) for f in allowed for sign in sorted(signs(f))]
        after = {}  # a site has one first sign, so the walker keeps sites simple
        for site, sign in heads:
            nsign = _opposite(sign)
            nexts = sorted(edges[site], key=sorted)
            after[site, sign] = [(f, nsign) for f in nexts if f in inside and nsign in signs(f)]

        best, firsts = 0, {}
        for path in _simple_paths(heads, lambda path: after[path[-1]]):
            if path[-1][0] in ends:
                if len(path) > best:
                    best, firsts = len(path), {}
                if len(path) == best:
                    firsts.setdefault(path[0], path)
        return best, firsts

    def _prefix_allowed(self, chain_links: tuple[int, ...]) -> list[frozenset[str]]:
        """Sites usable before the omega part: not reachable back from it."""
        links = self.links()
        blocked = set().union(*(self._operated_sites(links[i].source) for i in chain_links))
        return [s for s in self.max_sites() if s not in blocked]

    def _loop_entries(self, link: OmegaLink) -> list[LoopDescriptor]:
        """Admissible loops, in order, from which the first unit is re-pumpable."""
        anchors, descs = {link.pos_loop.anchor, link.neg_loop.anchor}, self.admissible_loops()
        return [d for d in descs if self._seen(self.loop_source(d.essential_set))[1] & anchors]

    @_cached
    def _superchain_summary(self):
        """Maximal (p, s) length, the entry loops achieving it per sign, and one
        superchain of that length per achieved sign.

        A prefixed superchain is entered through every loop of its first
        chain's site, a bare omega part through its anchor loop; the derivation
        needs every one of them.  The superchain kept for a sign is the first
        maximal one the pass meets.
        """
        found: list[tuple[tuple[LoopDescriptor, ...], Superchain]] = []  # in pass order

        def prefixed(p, omega, s, firsts):
            for (site, sign), path in firsts.items():
                finite = tuple(self.site_chain(f, fs) for f, fs in path)
                sc = Superchain(OrdinalW2(p, s), finite, omega, sign, None)
                found.append((self.descriptors(site), sc))

        if self.max_sites():
            prefixed(0, (), *self._alternating_paths(self.max_sites()))
        links = self.links()
        for chain in self._link_chains():
            omega = tuple(links[i] for i in chain)
            p = len(chain)
            anchors = (omega[0].pos_loop.anchor, omega[0].neg_loop.anchor)
            allowed = self._prefix_allowed(chain)
            prefixed(p, omega, *self._alternating_paths(allowed, require_tail_to=anchors))
            for d in self._loop_entries(omega[0]):
                found.append(((d,), Superchain(OrdinalW2(p, 0), (), omega, d.sign, d)))
        top = max((sc.length for _, sc in found), default=OrdinalW2(0, 0))
        entries: dict[str, set[LoopDescriptor]] = {"positive": set(), "negative": set()}
        kept: dict[str, Superchain] = {}
        for entry, sc in found:
            if sc.length == top:
                entries[sc.sign].update(entry)
                kept.setdefault(sc.sign, sc)
        return top, entries, kept

    def superchain_entry_options(self) -> dict[str, set[LoopDescriptor]]:
        """Per sign, the entry loops of every maximal superchain."""
        return self._superchain_summary()[1]

    def n_value(self) -> OrdinalW2:
        return self._superchain_summary()[0]

    def achieved_signs(self) -> set[str]:
        return set(self._superchain_summary()[2])

    def superchains(self) -> tuple[Superchain, ...]:
        """Representative superchains of maximal length, one per achieved sign."""
        kept = self._superchain_summary()[2]
        return tuple(kept[sign] for sign in sorted(kept))

    # -- invariants ------------------------------------------------------------

    def invariants(self) -> InvariantTriple:
        m = self.m_value()
        if m == 0:
            return InvariantTriple(0, OrdinalW2(0, 0), 0)
        n = self.n_value()
        signs = self.achieved_signs()
        if signs == {"positive"}:
            s = 1
        elif signs == {"negative"}:
            s = -1
        else:
            s = 0
        return InvariantTriple(m, n, s)


def analyzer_for(machine: Mbca, thresholds: dict[str, int] | None = None) -> Analyzer:
    """The shared :class:`Analyzer` of a machine value and threshold map."""
    key = ("analyzer", tuple(sorted((thresholds or {}).items())))
    return memo(machine, key, lambda: Analyzer(machine, thresholds))


def chains(machine: Mbca) -> tuple[Chain, ...]:
    return analyzer_for(machine).chains()


def superchains(machine: Mbca) -> tuple[Superchain, ...]:
    return analyzer_for(machine).superchains()


def invariants(machine: Mbca) -> InvariantTriple:
    return analyzer_for(machine).invariants()
