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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering, wraps

from .automaton import LEVEL_POS, Configuration, Mbca, memo
from .loops import LoopDescriptor, admissible, loops
from .reachability import ReachSet, analysis, cutoff


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
        """Per site: maximal chain length and one representative per first sign."""
        ess = self.essential()
        info = {}
        for site in self.sites():
            inside = sorted(
                (f for f in ess if f <= site), key=lambda f: (len(f), sorted(f))
            )
            lp: dict[frozenset[str], int] = {}
            first: dict[frozenset[str], set[str]] = {}
            for f in inside:
                lp[f], first[f] = 1, {ess[f]}
                for e in inside:
                    if e < f and ess[e] != ess[f]:
                        if lp[e] + 1 > lp[f]:
                            lp[f], first[f] = lp[e] + 1, set(first[e])
                        elif lp[e] + 1 == lp[f] and lp[f] > 1:
                            first[f] |= first[e]
            length = max(lp[f] for f in inside)

            def rebuild(end, sign):
                sets = [end]
                cur, need = end, lp[end]
                while need > 1:
                    cur = next(
                        e
                        for e in inside
                        if e < cur
                        and ess[e] != ess[cur]
                        and lp[e] == need - 1
                        and sign in first[e]
                    )
                    sets.append(cur)
                    need -= 1
                sets.reverse()
                return Chain(tuple(sets), sign, site)

            reps: dict[str, Chain] = {}
            for f in inside:
                if lp[f] == length:
                    for sign in sorted(first[f]):
                        if sign not in reps:
                            reps[sign] = rebuild(f, sign)
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

    # -- reachability helpers ----------------------------------------------

    @_cached
    def initial_reach(self):
        return analysis(self.machine, self.machine.initial_configuration())

    def high_floor(self) -> int:
        k = len(self.machine.states)
        return cutoff(self.machine) + k * (self.machine.max_positive_delta() + 2)

    def operating_min(self, d: LoopDescriptor) -> int:
        return max(d.min_anchor_counter, self.threshold(d.anchor))

    def _cycle_net(self, d: LoopDescriptor) -> int:
        # only plus descriptors come here; they are I-level, so every letter has an I-entry
        net, state = 0, d.anchor
        for letter in d.cycle:
            state, delta = self.machine.entry(state, letter, LEVEL_POS)
            net += delta
        return net

    @_cached
    def loop_sources(self, essential_set: frozenset[str]) -> tuple[Configuration, ...]:
        """Configurations from which everything reachable while iterating some
        admissible loop of the set is reachable (highest known entry points)."""
        sources = []
        high = self.high_floor()
        for d in self.descriptors(essential_set):
            opmin = self.operating_min(d)
            sr = self.initial_reach().reach_set.at(d.anchor)
            entry = sr.least_value_at_least(opmin)
            if entry is None:
                continue
            if sr.tail is not None:
                entry = sr.least_value_at_least(max(opmin, high))
            elif d.delta_kind == "plus":
                net = self._cycle_net(d)
                if net > 0 and entry < high:
                    entry += ((high - entry + net - 1) // net) * net
            else:
                entry = sr.max_finite()  # at least opmin, since entry was found
            sources.append(Configuration(d.anchor, entry))
        return tuple(sources)

    def _reach_from(self, source: Configuration) -> ReachSet:
        return analysis(self.machine, source).reach_set

    def site_anchored_reachable(self, sources, site) -> bool:
        for src in sources:
            rs = self._reach_from(src)
            for d in self.descriptors(site):
                if rs.at(d.anchor).has_value_at_least(self.operating_min(d)):
                    return True
        return False

    def tail_reaches(self, sources, target_state: str) -> bool:
        return any(
            self._reach_from(src).at(target_state).tail is not None for src in sources
        )

    # -- omega structure ----------------------------------------------------

    @_cached
    def links(self) -> tuple[OmegaLink, ...]:
        out = []
        signs = {site: self.site_first_signs(site) for site in self.max_sites()}
        pos_sites = [s for s in self.max_sites() if "positive" in signs[s]]
        neg_sites = [s for s in self.max_sites() if "negative" in signs[s]]
        init = self.initial_reach().reach_set
        high = self.high_floor()
        for p_site in pos_sites:
            for n_site in neg_sites:
                if p_site == n_site:
                    continue
                link = None
                for dp in self.descriptors(p_site):
                    if dp.level != LEVEL_POS or dp.delta_kind != "equal":
                        continue
                    if init.at(dp.anchor).tail is None:
                        continue
                    for dn in self.descriptors(n_site):
                        if dn.level != LEVEL_POS or dn.delta_kind != "equal":
                            continue
                        if init.at(dn.anchor).tail is None:
                            continue
                        src_p = Configuration(
                            dp.anchor,
                            init.at(dp.anchor).least_value_at_least(high),
                        )
                        src_n = Configuration(
                            dn.anchor,
                            init.at(dn.anchor).least_value_at_least(high),
                        )
                        fwd = self._reach_from(src_p).at(dn.anchor)
                        bwd = self._reach_from(src_n).at(dp.anchor)
                        if fwd.has_value_at_least(
                            self.operating_min(dn)
                        ) and bwd.has_value_at_least(self.operating_min(dp)):
                            link = OmegaLink(p_site, n_site, dp, dn)
                            break
                    if link:
                        break
                if link:
                    out.append(link)
        return tuple(out)

    def _link_high_sources(self, link: OmegaLink) -> list[Configuration]:
        init = self.initial_reach().reach_set
        high = self.high_floor()
        sources = []
        for s in sorted(link.states()):
            sr = init.at(s)
            if sr.tail is not None:
                sources.append(Configuration(s, sr.least_value_at_least(high)))
            elif sr.bits:
                sources.append(Configuration(s, sr.max_finite()))
        return sources

    @_cached
    def _link_edges(self):
        links = self.links()
        edges: dict[int, set[int]] = {i: set() for i in range(len(links))}
        for i, a in enumerate(links):
            srcs = self._link_high_sources(a)
            for j, b in enumerate(links):
                if i == j:
                    continue
                # every state of the next unit, with genuinely re-pumped counters,
                # from every state of this one
                if all(
                    any(
                        self._reach_from(src).at(t).tail is not None
                        for src in srcs
                        if src.state == s
                    )
                    for s in sorted(a.states())
                    for t in sorted(b.states())
                ):
                    edges[i].add(j)
        return edges

    def _link_chains(self) -> list[tuple[int, ...]]:
        """All simple paths over links (indices), longest first."""
        links = self.links()
        edges = self._link_edges()
        paths: list[tuple[int, ...]] = []

        def extend(path: tuple[int, ...]):
            paths.append(path)
            for j in sorted(edges[path[-1]]):
                if j not in path:
                    extend(path + (j,))

        for i in range(len(links)):
            extend((i,))
        paths.sort(key=len, reverse=True)
        return paths

    # -- superchain assembly -------------------------------------------------

    @_cached
    def _h_edges(self):
        sites = self.max_sites()
        edges: dict[frozenset, set[frozenset]] = {s: set() for s in sites}
        for a in sites:
            sources = self.loop_sources(a)
            for b in sites:
                if a != b and self.site_anchored_reachable(sources, b):
                    edges[a].add(b)
        return edges

    def _alternating_paths(self, allowed, require_tail_to=None):
        """Longest alternating simple paths over allowed sites.

        Returns (best_length, firsts): firsts maps each (first_site,
        first_sign) head of a maximal path to the first maximal path with
        that head, in search order.  A path counts only if its last element
        tail-reaches one of the ``require_tail_to`` anchor states (no
        constraint when None).
        """
        edges = self._h_edges()
        allowed = list(allowed)
        best = 0
        firsts: dict[tuple[frozenset[str], str], tuple] = {}

        def ok_terminal(site) -> bool:
            if require_tail_to is None:
                return True
            sources = self.loop_sources(site)
            return any(self.tail_reaches(sources, q) for q in require_tail_to)

        def walk(site, sign, path):
            nonlocal best, firsts
            length = len(path)
            if ok_terminal(site):
                if length > best:
                    best, firsts = length, {}
                if length == best:
                    firsts.setdefault(path[0], path)
            for nxt in sorted(edges[site], key=sorted):
                if nxt in {p for p, _ in path}:
                    continue
                if nxt not in allowed:
                    continue
                nsign = _opposite(sign)
                if nsign in self.site_first_signs(nxt):
                    walk(nxt, nsign, path + ((nxt, nsign),))

        for site in allowed:
            for sign in sorted(self.site_first_signs(site)):
                walk(site, sign, ((site, sign),))
        return best, firsts

    def _prefix_allowed(self, chain_links: tuple[int, ...]) -> list[frozenset[str]]:
        """Sites usable before the omega part: not reachable back from it."""
        links = self.links()
        blocked: set[frozenset] = set()
        for idx in chain_links:
            link = links[idx]
            srcs = self._link_high_sources(link)
            for site in self.max_sites():
                if site in blocked:
                    continue
                if self.site_anchored_reachable(srcs, site):
                    blocked.add(site)
        return [s for s in self.max_sites() if s not in blocked]

    def _loop_entries(self, link: OmegaLink) -> list[LoopDescriptor]:
        """Admissible loops, in order, from which the first unit is re-pumpable."""
        anchors = (link.pos_loop.anchor, link.neg_loop.anchor)
        out = []
        for d in self.admissible_loops():
            sources = [
                s for s in self.loop_sources(d.essential_set) if s.state == d.anchor
            ]
            if any(self.tail_reaches(sources, q) for q in anchors):
                out.append(d)
        return out

    @_cached
    def _superchain_summary(self):
        """Maximal (p, s) length, the entry structures achieving it, and one
        superchain of that length per achieved sign.

        Entries are ("site", F) for prefixed superchains (the first chain's
        site) and ("loop", descriptor) for bare omega parts; the derivation
        needs every one of them.  The superchain kept for a sign is the first
        maximal one the pass meets.
        """
        found: list[tuple[tuple, Superchain]] = []  # (entry, superchain) in pass order

        def prefixed(p, omega, s, firsts):
            for (site, sign), path in firsts.items():
                finite = tuple(self.site_chain(f, fs) for f, fs in path)
                sc = Superchain(OrdinalW2(p, s), finite, omega, sign, None)
                found.append((("site", site), sc))

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
                found.append((("loop", d), Superchain(OrdinalW2(p, 0), (), omega, d.sign, d)))
        top = max((sc.length for _, sc in found), default=OrdinalW2(0, 0))
        entries: dict[str, set] = {"positive": set(), "negative": set()}
        kept: dict[str, Superchain] = {}
        for entry, sc in found:
            if sc.length == top:
                entries[sc.sign].add(entry)
                kept.setdefault(sc.sign, sc)
        return top, entries, kept

    def superchain_entry_options(self) -> dict[str, set]:
        """Entry structures of every maximal superchain, keyed by sign."""
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
