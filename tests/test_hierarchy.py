import random
from pathlib import Path

from mbca import (
    OrdinalW2,
    chains,
    invariants,
    parse_machine,
    parse_ordinal,
    superchains,
    validate,
)
from mbca.automaton import LEVEL_POS, Configuration, MbcaError
from mbca.gallery import canonical, gallery_box
from mbca.hierarchy import Analyzer, Chain, OmegaLink, _cached, _opposite
from mbca.loops import LoopDescriptor, essential_sets
from mbca.naming import derive
from mbca.reachability import ReachSet, _pump_credits, analysis, cover
from mbca.wagner import wagner_invariants
from conftest import random_counter_free, random_machine

MACHINES = Path(__file__).resolve().parent.parent / "machines"


def test_ordinal_order_and_rendering():
    assert OrdinalW2(0, 1) < OrdinalW2(0, 2) < OrdinalW2(1, 0) < OrdinalW2(1, 1)
    assert OrdinalW2(1, 3) < OrdinalW2(2, 0)
    assert OrdinalW2(1, 1).render() == "w*1+1"
    assert OrdinalW2(2, 0).render() == "w*2"
    assert OrdinalW2(0, 3).render() == "3"
    assert parse_ordinal("w") == OrdinalW2(1, 0)
    assert parse_ordinal("w*2+3") == OrdinalW2(2, 3)
    assert parse_ordinal("w+1") == OrdinalW2(1, 1)
    assert parse_ordinal("4") == OrdinalW2(0, 4)


def test_a1_chains(a1):
    got = {(c.site, c.sign, len(c)) for c in chains(a1)}
    assert got == {
        (frozenset(["q0"]), "negative", 1),
        (frozenset(["q2"]), "positive", 1),
    }


def test_a_all_single_chain(a_all):
    (chain,) = chains(a_all)
    assert chain.sign == "positive" and len(chain) == 1


def test_two_state_zero_level_chain():
    machine = validate(
        "mull", ["a", "b"], ["q1", "q2"], "q1",
        [
            ("q1", "a", "Z", "q2", 0), ("q1", "a", "I", "q2", 0),
            ("q2", "a", "Z", "q1", 0), ("q2", "a", "I", "q1", 0),
            ("q1", "b", "Z", "q1", 0), ("q1", "b", "I", "q1", 0),
            ("q2", "b", "Z", "q2", 0), ("q2", "b", "I", "q2", 0),
        ],
        [["q1"]],
    )
    (chain,) = chains(machine)
    assert len(chain) == 2
    assert chain.sign == "positive"
    assert chain.sets == (frozenset(["q1"]), frozenset(["q1", "q2"]))


def test_invariants_reference_machines(a1, a_all, g_omega):
    inv = invariants(a1)
    assert (inv.m, inv.n, inv.s) == (1, OrdinalW2(0, 2), -1)
    assert inv.coarse_class == "D_1^2"

    inv = invariants(a_all)
    assert (inv.m, inv.n, inv.s) == (1, OrdinalW2(0, 1), 1)
    assert inv.coarse_class == "C_1^1"

    inv = invariants(g_omega)
    assert (inv.m, inv.n, inv.s) == (1, OrdinalW2(1, 1), -1)
    assert inv.coarse_class == "D_1^w*1+1"


def test_superchain_witnesses(a1, a_all, g_omega):
    (sc,) = superchains(a1)
    assert sc.length == OrdinalW2(0, 2)
    assert sc.sign == "negative"
    assert [c.site for c in sc.finite_part] == [frozenset(["q0"]), frozenset(["q2"])]

    (sc,) = superchains(a_all)
    assert (sc.length, sc.sign) == (OrdinalW2(0, 1), "positive")

    (sc,) = superchains(g_omega)
    assert (sc.length, sc.sign) == (OrdinalW2(1, 1), "negative")
    assert [c.site for c in sc.finite_part] == [frozenset(["p"])]
    (link,) = sc.omega_part
    assert (link.pos_site, link.neg_site) == (frozenset(["qp"]), frozenset(["qn"]))


def test_omega_link_union_not_essential(g_omega):
    analyzer = Analyzer(g_omega)
    for link in analyzer.links():
        union = link.pos_site | link.neg_site
        assert union not in {f for f, _ in essential_sets(g_omega)}


def test_n_positive_when_essential_exists():
    rng = random.Random(43)
    for _ in range(40):
        machine = random_counter_free(rng)
        inv = invariants(machine)
        if essential_sets(machine):
            assert inv.n >= OrdinalW2(0, 1)
        else:
            assert inv.m == 0 and inv.n == OrdinalW2(0, 0)


def test_counter_free_agreement_random():
    rng = random.Random(47)
    for _ in range(150):
        machine = random_counter_free(rng, n_states=3, n_letters=2)
        mine = invariants(machine)
        base = wagner_invariants(machine)
        assert (mine.m, mine.n, mine.s) == (base.m, base.n, base.s), machine


def test_bottom_class_for_loop_free():
    machine = validate(
        "deadend", ["a"], ["q", "r"], "q",
        [("q", "a", "Z", "r", 0), ("q", "a", "I", "r", 0)],
        [["r"]],
    )
    inv = invariants(machine)
    assert (inv.m, inv.s) == (0, 0)
    assert inv.coarse_class == "E"
    assert superchains(machine) == ()


class ReferenceAnalyzer(Analyzer):
    """The superchain assembly before it read one record per source: a reach
    set per query, nested search closures, and a rebuild pass for chains.
    Kept verbatim as the reference for the relations of ``Analyzer``."""

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


def _reference_machines():
    """The gallery box, ``machines/``, the deep specs and C/D_1^w*p+s with
    p, s <= 3 carry the link code; seeded random machines of 3-7 states add
    breadth, with the three whose bounded re-entries the assembly misses."""
    specs = [spec.render() for spec in gallery_box()]
    specs += ["C_3^w*1", "D_3^w*1+1", "C_3^w*2", "C_4^w*1", "E_4^w*1+2 E", "E_4^w*2 E"]
    specs += [f"{c}_1^w*{p}+{s}" for c in "CD" for p in (1, 2, 3) for s in (1, 2, 3)]
    machines = [(spec, canonical(spec)) for spec in specs]
    machines += [(p.stem, parse_machine(p.read_text())) for p in sorted(MACHINES.glob("*.mbca"))]
    seeds = [(seed, n) for n in range(3, 8) for seed in range(30)]
    seeds += [(2084, 5), (353, 7), (2876, 5)]
    machines += [(seed, random_machine(random.Random(seed[0]), seed[1])) for seed in seeds]
    return machines


def _relations(analyzer: Analyzer):
    return (
        analyzer.chains(),
        analyzer.links(),
        analyzer.superchains(),
        analyzer.superchain_entry_options(),
        analyzer.invariants(),
    )


def test_assembly_matches_the_reference():
    for label, machine in _reference_machines():
        analyzer = Analyzer(machine)
        assert _relations(analyzer) == _relations(ReferenceAnalyzer(machine)), label
        # ``loop_sources`` enters a plus loop only through its anchor's tail
        reach = analyzer.initial_reach().reach_set
        plus = [d for d in analyzer.admissible_loops() if d.delta_kind == "plus"]
        assert all(reach.at(d.anchor).tail is not None for d in plus), label


class DoubledFloorAnalyzer(Analyzer):
    def high_floor(self) -> int:
        return 2 * super().high_floor() + 1


def test_a_higher_floor_changes_nothing():
    """``high_floor`` stands for "arbitrarily high": raising it must not move
    an invariant, a superchain, an entry loop or a link."""
    for label, machine in _reference_machines():
        want, got = Analyzer(machine), DoubledFloorAnalyzer(machine)
        assert _relations(got)[1:] == _relations(want)[1:], label


class ForwardSeenAnalyzer(Analyzer):
    """``_seen`` before it read cover tables: one forward reach analysis per
    source.  Kept verbatim as the reference for the table reading."""

    @_cached
    def _seen(self, source: Configuration) -> tuple[frozenset[int], frozenset[str]]:
        rs = analysis(self.machine, source).reach_set
        sites = set(self.max_sites())
        operated = frozenset(
            i
            for i, d in enumerate(self.admissible_loops())
            if d.essential_set in sites
            and rs.at(d.anchor).has_value_at_least(self.operating_min(d))
        )
        return operated, frozenset(q for q, sr in rs.per_state.items() if sr.tail)


def _naming_analyzers(machine):
    """The analyzer of the machine and of each derivation its name goes
    through, each with every relation of the assembly asked."""
    analyzer = Analyzer(machine)
    while True:
        inv = _relations(analyzer)[-1]
        yield analyzer
        if inv.m == 0 or inv.s != 0:
            return
        try:
            ctx = derive(analyzer.machine, analyzer)
        except MbcaError:
            return
        analyzer = Analyzer(ctx.machine, ctx.thresholds)
        if analyzer.invariants().m >= inv.m:
            return  # naming raises here; the strict xfails of test_naming pin it


def test_seen_from_cover_tables_matches_the_forward_analyses():
    asked = 0
    for label, machine in _reference_machines():
        for analyzer in _naming_analyzers(machine):
            forward = ForwardSeenAnalyzer(analyzer.machine, analyzer.thresholds)
            for key in [key for key in analyzer._cache if key[0] == "_seen"]:
                assert analyzer._seen(key[1]) == forward._seen(key[1]), (label, key[1])
                asked += 1
    assert asked > 400


def _finite_needs(analyzer: Analyzer):
    """Every finite need of the cover tables that ``_seen`` reads."""
    machine, sites = analyzer.machine, set(analyzer.max_sites())
    tables = [
        cover(machine, d.anchor, analyzer.operating_min(d))
        for d in analyzer.admissible_loops()
        if d.essential_set in sites
    ]
    tables += [cover(machine, p, need) for p, need, _ in _pump_credits(machine)]
    return [need for table in tables for need in table if need != float("inf")]


def test_high_floor_is_at_least_every_finite_need():
    """From ``high_floor`` up, ``_seen`` no longer depends on the counter."""
    analyzers = 0
    for label, machine in _reference_machines():
        for analyzer in _naming_analyzers(machine):
            assert max(_finite_needs(analyzer), default=0) <= analyzer.high_floor(), label
            analyzers += 1
    assert analyzers > len(_reference_machines())
