import random
from math import inf
from pathlib import Path

from hypothesis import given, settings, strategies as st

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
from mbca.loops import LoopDescriptor, _loops_of, essential_sets, loops
from mbca.naming import derive
from mbca.reachability import ReachSet, analysis, cutoff, tail_states
from mbca.wagner import wagner_invariants
from conftest import (
    perturbed_transfinite,
    random_counter_free,
    random_machine,
    transfinite_machines,
)

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
    Kept verbatim as the reference for the relations of ``Analyzer``, with
    "arbitrarily high" as the finite counter ``high_floor``."""

    @_cached
    def initial_reach(self):
        return analysis(self.machine, self.machine.initial_configuration())

    def high_floor(self) -> int:
        """The counter from which a source stands for "arbitrarily high": at
        least every finite need of the cover tables ``_seen`` reads, which
        ``test_seen_from_cover_tables_matches_the_forward_analyses`` checks."""
        k = len(self.machine.states)
        return cutoff(self.machine) + k * (self.machine.max_positive_delta() + 2)

    @_cached
    def loop_sources(self, essential_set: frozenset[str]) -> tuple[Configuration, ...]:
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
            else:
                entry = sr.max_finite()  # at least opmin, since entry was found
            sources.append(Configuration(d.anchor, entry))
        return tuple(sources)

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


def _both(source, letter, target, delta):
    return [(source, letter, "Z", target, delta), (source, letter, "I", target, delta)]


def _descent_machine(name, head):
    """``head`` leads to a, whose loop site {a} is positive; two I-level -1
    steps lead on from a to the negative loop site {c}, so a run crosses
    from a to c only from a counter of at least 2."""
    states = ["a", "b", "c"] + sorted({row[0] for row in head} - {"a"})
    rows = head + _both("a", "l", "a", 0) + _both("c", "l", "c", 0)
    rows += [("a", "d", "I", "b", -1), ("b", "d", "I", "c", -1)]
    letters = sorted({row[1] for row in rows})
    return validate(name, letters, states, head[0][0], rows, [["a"]])


def _entry_machines():
    """Where a loop source is entered decides a site edge.  Pumped: a is a
    tail state, entered at counter inf, not at its operating minimum 0 or 1.
    Topped: a is reached only at counter 2 and entered there, its highest."""
    pumped = _descent_machine("pumped_entry", _both("p", "u", "p", 1) + _both("p", "e", "a", 0))
    topped = _descent_machine("topped_entry", _both("s", "u", "t", 1) + [("t", "u", "I", "a", 1)])
    return [("pumped_entry", pumped, "D_1^3"), ("topped_entry", topped, "C_1^2")]


def test_a_loop_source_is_entered_at_its_highest_counter():
    for label, machine, coarse in _entry_machines():
        analyzer = Analyzer(machine)
        assert analyzer.invariants().coarse_class == coarse, label
        assert _relations(analyzer) == _relations(ReferenceAnalyzer(machine)), label


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
        # ``loop_source`` enters a plus loop only through its anchor's tail
        tails = tail_states(machine, machine.initial_configuration())
        plus = [d for d in analyzer.admissible_loops() if d.delta_kind == "plus"]
        assert all(d.anchor in tails for d in plus), label


class FiniteFloorAnalyzer(Analyzer):
    """Puts a finite counter, the old ``high_floor`` or 2 * it + 1, where the
    assembly puts a source at counter inf, and counts the sources it moved."""

    high_floor = ReferenceAnalyzer.high_floor

    def __init__(self, machine, thresholds=None, doubled=False):
        super().__init__(machine, thresholds)
        floor = self.high_floor()
        self.floor = 2 * floor + 1 if doubled else floor
        self.moved = 0

    def _seen(self, source: Configuration):
        if source.counter == inf:
            source = Configuration(source.state, self.floor)
            self.moved += 1
        return super()._seen(source)


def _finite_floors_change_nothing(machine, label) -> int:
    """Relations at each finite floor equal ``Analyzer``'s; the sources moved."""
    want, moved = _relations(Analyzer(machine)), 0
    for doubled in (False, True):
        got = FiniteFloorAnalyzer(machine, doubled=doubled)
        assert _relations(got) == want, (label, doubled)
        moved += got.moved
    return moved


def test_a_higher_floor_changes_nothing():
    """Counter inf stands for "arbitrarily high": the old finite floor, or a
    higher one, in its place must not move a chain, a link, a superchain, an
    entry loop or an invariant."""
    moved = sum(_finite_floors_change_nothing(m, label) for label, m in _reference_machines())
    assert moved > 1000


@settings(max_examples=40, deadline=None)
@given(transfinite_machines())
def test_a_higher_floor_changes_nothing_on_perturbed_gallery_machines(machine):
    """The same on the generator that reaches the omega assembly, where the
    reference assembly must agree too."""
    try:
        want = _relations(Analyzer(machine))
    except MbcaError:  # an SCC past the 16-state candidate limit
        return
    _finite_floors_change_nothing(machine, machine.name)
    assert _relations(ReferenceAnalyzer(machine)) == want


def test_the_perturbed_gallery_generator_reaches_the_omega_assembly():
    """A fixed draw of 60 machines keeps omega links in at least a quarter
    (27 of 60, and 555 of 1,500 draws, when the generator was written), so
    the properties on it exercise links, link chains and the prefix blocking."""
    with_links = 0
    for seed in range(60):
        machine = perturbed_transfinite(random.Random(seed).randint)
        try:
            with_links += bool(Analyzer(machine).links())
        except MbcaError:
            pass
    assert with_links >= 15


class ForwardSeenAnalyzer(Analyzer):
    """``_seen`` before it read cover tables: one forward reach analysis per
    source.  Kept verbatim as the reference for the table reading; a source
    at counter inf starts at the old finite ``high_floor``."""

    high_floor = ReferenceAnalyzer.high_floor

    @_cached
    def _seen(self, source: Configuration) -> tuple[frozenset[int], frozenset[str]]:
        if source.counter == inf:
            source = Configuration(source.state, self.high_floor())
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


def _one_source_per_set_and_per_link(machine):
    """On the machine and each derived level: every per-loop source of an
    essential set, as the reference enters it, has the ``_seen`` record of
    ``loop_source``; every link state is a tail state, and at counter inf has
    the record of the link's source.  A derived level's loops, taken from its
    parent's, are the ones enumeration finds."""
    for analyzer in _naming_analyzers(machine):
        ref = ReferenceAnalyzer(analyzer.machine, analyzer.thresholds)
        for f in ref.essential():
            want = ref._seen(ref.loop_source(f))
            assert all(ref._seen(src) == want for src in ref.loop_sources(f)), f
        for link in ref.links():
            want = ref._seen(link.source)
            for state in link.states():
                assert state in ref._initial_tails(), (link, state)
                assert ref._seen(Configuration(state, inf)) == want, (link, state)
        assert loops(analyzer.machine) == _loops_of(analyzer.machine)


@settings(max_examples=40, deadline=None)
@given(transfinite_machines())
def test_one_source_per_set_and_per_link_on_perturbed_gallery_machines(machine):
    try:
        Analyzer(machine).invariants()
    except MbcaError:  # an SCC past the 16-state candidate limit
        return
    _one_source_per_set_and_per_link(machine)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 7), st.integers(1, 3))
def test_one_source_per_set_on_random_machines(rng, n_states, max_delta):
    _one_source_per_set_and_per_link(random_machine(rng, n_states, max_delta=max_delta))
