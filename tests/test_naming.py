import dataclasses
import importlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from mbca import (
    MalformedName,
    MbcaError,
    NotDerivable,
    OrdinalW2,
    WadgeName,
    compare,
    degree_rank,
    derive,
    parse_name,
    validate,
    wadge_name,
)
from mbca import automaton, naming, reachability
from mbca.gallery import canonical
from mbca.naming import DerivationContext, NameBlock, check_name
from conftest import duplicate_state, random_counter_free, random_machine

loops_module = importlib.import_module("mbca.loops")


def test_name_grammar_round_trip():
    for text in ["C_1^1", "D_1^w*1+1", "E_2^3 C_1^w*1", "E_2^1 E", "E"]:
        assert parse_name(text).render() == text


def test_malformed_names_rejected():
    with pytest.raises(MalformedName):
        parse_name("C_1^1 C_1^1")  # C only terminal
    with pytest.raises(MalformedName):
        check_name(WadgeName((NameBlock("E", 1, OrdinalW2(0, 1)), NameBlock("C", 2, OrdinalW2(0, 1)))))
    with pytest.raises(MalformedName):
        check_name(WadgeName((NameBlock("C", 1, OrdinalW2(0, 0)),)))


def test_reference_names(a1, a_all, g_omega, a_none):
    assert wadge_name(a_all).render() == "C_1^1"
    assert wadge_name(a1).render() == "D_1^2"
    assert wadge_name(g_omega).render() == "D_1^w*1+1"
    assert wadge_name(a_none).render() == "D_1^1"


def test_derive_two_site_branch():
    machine = validate(
        "branch", ["p", "n", "x"], ["e", "P", "N"], "e",
        [
            ("e", "p", "Z", "P", 0), ("e", "p", "I", "P", 0),
            ("e", "n", "Z", "N", 0), ("e", "n", "I", "N", 0),
            ("P", "x", "Z", "P", 0), ("P", "x", "I", "P", 0),
            ("N", "x", "Z", "N", 0), ("N", "x", "I", "N", 0),
        ],
        [["P"]],
    )
    ctx = derive(machine)
    assert ctx.sub_states == ("e",)
    assert ctx.thresholds == {"e": 0}
    assert wadge_name(machine).render() == "E_1^1 E"


def test_derive_prime_raises(g_omega):
    with pytest.raises(NotDerivable):
        derive(g_omega)


def test_derivation_dropping_the_initial_state_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(naming, "min_counter_to", lambda machine, *_, **__: dict.fromkeys(machine.states))
    with pytest.raises(MbcaError, match="initial state"):
        derive(canonical("E_1^1"))


def test_derivation_keeping_m_is_an_internal_error(monkeypatch):
    # the check is all that ends the naming loop, so it must survive python -O
    calls = []

    def same_machine(machine, _):
        calls.append(machine)
        if len(calls) > 3:
            raise RuntimeError("the naming loop went on")
        return DerivationContext(machine.states, {}, machine)

    monkeypatch.setattr(naming, "derive", same_machine)
    with pytest.raises(MbcaError, match="did not shrink"):
        naming._name_of(canonical("E_1^1"))


@pytest.mark.xfail(
    strict=True,
    raises=MbcaError,
    reason="ROADMAP item 1: derivation did not shrink m = 1 on these three valid machines",
)
@pytest.mark.parametrize("seed, n_states", [(2084, 5), (353, 7), (70, 10)])
def test_naming_succeeds_on_the_known_failures(seed, n_states):
    wadge_name(random_machine(random.Random(seed), n_states))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: a site re-entered at a lower counter is counted once; "
    "mbca prints D_1^3",
)
def test_bounded_re_entries_are_counted():
    """The configuration unfolding of this bounded machine (8 configurations)
    alternates {q0,q2}-, {q3}+, {q4}-, {q3}+, {q4}-: length 5, not 3."""
    assert wadge_name(random_machine(random.Random(2876), 5)).render() == "D_1^5"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: a set maximal only at the level where it is reached "
    "loses its site edge; mbca prints E_1^1 E",
)
def test_a_zero_level_site_edge_is_kept():
    """From {q2,q7}+ at counter 0, a b goes to (q5, 1) and a c to (q6, 0).  At
    counter 0 only the Z-level c-loop {q6}- operates, so the edge from
    {q2,q7}+ to {q6}- is real: the configuration unfolding gives
    (m, n, s) = (1, 2, +1)."""
    machine = random_machine(random.Random(1021), 8, 3, density=0.6)
    assert wadge_name(machine).render() == "C_1^2"


def test_derive_threshold_three():
    """The negative wing sits behind three forced pops: n_q = 3 at the branch."""
    machine = validate(
        "th3",
        ["a", "b", "p", "n", "j1", "j2", "k1", "k2"],
        ["pi", "qb", "d1", "d2", "g1", "g2", "h1", "h2"],
        "pi",
        [
            ("pi", "a", "Z", "pi", 1), ("pi", "a", "I", "pi", 1),
            ("pi", "b", "Z", "qb", 0), ("pi", "b", "I", "qb", 0),
            ("qb", "p", "Z", "g1", 0), ("qb", "p", "I", "g1", 0),
            ("qb", "n", "I", "d1", -1),
            ("d1", "n", "I", "d2", -1),
            ("d2", "n", "I", "h1", -1),
            ("g1", "j1", "Z", "g1", 0), ("g1", "j1", "I", "g1", 0),
            ("g1", "j2", "Z", "g2", 0), ("g1", "j2", "I", "g2", 0),
            ("g2", "j1", "Z", "g1", 0), ("g2", "j1", "I", "g1", 0),
            ("g2", "j2", "Z", "g2", 0), ("g2", "j2", "I", "g2", 0),
            ("h1", "k1", "Z", "h1", 0), ("h1", "k1", "I", "h1", 0),
            ("h1", "k2", "Z", "h2", 0), ("h1", "k2", "I", "h2", 0),
            ("h2", "k1", "Z", "h1", 0), ("h2", "k1", "I", "h1", 0),
            ("h2", "k2", "Z", "h2", 0), ("h2", "k2", "I", "h2", 0),
        ],
        [["g1"], ["h1", "h2"]],
    )
    ctx = derive(machine)
    assert ctx.thresholds["qb"] == 3
    assert ctx.thresholds["pi"] == 0
    assert set(ctx.sub_states) == {"pi", "qb"}
    assert wadge_name(machine).render() == "E_2^1 D_1^1"


def test_threshold_filter_drops_unreachable_loops():
    """States can join the derived machine on hypothetical counters, yet their
    loops are kept only at really reachable counters above the threshold.

    Here the inner branch needs counter 1 to keep both wings in range, but no
    pump exists, so the inner self-loops (anchored only at counter 0) are cut
    and the residual is loop-free: the name ends in a bare E rather than
    continuing with the inner sites."""
    machine = validate(
        "bite",
        ["p", "q", "t", "p2", "q2", "j1", "j2", "k1", "k2", "j3", "j4", "z1", "z2"],
        ["e1", "a1", "a2", "b1", "b2", "e2", "c", "d"],
        "e1",
        [
            ("e1", "p", "Z", "a1", 0), ("e1", "p", "I", "a1", 0),
            ("e1", "q", "Z", "b1", 0), ("e1", "q", "I", "b1", 0),
            ("e1", "t", "Z", "e2", 0), ("e1", "t", "I", "e2", 0),
            # positive two-state gadget
            ("a1", "j1", "Z", "a1", 0), ("a1", "j1", "I", "a1", 0),
            ("a1", "j2", "Z", "a2", 0), ("a1", "j2", "I", "a2", 0),
            ("a2", "j1", "Z", "a1", 0), ("a2", "j1", "I", "a1", 0),
            ("a2", "j2", "Z", "a2", 0), ("a2", "j2", "I", "a2", 0),
            # negative two-state gadget
            ("b1", "k1", "Z", "b1", 0), ("b1", "k1", "I", "b1", 0),
            ("b1", "k2", "Z", "b2", 0), ("b1", "k2", "I", "b2", 0),
            ("b2", "k1", "Z", "b1", 0), ("b2", "k1", "I", "b1", 0),
            ("b2", "k2", "Z", "b2", 0), ("b2", "k2", "I", "b2", 0),
            # inner branch with zero-level self-loops
            ("e2", "p2", "Z", "c", 0), ("e2", "p2", "I", "c", 0),
            ("e2", "q2", "Z", "d", 0), ("e2", "q2", "I", "d", 0),
            ("c", "j3", "Z", "c", 0), ("c", "j3", "I", "c", 0),
            ("d", "j4", "Z", "d", 0), ("d", "j4", "I", "d", 0),
            # escapes to both wings cost one counter unit (positive level only)
            ("e2", "z1", "I", "a1", -1), ("e2", "z2", "I", "b1", -1),
            ("c", "z1", "I", "a1", -1), ("c", "z2", "I", "b1", -1),
            ("d", "z1", "I", "a1", -1), ("d", "z2", "I", "b1", -1),
        ],
        [["a1"], ["b1", "b2"], ["c"]],
    )
    ctx = derive(machine)
    assert set(ctx.sub_states) == {"e1", "e2", "c", "d"}
    assert ctx.thresholds == {"e1": 0, "e2": 1, "c": 1, "d": 1}
    assert wadge_name(machine).render() == "E_2^1 E"


def test_compare_theorem_instances():
    cases = [
        ("C_1^1", "D_1^2", "less"),
        ("C_1^1", "D_1^1", "dual"),
        ("D_1^1", "C_1^1", "dual"),
        ("C_1^1", "C_1^1", "equivalent"),
        ("C_1^1", "E_1^1 E", "less"),
        ("E_2^1 E", "E_2^1 C_1^1", "less"),
        ("E_2^1 C_1^1", "E_2^1 E", "greater"),
        ("E", "D_1^1", "less"),
        ("C_2^1", "D_1^w*2+3", "greater"),
        ("E_2^1 C_1^1", "E_2^1 D_1^1", "dual"),
        ("E_2^1 C_1^1", "E_2^2 C_1^1", "less"),
    ]
    for left, right, want in cases:
        assert compare(parse_name(left), parse_name(right)) == want, (left, right)


def _random_name(rng: random.Random) -> WadgeName:
    blocks = []
    m = rng.randrange(1, 6)
    while True:
        alpha = OrdinalW2(rng.randrange(0, 3), rng.randrange(0, 4))
        if alpha.is_zero():
            alpha = OrdinalW2(0, 1)
        letter = rng.choice(["C", "D", "E", "E"])
        if letter in ("C", "D"):
            blocks.append(NameBlock(letter, m, alpha))
            break
        blocks.append(NameBlock("E", m, alpha))
        if m == 1 or rng.random() < 0.3:
            break
        m = rng.randrange(1, m)
    return WadgeName(tuple(blocks))


def test_compare_total_preorder_on_generated_names():
    rng = random.Random(53)
    names = [_random_name(rng) for _ in range(520)]
    for name in names:
        assert compare(name, name) == "equivalent"
    probe = random.Random(59)
    for _ in range(4000):
        a, b, c = (names[probe.randrange(len(names))] for _ in range(3))
        ab, bc = compare(a, b), compare(b, c)
        if ab in ("less", "equivalent") and bc in ("less", "equivalent"):
            assert compare(a, c) in ("less", "equivalent"), (a.render(), b.render(), c.render())


def _reference_leq(a: WadgeName, b: WadgeName) -> bool:
    """The blockwise order as first written, on ``NameBlock`` fields."""
    ka, kb = len(a.blocks), len(b.blocks)
    if ka == 0:
        return True
    common = 0
    while (
        common < min(ka, kb)
        and a.blocks[common].m == b.blocks[common].m
        and a.blocks[common].alpha == b.blocks[common].alpha
    ):
        common += 1
    if common == ka and ka <= kb:
        b_letter = b.blocks[ka - 1].letter
        if b_letter == "E" or a.blocks[-1].letter == b_letter:
            return True
    if common < min(ka, kb):
        ba, bb = a.blocks[common], b.blocks[common]
        if ba.m < bb.m or (ba.m == bb.m and ba.alpha < bb.alpha):
            return True
    return False


def _reference_compare(a: WadgeName, b: WadgeName) -> str:
    forward, backward = _reference_leq(a, b), _reference_leq(b, a)
    if forward and backward:
        return "equivalent"
    if forward:
        return "less"
    if backward:
        return "greater"
    if (
        a.blocks
        and b.blocks
        and a.blocks[:-1] == b.blocks[:-1]
        and a.blocks[-1].m == b.blocks[-1].m
        and a.blocks[-1].alpha == b.blocks[-1].alpha
        and {a.blocks[-1].letter, b.blocks[-1].letter} == {"C", "D"}
    ):
        return "dual"
    return "incomparable"


def test_compare_matches_the_block_reference():
    rng = random.Random(73)
    names = [_random_name(rng) for _ in range(400)] + [parse_name("E")]
    probe = random.Random(79)
    seen = set()
    pairs = [(a, b) for a in names[:40] for b in names[:40]]
    pairs += [(probe.choice(names), probe.choice(names)) for _ in range(6000)]
    for a, b in pairs:
        want = _reference_compare(a, b)
        if want == "incomparable":
            with pytest.raises(MbcaError, match="incomparable"):
                compare(a, b)
        else:
            assert compare(a, b) == want, (a.render(), b.render())
        seen.add(want)
    assert seen >= {"less", "greater", "equivalent", "dual"}


def test_names_are_checked_when_built():
    one = OrdinalW2(0, 1)
    for blocks in [
        (NameBlock("E", 1, one), NameBlock("C", 2, one)),
        (NameBlock("C", 1, OrdinalW2(0, 0)),),
        (NameBlock("C", 2, one), NameBlock("D", 1, one)),
        (NameBlock("X", 1, one),),
        (NameBlock("D", 0, one),),
    ]:
        with pytest.raises(MalformedName):
            WadgeName(blocks)
    name = WadgeName((NameBlock("E", 2, OrdinalW2(1, 0)), NameBlock("D", 1, OrdinalW2(0, 3))))
    assert name.keys == (("E", (2, 1, 0)), ("D", (1, 0, 3)))
    assert name == parse_name("E_2^w*1 D_1^3")


def test_degree_rank_examples():
    assert degree_rank(parse_name("C_1^1")).render() == "1"
    assert degree_rank(parse_name("D_1^w*1+1")).render() == "w+1"
    assert degree_rank(parse_name("C_2^1")).render() == "w^2"
    assert degree_rank(parse_name("E")).render() == "0"


def test_degree_rank_monotone_on_cd_names():
    rng = random.Random(61)
    names = [
        n for n in (_random_name(rng) for _ in range(300)) if not n.terminal_bare_e
    ]
    for a in names[:60]:
        for b in names[:60]:
            verdict = compare(a, b)
            if verdict == "less":
                assert degree_rank(a) < degree_rank(b), (a.render(), b.render())
            elif verdict in ("equivalent", "dual"):
                assert degree_rank(a) == degree_rank(b)


def test_rank_bands():
    # m = 1 names stay below w^2; everything stays below w^w
    assert degree_rank(parse_name("D_1^w*2+3")) < degree_rank(parse_name("C_2^1"))
    assert degree_rank(parse_name("E_3^w*2 C_1^1")).terms[0][0] == 5


def test_name_invariant_under_state_duplication():
    rng = random.Random(67)
    done = 0
    while done < 30:
        machine = random_machine(rng, n_states=3, n_letters=2)
        target = rng.choice(machine.states)
        doubled = duplicate_state(machine, target, rng)
        base = wadge_name(machine)
        lifted = wadge_name(doubled)
        assert base == lifted, (machine, target)
        done += 1


def test_duplication_keeps_nonprime_names():
    from mbca.gallery import canonical

    rng = random.Random(71)
    machine = canonical("E_2^1 D_1^1")
    assert wadge_name(machine).render() == "E_2^1 D_1^1"
    for target in ["start", "P.g1.r1", "T.g1.r1"]:
        doubled = duplicate_state(machine, target, rng)
        assert wadge_name(doubled).render() == "E_2^1 D_1^1", target


def _renamed_and_reordered(machine, rng):
    """The machine with fresh state names, a new state order and a new edge order.

    The new orders change which closed walks get summarised.
    """
    n = len(machine.states)
    rename = dict(zip(machine.states, (f"r{i}" for i in rng.sample(range(n), n))))
    renamed = validate(
        "renamed",
        machine.alphabet,
        rng.sample(list(rename.values()), n),
        rename[machine.initial],
        [t._replace(source=rename[t.source], target=rename[t.target]) for t in machine.transitions],
        [[rename[q] for q in f] for f in machine.accept_family],
    )
    shuffled = rng.sample(renamed.transitions, len(renamed.transitions))
    return dataclasses.replace(renamed, transitions=tuple(shuffled))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.booleans())
def test_name_invariant_under_renaming_and_reordering(seed, n_states, counter_free):
    rng = random.Random(seed)
    machine = random_counter_free(rng, n_states) if counter_free else random_machine(rng, n_states)
    assert wadge_name(_renamed_and_reordered(machine, rng)) == wadge_name(machine)


@pytest.mark.parametrize("spec", ["E_2^w*2", "D_2^w*1+1", "E_3^2 E_2^2 C_1^1"])
def test_derived_names_invariant_under_renaming_and_reordering(spec):
    machine = canonical(spec)
    for seed in range(3):
        assert wadge_name(_renamed_and_reordered(machine, random.Random(seed))) == wadge_name(machine)


def _with_complemented_family(machine):
    """The machine accepting by every nonempty state set its family lacks."""
    states = machine.states
    subsets = (
        frozenset(q for i, q in enumerate(states) if bits >> i & 1)
        for bits in range(1, 1 << len(states))
    )
    family = [f for f in subsets if f not in machine.accept_family]
    return validate(
        machine.name, machine.alphabet, states, machine.initial, machine.transitions, family
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 3))
def test_complementing_the_accept_family_dualizes_the_name(seed, n_states, max_delta):
    """Every sign flips, so C and D swap in every block; E blocks and a bare-E
    ending stay.  Machines whose naming hits a known internal error (the
    strict xfails above) are passed over."""
    machine = random_machine(random.Random(seed), n_states, max_delta=max_delta)
    try:
        name = wadge_name(machine)
        dual = wadge_name(_with_complemented_family(machine))
    except MbcaError as error:
        if str(error).startswith("internal error"):
            return
        raise
    swap = {"C": "D", "D": "C", "E": "E"}
    assert dual.blocks == tuple(b._replace(letter=swap[b.letter]) for b in name.blocks)


# (ReachAnalysis constructions, reach probes of min_counter_to) in a cold name,
# as measured when ``Analyzer._seen`` moved to cover tables; cover-table
# builds (``reachability._cover`` runs), as measured when the assembly's
# "arbitrarily high" became counter inf; and loop enumerations
# (``loops._loops_of`` runs), one per name, since a derived level reuses its
# parent's loops
COLD_COSTS = {"C_1^w*3+3": (1, 0, 21, 1), "E_2^w*2": (22, 22, 36, 1), "E_4^w*2": (38, 38, 68, 1)}


def test_a_cold_name_costs_no_more_analyses_or_probes(monkeypatch):
    counts = {"analyses": 0, "probes": 0, "covers": 0, "loops": 0}
    build, probe, table = reachability.ReachAnalysis.__init__, reachability.reach, reachability._cover
    enumerate_loops = loops_module._loops_of

    def counted_build(self, *args):
        counts["analyses"] += 1
        build(self, *args)

    def counted_probe(*args):
        counts["probes"] += 1
        return probe(*args)

    def counted_table(*args):
        counts["covers"] += 1
        return table(*args)

    def counted_loops(*args):
        counts["loops"] += 1
        return enumerate_loops(*args)

    monkeypatch.setattr(reachability.ReachAnalysis, "__init__", counted_build)
    monkeypatch.setattr(reachability, "reach", counted_probe)
    monkeypatch.setattr(reachability, "_cover", counted_table)
    monkeypatch.setattr(loops_module, "_loops_of", counted_loops)
    for spec, (analyses, probes, covers, enumerations) in COLD_COSTS.items():
        machine = canonical(spec)
        monkeypatch.setattr(automaton, "_memo", {})
        counts.update(analyses=0, probes=0, covers=0, loops=0)
        wadge_name(machine)
        assert counts["analyses"] <= analyses and counts["probes"] <= probes, (spec, counts)
        assert counts["covers"] <= covers and counts["loops"] <= enumerations, (spec, counts)
