import importlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from mbca import (
    AnchorUnreachable,
    MbcaError,
    essential_sets,
    loops,
    member,
    run,
    validate,
    wadge_name,
    witness_word,
)
from mbca import automaton
from mbca.hierarchy import analyzer_for
from mbca.loops import admissible
from conftest import brute_force_inf_sets, random_counter_free, random_machine

loops_module = importlib.import_module("mbca.loops")  # the package re-exports a function of that name


def _loop_keys(machine):
    return {(d.anchor, d.level, d.essential_set, d.delta_kind) for d in loops(machine)}


def test_a1_essential_sets(a1):
    assert essential_sets(a1) == {
        (frozenset(["q0"]), "negative"),
        (frozenset(["q2"]), "positive"),
    }


def test_a_all_essential(a_all):
    assert essential_sets(a_all) == {(frozenset(["q"]), "positive")}


def test_a_pump_essential(a_pump):
    assert essential_sets(a_pump) == {(frozenset(["q0"]), "negative")}


def test_a1_loop_table(a1):
    keys = _loop_keys(a1)
    assert ("q0", "I", frozenset(["q0"]), "plus") in keys
    assert ("q2", "I", frozenset(["q2"]), "equal") in keys
    assert ("q2", "Z", frozenset(["q2"]), "equal") in keys
    assert not any(d.essential_set == frozenset(["q1"]) for d in loops(a1))


def test_cancellation_gives_both_kinds():
    machine = validate(
        "canc", ["a", "b"], ["q"], "q",
        [("q", "a", "Z", "q", 1), ("q", "a", "I", "q", 1), ("q", "b", "I", "q", -1)],
        [],
    )
    keys = _loop_keys(machine)
    assert ("q", "I", frozenset(["q"]), "plus") in keys
    assert ("q", "I", frozenset(["q"]), "equal") in keys


def test_witness_word_round_trips(a1):
    for descriptor in loops(a1):
        word = witness_word(a1, descriptor)
        trace = run(a1, word)
        assert trace.inf_set == descriptor.essential_set
        assert member(a1, word) == descriptor.positive


def test_witness_examples(a1, a_all):
    positive = next(d for d in loops(a1) if d.anchor == "q2" and d.level == "I")
    word = witness_word(a1, positive)
    assert run(a1, word).inf_set == frozenset(["q2"])
    assert member(a1, word)

    negative = next(d for d in loops(a1) if d.anchor == "q0")
    word = witness_word(a1, negative)
    assert run(a1, word).inf_set == frozenset(["q0"])
    assert not member(a1, word)

    z_loop = next(d for d in loops(a_all) if admissible(a_all, d))
    word = witness_word(a_all, z_loop)
    assert member(a_all, word)


def test_anchor_unreachable_raises():
    # the b-side loop needs counter >= 1 but the anchor only ever has 0
    machine = validate(
        "stuck", ["a", "b"], ["q", "r"], "q",
        [
            ("q", "a", "Z", "q", 0),
            ("q", "a", "I", "q", 0),
            ("r", "b", "I", "r", 0),
        ],
        [],
    )
    descriptor = next(d for d in loops(machine) if d.anchor == "r")
    assert not admissible(machine, descriptor)
    with pytest.raises(AnchorUnreachable):
        witness_word(machine, descriptor)


def test_loops_sound_and_complete_random_desk_scale():
    rng = random.Random(41)
    machines = 0
    while machines < 25:
        machine = random_machine(rng, n_states=rng.randrange(2, 5), n_letters=rng.randrange(2, 4))
        machines += 1
        realized = brute_force_inf_sets(machine, max_u=6, max_v=6)
        found = {f for f, _ in essential_sets(machine)}
        assert realized <= found, machine
        for descriptor in loops(machine):
            if not admissible(machine, descriptor):
                continue
            word = witness_word(machine, descriptor)
            trace = run(machine, word)
            assert trace.inf_set == descriptor.essential_set, (machine, descriptor)


def test_sign_matches_family(a1, g_omega):
    for machine in (a1, g_omega):
        for d in loops(machine):
            assert d.positive == (d.essential_set in machine.accept_family)


@st.composite
def small_machines(draw, max_states=5):
    rng = draw(st.randoms(use_true_random=False))
    n_states = draw(st.integers(2, max_states))
    if draw(st.booleans()):
        return random_machine(
            rng,
            n_states=n_states,
            n_letters=draw(st.integers(2, 3)),
            max_delta=draw(st.sampled_from([1, 1, 2, 3])),
        )
    return random_counter_free(rng, n_states=n_states)


def _reference_z_level_moves(machine, subset):
    """The Z-level move function of the plain product search: Z-edges at
    counter zero and, above zero, I-edges only from states that can still
    reach a -1 edge inside F; with its counter cap b_z."""
    L = loops_module
    ze, ie = L._inside(machine.moves.zero, subset), L._inside(machine.moves.pos, subset)
    can_drop = {s for s in subset if any(d < 0 for _, _, d in ie[s])}
    changed = bool(can_drop)
    while changed:
        changed = False
        for s in subset:
            if s not in can_drop and any(t in can_drop for _, t, _ in ie[s]):
                can_drop.add(s)
                changed = True

    def edge_fn(s, rel):
        if rel == 0:
            return ze[s]
        if s not in can_drop:
            return ()
        return ie[s]

    return edge_fn, L._cap(len(machine.states), machine.moves.dplus) if can_drop else 0


def _reference_z_level_sets(machine):
    """Each candidate set F of the union of both levels' graphs, with its
    reference move function and counter cap."""
    zero, pos = machine.moves.zero, machine.moves.pos
    u_adj = {s: {t for _, t, _ in pos[s] + zero[s]} for s in range(len(pos))}
    for subset in loops_module._candidate_sets(len(pos), u_adj):
        yield (subset, *_reference_z_level_moves(machine, subset))


@settings(max_examples=200, deadline=None)
@given(small_machines())
def test_loop_existence_matches_the_product_search(machine):
    """The per-set decisions against the bounded product search they replace."""
    search, mask, closes = loops_module._search, loops_module._mask, loops_module._closes
    dplus = machine.max_positive_delta()
    for subset, edges in loops_module._i_level_sets(machine):
        kinds, _ = loops_module._i_level_loops(subset, edges)
        rel_cap = loops_module._cap(len(subset), dplus)
        fmask = mask(subset)

        def edge_fn(s, rel):
            return edges[s]

        for anchor in subset:
            found = tuple(
                kind
                for kind in ("equal", "plus")
                if search(edge_fn, anchor, fmask, -rel_cap, rel_cap, closes(anchor, fmask, kind))
                is not None
            )
            assert found == kinds, (machine, subset, anchor)
    for subset, edge_fn, cap in _reference_z_level_sets(machine):
        fmask = mask(subset)
        found = {
            anchor
            for anchor in subset
            if search(edge_fn, anchor, fmask, 0, cap, closes(anchor, fmask, "equal")) is not None
        }
        ie = loops_module._inside(machine.moves.pos, subset)
        assert loops_module._z_level_anchors(machine, subset, ie) == found, (machine, subset)


def _brute_force_strongly_connected(n, arcs):
    """Every nonempty subset S of range(n) whose arcs inside S connect any
    state of S to any other (a single state needs a self-loop)."""
    found = set()
    for bits in range(1, 1 << n):
        subset = frozenset(i for i in range(n) if bits >> i & 1)
        inside = {(s, t) for s, t in arcs if s in subset and t in subset}
        reach = set(inside)
        while True:
            more = {(s, u) for s, t in reach for t2, u in inside if t == t2} - reach
            if not more:
                break
            reach |= more
        if all((s, t) in reach for s in subset for t in subset):
            found.add(subset)
    return found


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 7), st.integers(1, 3))
def test_candidate_sets_are_the_induced_strongly_connected_subsets(rng, n_states, n_letters):
    machine = random_machine(rng, n_states=n_states, n_letters=n_letters)
    index = {q: i for i, q in enumerate(machine.states)}
    arcs = {t: (index[t.source], index[t.target]) for t in machine.transitions}
    i_arcs = {arc for t, arc in arcs.items() if t.level == "I"}
    lists = []
    for graph in (i_arcs, set(arcs.values())):
        adj = {s: {t for u, t in graph if u == s} for s in range(n_states)}
        sets = list(loops_module._candidate_sets(n_states, adj))
        assert len(sets) == len(set(sets))
        assert set(sets) == _brute_force_strongly_connected(n_states, graph), machine
        lists.append(sets)
    # blindness mirrors every Z-edge at I-level, so one pass serves both levels
    assert lists[0] == lists[1], machine


def test_a_promised_loop_without_a_witness_is_an_internal_error(monkeypatch):
    # one state whose only cycle gains: no equal loop exists at any dip
    machine = validate("promise", ["a"], ["q"], "q", [("q", "a", "I", "q", 1)], [])
    monkeypatch.setattr(loops_module, "_i_level_loops", lambda subset, edges: (("equal",), {}))
    with pytest.raises(MbcaError, match=r"I-level equal loop on \{q\} at q"):
        loops(machine)


def test_letters_at_a_dip_with_no_walk_are_an_internal_error(monkeypatch):
    # the only cycle loses, so no plus walk exists at any dip; the rules are made to claim one
    machine = validate("short", ["a"], ["q"], "q", [("q", "a", "I", "q", -1)], [])
    monkeypatch.setattr(
        loops_module, "_i_level_loops", lambda subset, edges: (("plus",), {"plus": {0: 0}})
    )
    (descriptor,) = loops_module._loops_of(machine)
    with pytest.raises(MbcaError, match=r"I-level plus loop on \{q\} at q has no walk at dip 0"):
        descriptor.cycle


def _reference_loops(machine):
    """``_loops_of`` by a plain linear dip scan: a concrete search at every dip
    and for every Z-level anchor, with no summary to skip any of them."""
    L = loops_module
    states, dplus = machine.states, machine.max_positive_delta()
    found = set()
    for subset, edges in L._i_level_sets(machine):
        fmask, rel_cap = L._mask(subset), L._cap(len(subset), dplus)

        def edge_fn(s, rel, _edges=edges):
            return _edges[s]

        for anchor in subset:
            for kind in L._i_level_loops(subset, edges)[0]:
                closed = L._closes(anchor, fmask, kind)
                for dip in range(rel_cap + 1):
                    cycle = L._search(edge_fn, anchor, fmask, -dip, rel_cap, closed)
                    if cycle is not None:
                        found.add((anchor, "I", subset, kind, dip, tuple(cycle)))
                        break
                else:
                    raise AssertionError(f"no dip gives the promised {kind} loop")
    for subset, edge_fn, cap in _reference_z_level_sets(machine):
        fmask = L._mask(subset)
        for anchor in subset:
            cycle = L._search(edge_fn, anchor, fmask, 0, cap, L._closes(anchor, fmask, "equal"))
            if cycle is not None:
                found.add((anchor, "Z", subset, "equal", 0, tuple(cycle)))
    return sorted(
        (states[a], level, tuple(sorted(states[i] for i in subset)), kind, dip, cycle)
        for a, level, subset, kind, dip, cycle in found
    )


@settings(max_examples=150, deadline=None)
@given(small_machines(max_states=6))
# cycles of both signs; coming down into q1 takes credit 4, more than H = 3 alone gives T
@example(random_machine(random.Random(158), 2, n_letters=2, max_delta=3))
def test_refuted_dips_leave_the_loops_of_the_linear_scan(machine):
    got = sorted(
        (d.anchor, d.level, tuple(sorted(d.essential_set)), d.delta_kind, d.dip, d.cycle)
        for d in loops_module._loops_of(machine)
    )
    assert got == _reference_loops(machine), machine


def test_loop_enumeration_makes_no_failing_product_search(monkeypatch):
    """Loop existence and dips come from summaries and cycle arithmetic, so
    naming runs no product search at all; reading a descriptor's letters
    runs at most one, and it finds its witness.  Counted, not timed."""
    search, calls = loops_module._search, []  # whether each search found a walk

    def counted(*args):
        cycle = search(*args)
        calls.append(cycle is not None)
        return cycle

    monkeypatch.setattr(loops_module, "_search", counted)
    monkeypatch.setattr(automaton, "_memo", {})  # every machine starts cold
    machines = [random_machine(random.Random(seed), 6) for seed in range(30)]
    machines.append(random_machine(random.Random(1000), 10))
    for machine in machines:
        wadge_name(machine)
        analyzer_for(machine).admissible_loops()
        assert not calls, machine
        descriptors = loops(machine)
        for _ in range(2):
            for d in descriptors:
                assert d.cycle
        assert all(calls), machine
        assert len(calls) <= len(descriptors), machine
        calls.clear()
