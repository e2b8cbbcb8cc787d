import random
from math import gcd

from hypothesis import given, settings, strategies as st

from mbca import Configuration, StateReach, min_counter_to, reach, reachable_unbounded, validate
from mbca.reachability import (
    UnreachableTarget, _cycles, _gain_combo, _gcd_of, _pump_states, _reach_bits, analysis, cover,
    cutoff, tail_states,
)
from conftest import bfs_reach_oracle, random_machine


def _gain_combo_reference(gains, need):
    """Breadth-first search over totals that copies each total's combination."""
    best = {0: {}}
    frontier = [0]
    while frontier and need not in best:
        nxt = []
        for total in frontier:
            for gain in gains:
                s = total + gain
                if s <= need and s not in best:
                    combo = dict(best[total])
                    combo[gain] = combo.get(gain, 0) + 1
                    best[s] = combo
                    nxt.append(s)
        frontier = nxt
    return best.get(need)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(1, 40), min_size=1, max_size=5), st.integers(0, 150))
def test_gain_combo_matches_the_reference_search(gains, need):
    gains = sorted(gains)
    want = _gain_combo_reference(gains, need)
    if want is None:
        try:
            _gain_combo(gains, need)
        except UnreachableTarget:
            return
        raise AssertionError(f"{need} is not a combination of {gains}")
    assert _gain_combo(gains, need) == want


def _accelerated_sets(machine, start: Configuration, cap: int) -> dict[str, set[int]]:
    moves = machine.moves
    bits = _reach_bits(moves, _cycles(moves), (moves.index[start.state], start.counter), cap)
    return {machine.states[q]: set(StateReach(b, None).finite) for q, b in enumerate(bits) if b}


@st.composite
def _machines_and_starts(draw):
    """A 2-7-state machine with I-level deltas in -1..+3, a start and a cap."""
    states = [f"q{i}" for i in range(draw(st.integers(2, 7)))]
    transitions = []
    for q in states:
        for a in "abc":
            if draw(st.booleans()):
                target, delta = draw(st.sampled_from(states)), draw(st.integers(-1, 3))
                transitions.append((q, a, "I", target, delta))
                if delta >= 0 and draw(st.booleans()):
                    transitions.append((q, a, "Z", target, delta))
    machine = validate("diff", ["a", "b", "c"], states, states[0], transitions, [])
    start = Configuration(draw(st.sampled_from(states)), draw(st.integers(0, 12)))
    return machine, start, draw(st.integers(0, start.counter + 30))


@settings(max_examples=400, deadline=None)
@given(_machines_and_starts())
def test_accelerated_sets_match_the_bfs_oracle(case):
    machine, start, cap = case
    assert _accelerated_sets(machine, start, cap) == bfs_reach_oracle(machine, start, cap)


def test_cycle_peak_above_its_gain_blocks_just_under_the_cap():
    # the cycle a -> b -> a gains 2 but climbs 3 on the way: from 8 under a cap
    # of 10 its first step would leave the cap
    machine = validate(
        "peak", ["u", "d"], ["a", "b"], "a",
        [("a", "u", "Z", "b", 3), ("a", "u", "I", "b", 3), ("b", "d", "I", "a", -1)],
        [],
    )
    assert _cycles(machine.moves)[0] == ((2, 1, 3),)
    for counter, want in ((8, {"a": {8}}), (7, {"a": {7, 9}, "b": {10}})):
        start = Configuration("a", counter)
        assert _accelerated_sets(machine, start, 10) == want
        assert bfs_reach_oracle(machine, start, 10) == want


def test_cycle_down_then_up_blocks_at_zero():
    # -1, -1, +3 gains 1 but needs a start of 3: from 1 the second step would
    # be a Z-level move, and b has none
    machine = validate(
        "dip", ["d", "u"], ["a", "b", "c"], "a",
        [("a", "d", "I", "b", -1), ("b", "d", "I", "c", -1), ("c", "u", "I", "a", 3)],
        [],
    )
    assert _cycles(machine.moves)[0] == ((1, 3, 1),)
    start = Configuration("a", 1)
    assert _accelerated_sets(machine, start, 40) == {"a": {1}, "b": {0}}
    assert _accelerated_sets(machine, Configuration("a", 3), 6) == bfs_reach_oracle(
        machine, Configuration("a", 3), 6
    )


@st.composite
def _machines(draw):
    """A 2-9-state machine with I-level deltas in -1..+3."""
    states = [f"q{i}" for i in range(draw(st.integers(2, 9)))]
    transitions = []
    for q in states:
        for a in "abc":
            if draw(st.booleans()):
                target, delta = draw(st.sampled_from(states)), draw(st.integers(-1, 3))
                transitions.append((q, a, "I", target, delta))
                if delta >= 0 and draw(st.booleans()):
                    transitions.append((q, a, "Z", target, delta))
    return validate("sums", ["a", "b", "c"], states, states[0], transitions, [])


def _probed_pump_states(machine):
    """The probe definition: states that climb back above the cutoff from (q, cutoff)."""
    moves = machine.moves
    if moves.dplus == 0:
        return ()
    probe = cutoff(machine)
    cycles = _cycles(moves)
    return tuple(
        q
        for q in range(len(machine.states))
        if _reach_bits(moves, cycles, (q, probe), 2 * probe)[q] >> (probe + 1)
    )


def _simple_cycle_signs(machine) -> list[set[int]]:
    """Per state, the gain signs of the simple I-level cycles of its SCC, by enumeration."""
    n, pos = len(machine.states), machine.moves.pos
    reach = [{q} for q in range(n)]
    for _ in range(n):
        reach = [set().union(*(reach[t] for _, t, _ in pos[q]), {q}) for q in range(n)]
    signs: list[set[int]] = [set() for _ in range(n)]

    def extend(root, path, gain):
        for _, t, d in pos[path[-1]]:
            if t == root and gain + d:
                for q in range(n):
                    if root in reach[q] and q in reach[root]:
                        signs[q].add(1 if gain + d > 0 else -1)
            elif t > root and t not in path:
                extend(root, path + [t], gain + d)

    for root in range(n):
        extend(root, [root], 0)
    return signs


@settings(max_examples=300, deadline=None)
@given(_machines())
def test_pump_states_match_the_probe(machine):
    assert _pump_states(_cycles(machine.moves)) == _probed_pump_states(machine)


@settings(max_examples=300, deadline=None)
@given(_machines())
def test_summary_signs_are_the_scc_cycle_signs(machine):
    summaries = _cycles(machine.moves)
    for q, signs in enumerate(_simple_cycle_signs(machine)):
        assert {1 if g > 0 else -1 for g, _, _ in summaries[q]} == signs, q
        assert len(summaries[q]) == len(signs)


@settings(max_examples=300, deadline=None)
@given(_machines())
def test_summaries_replay_inside_their_window(machine):
    for q, summaries in enumerate(_cycles(machine.moves)):
        state = machine.states[q]
        for gain, need, peak in summaries:
            reached = bfs_reach_oracle(machine, Configuration(state, need), need + peak)
            assert need + gain in reached[state], (state, gain, need, peak)


def test_zero_level_move_above_the_cap_is_dropped():
    machine = validate(
        "jump", ["u"], ["a", "b"], "a", [("a", "u", "Z", "b", 3), ("a", "u", "I", "b", 3)], []
    )
    assert _accelerated_sets(machine, Configuration("a", 0), 2) == {"a": {0}}


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**40 - 1),
    st.none() | st.tuples(st.integers(0, 60), st.integers(1, 7)),
    st.integers(-3, 80),
)
def test_state_reach_answers_match_a_plain_set(bits, tail, floor):
    values = {c for c in range(40) if bits >> c & 1}

    def in_tail(v):
        return tail is not None and v >= tail[0] and (v - tail[0]) % tail[1] == 0

    sr = StateReach(bits, tail)
    assert sr.finite == frozenset(values)
    assert sr.max_finite() == (max(values) if values else None)
    assert all(sr.contains(v) == (v in values or in_tail(v)) for v in range(-3, 120))
    assert sr.has_value_at_least(floor) == (tail is not None or any(v >= floor for v in values))
    above = [v for v in values if v >= floor] + [v for v in range(floor, 200) if in_tail(v)]
    assert sr.least_value_at_least(floor) == min(above, default=None)


def test_pump_machine_tail():
    machine = validate(
        "pump", ["a"], ["q0"], "q0",
        [("q0", "a", "Z", "q0", 1), ("q0", "a", "I", "q0", 1)], [],
    )
    rs = reach(machine, Configuration("q0", 0))
    sr = rs.at("q0")
    assert sr.tail is not None
    assert sr.tail[1] == 1
    assert all(sr.contains(v) for v in range(0, 80))
    assert reachable_unbounded(machine, Configuration("q0", 0), "q0")


def test_a1_reach_from_start(a1):
    rs = reach(a1, Configuration("q0", 0))
    assert rs.at("q0").tail is not None
    assert rs.at("q1").tail is not None  # all naturals via large pumps then pops
    assert rs.at("q2").tail is not None
    oracle = bfs_reach_oracle(a1, Configuration("q0", 0), cap=64)
    for q, values in oracle.items():
        for v in values:
            assert rs.at(q).contains(v)


def test_gadget_crossing_states_unbounded(g_omega):
    start = Configuration("p", 0)
    assert reachable_unbounded(g_omega, start, "qp")
    assert reachable_unbounded(g_omega, start, "qn")


def test_delta_zero_machine_has_no_tail(a_all):
    rs = reach(a_all, Configuration("q", 0))
    assert rs.at("q").finite == frozenset([0])
    assert rs.at("q").tail is None


def test_agreement_with_bfs_oracle_random():
    """Everything the capped oracle finds is predicted, and every prediction
    in the window replays as a concrete path (the oracle cannot see values
    whose only witnesses climb above its cap, so soundness is checked by
    executable witness instead of the reverse inclusion)."""
    from mbca import step

    rng = random.Random(23)
    for i in range(60):
        machine = random_machine(rng, n_states=5, n_letters=3)
        start = Configuration(machine.states[0], 0)
        ra = analysis(machine, start)
        oracle = bfs_reach_oracle(machine, start, cap=64)
        for q in machine.states:
            mine = {v for v in range(65) if ra.reach_set.at(q).contains(v)}
            missed = oracle.get(q, set()) - mine
            assert not missed, (i, q, sorted(missed))
            for v in sorted(mine - oracle.get(q, set())) + sorted(mine)[:3]:
                cfg = start
                for a in ra.path_to(Configuration(q, v)):
                    cfg = step(machine, cfg, a)
                    assert cfg is not None
                assert cfg == Configuration(q, v), (i, q, v)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(3, 6), st.integers(1, 3))
def test_reach_is_sound_and_complete_below_its_cap(rng, n_states, max_delta):
    """reach()'s documented contract, as it stands: no value claimed that the
    oracle lacks (at a cap 400 above the analysis cap), and every value the
    oracle finds inside the analysis cap claimed.  Values that only paths
    above the cap reach may be missed, so they are not checked."""
    machine = random_machine(rng, n_states=n_states, max_delta=max_delta)
    start = machine.initial_configuration()
    reach_set = reach(machine, start)
    cap = start.counter + cutoff(machine)
    inside, high = bfs_reach_oracle(machine, start, cap), bfs_reach_oracle(machine, start, cap + 400)
    for q in machine.states:
        claimed = {v for v in range(120) if reach_set.at(q).contains(v)}
        assert claimed <= high.get(q, set()), (machine, q)
        assert {v for v in inside.get(q, ()) if v < 120} <= claimed, (machine, q)


def test_shift_monotone_reach():
    rng = random.Random(29)
    for _ in range(25):
        machine = random_machine(rng, n_states=4, n_letters=2)
        q = rng.choice(machine.states)
        c = rng.randrange(0, 3)
        low = reach(machine, Configuration(q, c))
        high = reach(machine, Configuration(q, c + 1))
        for state in machine.states:
            for v in low.at(state).finite:
                if v + 1 <= 64:
                    assert high.at(state).contains(v + 1), (machine, q, c, state, v)


def test_tail_values_have_witness_paths():
    rng = random.Random(31)
    sampled = 0
    for _ in range(40):
        machine = random_machine(rng, n_states=4, n_letters=3)
        start = Configuration(machine.states[0], 0)
        ra = analysis(machine, start)
        for q in machine.states:
            tail = ra.reach_set.at(q).tail
            if tail is None:
                continue
            t, d = tail
            for k in range(10):
                target = Configuration(q, t + k * d)
                letters = ra.path_to(target)
                cfg = start
                for a in letters:
                    from mbca import step

                    cfg = step(machine, cfg, a)
                    assert cfg is not None
                assert cfg == target
                sampled += 1
    assert sampled >= 10


def test_min_counter_to_a1(a1):
    def reaches(state):
        return lambda rs: bool(rs.at(state).finite) or rs.at(state).tail is not None

    out = min_counter_to(a1, reaches("q2"), sources=["q1"])
    assert out["q1"] == 0
    out = min_counter_to(a1, reaches("q0"), sources=["q2"])
    assert out["q2"] is None
    out = min_counter_to(a1, reaches("q1"), sources=["q1"])
    assert out["q1"] == 0


def test_min_counter_threshold_boundary():
    # three forced pops before the target: least workable counter is 3
    machine = validate(
        "pops", ["n", "z"], ["s", "d1", "d2", "t"], "s",
        [
            ("s", "n", "I", "d1", -1),
            ("d1", "n", "I", "d2", -1),
            ("d2", "n", "I", "t", -1),
            ("t", "z", "Z", "t", 0),
            ("t", "z", "I", "t", 0),
        ],
        [],
    )

    def reaches_t(rs):
        return bool(rs.at("t").finite) or rs.at("t").tail is not None

    out = min_counter_to(machine, reaches_t, sources=["s"])
    assert out["s"] == 3


def _covers_in_bfs(machine, state: str, counter: int, target: str, floor: int, cap: int) -> bool:
    reached = bfs_reach_oracle(machine, Configuration(state, counter), cap)
    return any(v >= floor for v in reached.get(target, ()))


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 2**32), st.integers(2, 7), st.integers(1, 3), st.integers(0, 4), st.data()
)
def test_cover_tables_match_the_bfs_oracle(seed, n_states, max_delta, floor, data):
    """From (q, need[q]) a run reaches (t, >= f), and from (q, need[q] - 1)
    none does.  The oracle's cap, the counter plus f plus ``cutoff``, is
    generous; a run found under any cap is a run, so the second half is exact."""
    machine = random_machine(random.Random(seed), n_states, max_delta=max_delta)
    target = data.draw(st.sampled_from(machine.states))
    high = cutoff(machine)
    for q, need in zip(machine.states, cover(machine, target, floor)):
        if need == float("inf"):
            assert not _covers_in_bfs(machine, q, high, target, floor, 2 * high + floor), (machine, q)
            continue
        assert _covers_in_bfs(machine, q, need, target, floor, need + floor + high), (machine, q)
        if need:
            assert not _covers_in_bfs(machine, q, need - 1, target, floor, need + floor + high)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 7), st.integers(1, 3), st.integers(0, 3), st.data())
def test_tail_states_match_the_bfs_oracle(seed, n_states, max_delta, counter, data):
    """A run from the source reaches exactly the tail states above H, the
    source counter plus ``cutoff``: above that, a run has passed more than
    |K| rising levels d+1 apart, so it repeats a state higher and can pump."""
    machine = random_machine(random.Random(seed), n_states, max_delta=max_delta)
    source = Configuration(data.draw(st.sampled_from(machine.states)), counter)
    high = counter + cutoff(machine)
    reached = bfs_reach_oracle(machine, source, 2 * high + cutoff(machine))
    want = {q for q, values in reached.items() if max(values) >= high}
    assert tail_states(machine, source) == want, machine


def test_a_pump_below_its_credit_has_no_tail():
    """p -a,-1-> r -b,+2-> p gains 1 a round, but from (p, 1) the a lands at
    (r, 0), where b has no Z entry: the pump needs credit 2."""
    machine = validate(
        "credit2", ["a", "b"], ["p", "r"], "p",
        [("p", "a", "I", "r", -1), ("r", "b", "I", "p", 2)],
        [],
    )
    assert tail_states(machine, Configuration("p", 1)) == frozenset()
    assert tail_states(machine, Configuration("p", 2)) == {"p", "r"}
    assert reach(machine, Configuration("p", 1)).at("p").tail is None
    assert reach(machine, Configuration("p", 2)).at("p").tail is not None


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(1, 300), min_size=1, max_size=8))
def test_gcd_of_reads_the_gcd_of_the_set_bits(gains):
    assert _gcd_of(sum(1 << g for g in gains)) == gcd(*gains)


def _bisection(machine, predicates, sources=None, extra_cap=0):
    """``min_counter_to`` before it galloped: probe the cap, then bisect [0, cap]."""
    if callable(predicates):
        predicates = [predicates]
    cap = cutoff(machine) + extra_cap + 1

    def satisfied(q, c):
        rs = reach(machine, Configuration(q, c))
        return all(pred(rs) for pred in predicates)

    result = {}
    for q in sources if sources is not None else machine.states:
        if not satisfied(q, cap):
            result[q] = None
            continue
        lo, hi = 0, cap
        while lo < hi:
            mid = (lo + hi) // 2
            if satisfied(q, mid):
                hi = mid
            else:
                lo = mid + 1
        result[q] = lo
    return result


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 6), st.integers(1, 3), st.data())
def test_min_counter_to_gallop_equals_bisection(seed, n_states, max_delta, data):
    """Derive's predicates, "reaches (t, >= f) for one of the options", per sign.

    Predicates must be monotone in the reach set: one that holds of a reach
    set holds of every larger one.  Both searches rely on it, since reach
    sets grow with the start counter and so satisfaction is upward-closed."""
    machine = random_machine(random.Random(seed), n_states, max_delta=max_delta)
    option = st.tuples(st.sampled_from(machine.states), st.integers(0, 3))
    signs = [data.draw(st.lists(option, min_size=1, max_size=3)) for _ in range(2)]

    def pred_for(options):
        return lambda rs: any(rs.at(q).has_value_at_least(f) for q, f in options)

    predicates = [pred_for(options) for options in signs]
    extra = max(f for options in signs for _, f in options)
    want = _bisection(machine, predicates, extra_cap=extra)
    assert min_counter_to(machine, predicates, extra_cap=extra) == want
