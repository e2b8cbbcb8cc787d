import random

from hypothesis import given, settings, strategies as st

from mbca import Configuration, min_counter_to, reach, reachable_unbounded, validate
from mbca.reachability import UnreachableTarget, _gain_combo, analysis
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
