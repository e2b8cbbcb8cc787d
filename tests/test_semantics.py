import random

import pytest
from hypothesis import given, settings, strategies as st

from mbca import (
    Configuration,
    MbcaError,
    UPWord,
    extract_loop_witness,
    member,
    parse_word,
    run,
    step,
    validate,
)
from mbca.semantics import CapExceeded, Outcome
from conftest import lasso_inf_set, random_machine


def _reference_run(machine, word):
    """The letter-by-letter simulator that ``run`` replaced: one ``step`` per
    letter and a scan of every earlier boundary of the state.  Returns
    (configs, outcome, inf_set)."""
    u_len, v_len = len(word.prefix), len(word.period)
    configs = [machine.initial_configuration()]
    boundary_seen = {}

    def letter_at(i):
        return word.prefix[i] if i < u_len else word.period[(i - u_len) % v_len]

    def simulate_to(pos_target):
        while len(configs) - 1 < pos_target:
            pos = len(configs) - 1
            nxt = step(machine, configs[-1], letter_at(pos))
            if nxt is None:
                return Outcome("blocked", position=pos)
            configs.append(nxt)
        return None

    blocked = simulate_to(u_len)
    if blocked is None:
        c_u = configs[u_len].counter
        max_periods = len(machine.states) * (
            c_u + len(machine.states) * machine.max_positive_delta() * v_len + 1
        ) + 2
        detected = None
        for k in range(max_periods):
            pos = u_len + k * v_len
            blocked = simulate_to(pos)
            if blocked is not None:
                break
            state, counter = configs[pos]
            for prev_pos, prev_counter in boundary_seen.get(state, ()):
                if counter >= prev_counter:
                    detected = Outcome(
                        "periodic" if counter == prev_counter else "ramp",
                        cycle_start=prev_pos,
                        cycle_len=pos - prev_pos,
                        counter_shift=counter - prev_counter,
                    )
                    break
            if detected:
                break
            boundary_seen.setdefault(state, []).append((pos, counter))
        else:
            raise CapExceeded(f"no repetition within {max_periods} periods")
    if blocked is not None:
        return tuple(configs), blocked, None
    tail = simulate_to(detected.cycle_start + 3 * detected.cycle_len)
    assert tail is None
    seg = range(detected.cycle_start, detected.cycle_start + detected.cycle_len)
    return tuple(configs), detected, frozenset(configs[i].state for i in seg)


@st.composite
def _machines_and_words(draw):
    """A 2-7-state random machine and a word that mostly stays readable: the
    prefix pumps one letter, a pushing one where it can, up to 60 times and
    walks on; the period walks on from there, in half the cases by popping
    letters where it can."""
    seed = draw(st.integers(0, 2**32))
    machine = random_machine(random.Random(seed), draw(st.integers(2, 7)), draw(st.integers(1, 3)))
    config = machine.initial_configuration()

    def walk(length, sign=0):
        # readable letters, those moving the counter by ``sign`` first
        nonlocal config
        letters = []
        for _ in range(length):
            moves = {a: step(machine, config, a) for a in machine.alphabet}
            options = [a for a in machine.alphabet if moves[a] is not None] or list(machine.alphabet)
            signed = [a for a in options if moves[a] and (moves[a].counter - config.counter) * sign > 0]
            letter = draw(st.sampled_from(signed or options))
            letters.append(letter)
            config = moves[letter] or config
        return letters

    pump = walk(1, sign=1)
    for _ in range(draw(st.integers(0, 60))):
        if step(machine, config, pump[0]) is None:
            break
        config = step(machine, config, pump[0])
        pump.append(pump[0])
    prefix = pump + walk(draw(st.integers(0, 4)))
    period = walk(draw(st.integers(1, 4)), sign=draw(st.sampled_from([0, -1])))
    return machine, UPWord(tuple(prefix), tuple(period))


@settings(max_examples=600, deadline=None)
@given(_machines_and_words())
def test_run_equals_the_letter_by_letter_reference(case):
    machine, word = case
    trace = run(machine, word)
    configs, outcome, inf_set = _reference_run(machine, word)
    assert trace.word == word
    assert trace.configs == configs
    assert trace.states == tuple(c.state for c in configs)
    assert trace.counters == tuple(c.counter for c in configs)
    assert trace.outcome == outcome
    assert trace.inf_set == inf_set


@settings(max_examples=600, deadline=None)
@given(_machines_and_words())
def test_member_agrees_with_the_lasso_oracle(case):
    machine, word = case
    config = machine.initial_configuration()
    for a in word.prefix:
        config = config and step(machine, config, a)
    inf = None if config is None else lasso_inf_set(machine, config, word.period)
    assert member(machine, word) == (inf is not None and inf in machine.accept_family)
    assert run(machine, word).inf_set == inf


@settings(max_examples=600, deadline=None)
@given(_machines_and_words())
def test_boundaries_before_the_repeat_show_distinct_states(case):
    """A state back at a boundary with a lower counter dooms the run to block,
    so ``run`` keeps one mark per state: in a run that does not block, every
    boundary before the repeat is the first of its state."""
    machine, word = case
    trace = run(machine, word)
    if trace.outcome.kind == "blocked":
        return
    end = trace.outcome.cycle_start + trace.outcome.cycle_len
    boundary_states = trace.states[len(word.prefix) : end : len(word.period)]
    assert len(set(boundary_states)) == len(boundary_states)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 301])
@pytest.mark.parametrize("period", [("c", "d"), ("d",), ("d", "c"), ("c",)])
def test_g_omega_drained_one_unit_per_period(g_omega, n, period):
    """a^n b ; v with d in v gives up one counter unit per period, so qp and
    qn collect about n/2 marks each before d blocks at zero: n + 1
    boundaries, within a factor of three of ``max_periods``."""
    word = UPWord(("a",) * n + ("b",), period)
    trace = run(g_omega, word)
    assert trace.inf_set == lasso_inf_set(g_omega, Configuration("qp", n), period)
    assert member(g_omega, word) == (period == ("c",))
    if "d" in period:
        assert trace.outcome == Outcome("blocked", position=n + 1 + n * len(period) + period.index("d"))


def test_segment_replay_that_blocks_is_an_internal_error(monkeypatch):
    # blindness is what makes the replay safe; a table without I-level moves breaks it
    machine = validate(
        "pump", ["a"], ["q"], "q", [("q", "a", "Z", "q", 1), ("q", "a", "I", "q", 1)], [["q"]]
    )
    no_i_moves = {q: {} for q in machine.states}
    monkeypatch.setitem(machine.__dict__, "step_table", (machine.step_table[0], no_i_moves))
    with pytest.raises(MbcaError, match="segment replay blocked"):
        run(machine, parse_word("; a"))


def test_parse_word_syntax():
    w = parse_word("a a a b b ; c")
    assert w == UPWord(("a", "a", "a", "b", "b"), ("c",))
    assert parse_word("; a") == UPWord((), ("a",))
    with pytest.raises(MbcaError):
        parse_word("a a a")
    with pytest.raises(MbcaError):
        parse_word("a ;")


def test_run_accepting_ramp(a1):
    trace = run(a1, parse_word("a a a b b ; c"))
    assert trace.outcome.kind in ("periodic", "ramp")
    assert trace.inf_set == frozenset(["q2"])


def test_run_blocked_at_third_b(a1):
    trace = run(a1, parse_word("a a b b b ; c"))
    assert trace.outcome.kind == "blocked"
    assert trace.outcome.position == 4  # third b, zero counter, no Z-entry
    assert trace.inf_set is None


def test_run_fixed_point(a_all):
    trace = run(a_all, parse_word("; a"))
    assert trace.outcome.kind == "periodic"
    assert trace.inf_set == frozenset(["q"])


def test_membership_example_1(a1):
    assert member(a1, parse_word("a a a b b ; c"))
    assert not member(a1, parse_word("a a b b b ; c"))
    assert member(a1, parse_word("; c"))
    assert not member(a1, parse_word("; a"))


def test_membership_empty_family(a_none):
    assert not member(a_none, parse_word("; a"))


def test_shift_monotonicity_random():
    rng = random.Random(11)
    for _ in range(60):
        machine = random_machine(rng, n_states=4, n_letters=3)
        word = [rng.choice(machine.alphabet) for _ in range(rng.randrange(1, 9))]
        q = rng.choice(machine.states)
        c = rng.randrange(0, 4)
        d = rng.randrange(1, 4)
        low, high = Configuration(q, c), Configuration(q, c + d)
        for a in word:
            nlow = step(machine, low, a)
            if nlow is None:
                break
            nhigh = step(machine, high, a)
            assert nhigh is not None
            assert nhigh.state == nlow.state
            assert nhigh.counter == nlow.counter + d
            low, high = nlow, nhigh


def test_member_stable_under_period_unrolling():
    rng = random.Random(13)
    for _ in range(40):
        machine = random_machine(rng, n_states=3, n_letters=2)
        u = tuple(rng.choice(machine.alphabet) for _ in range(rng.randrange(0, 4)))
        v = tuple(rng.choice(machine.alphabet) for _ in range(rng.randrange(1, 4)))
        assert member(machine, UPWord(u, v)) == member(machine, UPWord(u + v, v))


def test_witness_visited_equals_inf(a1):
    trace = run(a1, parse_word("a a a b b ; c"))
    witness = extract_loop_witness(trace)
    assert witness.visited == trace.inf_set
    assert witness.kind == "equal"
    assert witness.anchor_state == "q2"


def test_witness_pump_plus_archetype():
    machine = validate(
        "pump", ["a"], ["q"], "q",
        [("q", "a", "Z", "q", 1), ("q", "a", "I", "q", 1)], [],
    )
    witness = extract_loop_witness(run(machine, parse_word("; a")))
    assert (witness.level, witness.kind) == ("I", "plus")
    assert witness.anchor_counter > 0


def test_witness_zero_level_equal_archetype(a_all):
    witness = extract_loop_witness(run(a_all, parse_word("; a")))
    assert (witness.level, witness.kind) == ("Z", "equal")
    assert witness.anchor_counter == 0


def test_witness_counters_respect_anchor():
    rng = random.Random(17)
    checked = 0
    for _ in range(300):
        machine = random_machine(rng, n_states=4, n_letters=3)
        u = tuple(rng.choice(machine.alphabet) for _ in range(rng.randrange(0, 5)))
        v = tuple(rng.choice(machine.alphabet) for _ in range(rng.randrange(1, 4)))
        trace = run(machine, UPWord(u, v))
        if trace.outcome.kind == "blocked":
            continue
        witness = extract_loop_witness(trace)
        checked += 1
        assert witness.visited == trace.inf_set
        segment = trace.configs[witness.anchor_index : witness.close_index + 1]
        assert segment[0].state == segment[-1].state == witness.anchor_state
        assert all(c.counter >= witness.anchor_counter for c in segment)
        if witness.level == "Z":
            assert witness.anchor_counter == 0
    assert checked > 20


def test_blocked_run_has_no_witness(a1):
    trace = run(a1, parse_word("a b b ; c"))
    assert trace.outcome.kind == "blocked"
    with pytest.raises(MbcaError):
        extract_loop_witness(trace)
