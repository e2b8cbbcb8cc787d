import random

import pytest
from hypothesis import given, settings, strategies as st

from mbca import (
    Configuration,
    InvalidMachine,
    check,
    emit_machine,
    parse_machine,
    step,
    validate,
)
from conftest import random_counter_free, random_machine


def test_a1_is_valid(a1):
    assert a1.initial == "q0"
    assert frozenset(["q2"]) in a1.accept_family


def test_blindness_violation_reported():
    violations = check(
        "bad", ["a"], ["q"], "q", [("q", "a", "Z", "q", 0)], []
    )
    assert any(v.rule == "BlindnessViolation" for v in violations)
    with pytest.raises(InvalidMachine):
        validate("bad", ["a"], ["q"], "q", [("q", "a", "Z", "q", 0)], [])


def test_delta_out_of_range():
    violations = check(
        "bad", ["a"], ["q"], "q",
        [("q", "a", "I", "q", -2)], [],
    )
    assert any(v.rule == "DeltaOutOfRange" for v in violations)
    violations = check(
        "bad", ["a"], ["q"], "q",
        [("q", "a", "Z", "q", -1), ("q", "a", "I", "q", -1)], [],
    )
    assert any(v.rule == "DeltaOutOfRange" for v in violations)


def test_nondeterministic_entry_from_text():
    text = """
mbca dup
alphabet a
states q p
initial q
trans q a I q 0
trans q a I p 0
"""
    with pytest.raises(InvalidMachine) as err:
        parse_machine(text)
    assert any(v.rule == "NondeterministicEntry" for v in err.value.violations)


def test_dangling_reference():
    violations = check("bad", ["a"], ["q"], "r", [], [["x"]])
    rules = {v.rule for v in violations}
    assert rules == {"DanglingReference"}


def test_duplicate_names_are_reported():
    text = """
mbca dup
alphabet a a b
states q p q
initial q
trans q a Z q 0
trans q a I q 0
"""
    with pytest.raises(InvalidMachine) as err:
        parse_machine(text)
    duplicates = [v.detail for v in err.value.violations if v.rule == "DuplicateName"]
    assert duplicates == ["state 'q' declared 2 times", "letter 'a' declared 2 times"]


def test_step_on_a1(a1):
    assert step(a1, Configuration("q0", 0), "a") == Configuration("q0", 1)
    assert step(a1, Configuration("q1", 0), "b") is None
    assert step(a1, Configuration("q1", 2), "b") == Configuration("q1", 1)
    assert step(a1, Configuration("q2", 5), "c") == Configuration("q2", 5)


def test_zero_delta_twin_moves_alike(a_all):
    assert step(a_all, Configuration("q", 0), "a") == Configuration("q", 0)
    assert step(a_all, Configuration("q", 3), "a") == Configuration("q", 3)


def test_blind_twins_by_table_scan(a1, a_pump, g_omega):
    for machine in (a1, a_pump, g_omega):
        for q in machine.states:
            for a in machine.alphabet:
                z = machine.entry(q, a, "Z")
                if z is not None:
                    assert machine.entry(q, a, "I") == z


def test_entry_and_step_are_total_outside_the_table(a1):
    # a1 has no move on b from q0 at zero level, and knows no state x or letter z
    assert a1.entry("q0", "b", "Z") is None
    for state, letter in (("x", "a"), ("q0", "z"), ("x", "z")):
        for level in ("Z", "I"):
            assert a1.entry(state, letter, level) is None
        assert step(a1, Configuration(state, 0), letter) is None
        assert step(a1, Configuration(state, 2), letter) is None
    assert a1.entry("q0", "a", "Z") == ("q0", 1)


def test_step_never_goes_negative(a1):
    for q in a1.states:
        for c in range(3):
            for a in a1.alphabet:
                nxt = step(a1, Configuration(q, c), a)
                if nxt is not None:
                    assert nxt.counter >= 0


def test_text_format_round_trip(a1, g_omega, a_pump):
    for machine in (a1, g_omega, a_pump):
        again = parse_machine(emit_machine(machine))
        assert again == machine


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans())
def test_text_format_round_trips_random_machines(seed, n_states, counter_free):
    rng = random.Random(seed)
    machine = random_counter_free(rng, n_states) if counter_free else random_machine(rng, n_states)
    text = emit_machine(machine)
    assert parse_machine(text) == machine
    assert emit_machine(parse_machine(text)) == text


def test_reference_a1_text_parses_to_fixture(a1):
    text = """
# reference machine
mbca A1
alphabet a b c
states q0 q1 q2
initial q0
accept { q2 }
trans q0 a Z q0 +1
trans q0 a I q0 +1
trans q0 b I q1 -1
trans q0 c Z q2 0
trans q0 c I q2 0
trans q1 b I q1 -1
trans q1 c Z q2 0
trans q1 c I q2 0
trans q2 c Z q2 0
trans q2 c I q2 0
"""
    assert parse_machine(text) == a1
