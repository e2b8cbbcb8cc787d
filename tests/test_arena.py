import random

import pytest

from mbca import MbcaError, member, parse_word
from mbca.arena import (
    SKIP,
    START,
    SkipBudgetExhausted,
    Strategy,
    constant_word,
    copycat,
    default_suite,
    emit_strategy,
    parse_strategy,
    play,
    table_player1,
    validate_strategy,
)
from mbca.gallery import canonical


def test_copycat_wins_on_equal_machines(a1):
    report = validate_strategy(a1, a1, copycat(a1.alphabet))
    assert report.clean
    assert report.plays == len(default_suite(a1.alphabet, a1.alphabet))


def test_all_vs_none_player1_always_wins(a_all, a_none):
    for s1 in default_suite(a_all.alphabet, a_none.alphabet):
        record = play(a_all, a_none, s1, copycat(a_none.alphabet))
        assert record.verdict == "player1wins"


def test_verdict_recomputes_from_recorded_words(a1, a_all):
    for s1 in default_suite(a_all.alphabet, a1.alphabet)[:40]:
        record = play(a_all, a1, s1, constant_word(parse_word("a ; c"), a_all.alphabet))
        if record.b_word is None:
            assert record.verdict == "player1wins"
            continue
        agree = member(a_all, record.a_word) == member(a1, record.b_word)
        assert record.verdict == ("player2wins" if agree else "player1wins")


def test_forever_skipping_defender_loses(a_all, a_none):
    skipper = Strategy("skipper", 2, "s", {("s", "a"): ("skip", "s", 0)})
    record = play(a_none, a_all, table_player1({"start": "a", "skip": "a", "a": "a"}), skipper)
    assert record.verdict == "player1wins"
    assert record.b_word is None


def test_long_skip_phase_still_closes(a_all):
    """A bounded skipping phase stays inside the consecutive-skip budget and
    the play closes normally once real emissions start.  (For finite tables
    the joint state always repeats before the budget runs out, so the
    SkipBudgetExhausted guard is defensive only.)"""
    rules = {}
    for i in range(12):
        rules[(f"s{i}", "a")] = ("skip", f"s{i + 1}", 0)
    rules[("s12", "a")] = ("a", "s12", 0)
    patient = Strategy("patient", 2, "s0", rules)
    record = play(a_all, a_all, table_player1({"start": "a", "skip": "a", "a": "a"}), patient)
    assert record.verdict == "player2wins"
    assert record.b_word is not None
    assert SkipBudgetExhausted is not None


def _unmemoized_report(a_machine, b_machine, s2):
    """``validate_strategy`` as a plain loop: every verdict from a fresh ``member``."""
    plays, losses = 0, []
    for s1 in default_suite(a_machine.alphabet, b_machine.alphabet):
        record = play(a_machine, b_machine, s1, s2)
        plays += 1
        if record.b_word is None:
            lost = True
        else:
            lost = member(a_machine, record.a_word) != member(b_machine, record.b_word)
        assert record.verdict == ("player1wins" if lost else "player2wins")
        if lost:
            losses.append(s1.name)
    return plays, losses


def test_tournament_memo_matches_fresh_judging(a1, a_all, a_none, g_omega):
    c11, c12, d12, e21 = (canonical(spec) for spec in ("C_1^1", "C_1^2", "D_1^2", "E_2^1"))
    games = [
        (a1, a1, copycat(a1.alphabet)),
        (g_omega, g_omega, copycat(g_omega.alphabet)),
        (a_all, a_none, copycat(a_none.alphabet)),
        (a_all, a1, constant_word(parse_word("a ; c"), a_all.alphabet)),
        (a1, a_all, constant_word(parse_word("; a"), a1.alphabet)),
        (a1, g_omega, constant_word(parse_word("a b ; c"), a1.alphabet)),
        (g_omega, a1, constant_word(parse_word("a a b ; c"), g_omega.alphabet)),
        (c11, d12, constant_word(parse_word("n1 ; j1"), c11.alphabet)),
        (c12, d12, copycat(d12.alphabet)),
        (e21, e21, copycat(e21.alphabet)),
    ]
    lossy = 0
    for a_machine, b_machine, s2 in games:
        report = validate_strategy(a_machine, b_machine, s2)
        assert (report.plays, report.losses) == _unmemoized_report(a_machine, b_machine, s2)
        lossy += bool(report.losses)
    assert lossy >= 2  # the comparison covers losses, not only clean sheets


def test_play_record_does_not_depend_on_the_memo(a1, a_all):
    verdicts = {}
    s2 = constant_word(parse_word("a ; c"), a_all.alphabet)
    for s1 in default_suite(a_all.alphabet, a1.alphabet)[:60]:
        assert play(a_all, a1, s1, s2, verdicts=verdicts) == play(a_all, a1, s1, s2)
    for (machine, word), verdict in verdicts.items():
        assert verdict == member(machine, word)
    assert {machine for machine, _ in verdicts} == {a_all, a1}


def test_missing_rule_error_is_unchanged(a1):
    partial = Strategy("partial", 2, "idle", {("idle", "a"): ("a", "idle", 0)})
    with pytest.raises(MbcaError, match=r"strategy 'partial' has no rule for \(idle, b\)"):
        play(a1, a1, table_player1({"start": "b"}), partial)
    with pytest.raises(MbcaError, match=r"strategy 'p1' has no rule for \(s, a\)"):
        play(a1, a1, table_player1({"start": "a"}), copycat(a1.alphabet))


def test_witness_all_below_a1(a_all, a1):
    """Everything is in the left language, so feeding the accepting lasso of
    the counting machine wins every play."""
    witness = constant_word(parse_word("a ; c"), a_all.alphabet, name="count-then-c")
    report = validate_strategy(a_all, a1, witness)
    assert report.clean


def test_witness_c11_below_d12():
    c11, d12 = canonical("C_1^1"), canonical("D_1^2")
    witness = constant_word(parse_word("n1 ; j1"), c11.alphabet, name="to-positive-site")
    report = validate_strategy(c11, d12, witness)
    assert report.clean


def test_witness_d11_below_d12():
    d11, d12 = canonical("D_1^1"), canonical("D_1^2")
    witness = constant_word(parse_word("; j1"), d11.alphabet, name="stay-negative")
    report = validate_strategy(d11, d12, witness)
    assert report.clean


def test_witness_e11_below_e12():
    e11, e12 = canonical("E_1^1"), canonical("E_1^2")
    assert set(e11.alphabet) <= set(e12.alphabet)
    report = validate_strategy(e11, e12, copycat(e12.alphabet))
    assert report.clean


def test_stateful_mirror_witness_e11_below_c21():
    """A branch-tracking defender: mirror the opponent's acceptance commitment
    into the two-state chain gadget (hold the inner set when the opponent is
    accepting, alternate the full set when not)."""
    e11, c21 = canonical("E_1^1"), canonical("C_2^1")
    hold, flip_hi = ("j1", "hold"), ("j2", "alt2")
    rules = {
        # initial: read the branch letter
        ("init", "p"): ("j1", "hold", 0),
        ("init", "n"): ("j1", "alt1", 0),
        ("init", "j1"): ("j1", "alt1", 0),  # j1 first blocks the opponent
        # opponent committed to the accepting wing: stay inside {r1}
        ("hold", "j1"): ("j1", "hold", 0),
        ("hold", "p"): ("j1", "alt1", 0),  # any deviation blocks the opponent
        ("hold", "n"): ("j1", "alt1", 0),
        # opponent rejected (or blocked): realize the full negative set
        ("alt1", "p"): ("j2", "alt2", 0),
        ("alt1", "n"): ("j2", "alt2", 0),
        ("alt1", "j1"): ("j2", "alt2", 0),
        ("alt2", "p"): ("j1", "alt1", 0),
        ("alt2", "n"): ("j1", "alt1", 0),
        ("alt2", "j1"): ("j1", "alt1", 0),
    }
    mirror = Strategy("mirror", 2, "init", rules)
    report = validate_strategy(e11, c21, mirror)
    assert report.clean, report.losses[:5]


def test_reverse_direction_loses(a_all):
    d12 = canonical("D_1^2")
    # D_1^2 is strictly above C_1^1: simple defenders must drop a play
    defenders = [
        constant_word(parse_word("; a"), d12.alphabet, name="const-a"),
    ]
    losses = 0
    for defender in defenders:
        report = validate_strategy(d12, a_all, defender)
        losses += len(report.losses)
    assert losses > 0


def test_table_player1_rule_format():
    table = table_player1({"start": "a", "skip": "b", "a": "a"}, name="t")
    assert table == Strategy(
        "t", 1, "s",
        {("s", "start"): ("a", "s", 0), ("s", "skip"): ("b", "s", 0), ("s", "a"): ("a", "s", 0)},
    )


def test_strategy_format_round_trip():
    witness = constant_word(parse_word("a b ; c"), ["x", "y"], name="fixed")
    text = emit_strategy(witness)
    assert parse_strategy(text) == witness
    counterful = Strategy(
        "blind", 2, "s", {("s", "a"): ("b", "s", 1), ("s", "b"): ("skip", "s", -1)}
    )
    assert parse_strategy(emit_strategy(counterful)) == counterful


def _reference_suite(a_alphabet, b_alphabet, limit=512):
    """``default_suite`` as first written, sorting the left alphabet once per token."""
    tokens = [START, SKIP] + sorted(b_alphabet)
    total = len(a_alphabet) ** len(tokens)

    def build(index):
        emissions = {}
        rest = index
        for token in tokens:
            emissions[token] = sorted(a_alphabet)[rest % len(a_alphabet)]
            rest //= len(a_alphabet)
        return table_player1(emissions, name=f"p1#{index}")

    if total <= limit:
        return [build(i) for i in range(total)]
    step = total // limit
    return [build(i * step) for i in range(limit)]


@pytest.mark.parametrize("n_letters", range(1, 12))
def test_default_suite_matches_the_reference(n_letters):
    rng = random.Random(n_letters)
    a_alphabet = [f"x{i}" for i in range(n_letters)]
    rng.shuffle(a_alphabet)
    for b_size in (1, 2, 3):
        b_alphabet = rng.sample(["b", "a", "c"], b_size)
        total = n_letters ** (b_size + 2)
        # both sides of the cap: the whole table set, and an even sample of it
        near = {total - 1, total, total + 1} if total <= 2000 else set()
        for limit in {512, 7} | near - {0}:
            got = default_suite(a_alphabet, b_alphabet, limit)
            want = _reference_suite(a_alphabet, b_alphabet, limit)
            assert [(s.name, s.rules) for s in got] == [(s.name, s.rules) for s in want]
