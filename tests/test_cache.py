"""The per-machine cache: one entry per machine value, shared by equal machines."""

import io
import random
from contextlib import redirect_stdout

from mbca import automaton, emit_machine, parse_machine, validate
from mbca.automaton import memo
from mbca.cli import main
from mbca.gallery import canonical, parse_class_spec
from mbca.hierarchy import analyzer_for
from mbca.loops import loops
from mbca.naming import derive
from mbca.reachability import analysis
from conftest import random_machine


def _classify(path) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["--format", "structured", "classify", "--machine", str(path)]) == 0
    return out.getvalue()


def test_round_trip_copy_shares_the_entry(tmp_path):
    rng = random.Random(11)
    path = tmp_path / "m.mbca"
    for _ in range(12):
        m1 = random_machine(rng)
        path.write_text(emit_machine(m1))
        m2 = parse_machine(path.read_text())
        assert m1 == m2 and m1 is not m2
        for q in m1.states:
            start = automaton.Configuration(q, 1)
            assert analysis(m1, start) is analysis(m2, start)
        assert loops(m1) is loops(m2)
        assert analyzer_for(m1) is analyzer_for(m2)
        warm = _classify(path)
        automaton._memo.clear()
        assert _classify(path) == warm


def test_a_different_accept_family_is_a_different_entry(a1):
    other = validate(a1.name, a1.alphabet, a1.states, a1.initial, a1.transitions, [["q0"]])
    start = a1.initial_configuration()
    assert analysis(a1, start) is not analysis(other, start)
    assert analyzer_for(a1) is not analyzer_for(other)


def test_derived_machine_has_its_own_entry():
    machine = canonical(parse_class_spec("E_1^1"))
    ctx = derive(machine)
    start = machine.initial_configuration()
    assert ctx.machine != machine
    assert analysis(ctx.machine, start) is not analysis(machine, start)
    assert ctx.machine in automaton._memo and machine in automaton._memo
    again = derive(machine)
    assert again.machine is not ctx.machine and again.machine == ctx.machine
    assert analyzer_for(again.machine, again.thresholds) is analyzer_for(ctx.machine, ctx.thresholds)
    assert analyzer_for(ctx.machine, ctx.thresholds) is not analyzer_for(ctx.machine)


def test_oldest_machine_leaves_first_past_the_bound():
    made = [
        validate(f"m{i}", ["a"], ["q"], "q", [("q", "a", "I", "q", 0)], [])
        for i in range(automaton.MEMO_MACHINES + 1)
    ]
    for m in made:
        assert memo(m, "probe", lambda: 1) == 1
    assert len(automaton._memo) == automaton.MEMO_MACHINES
    assert made[0] not in automaton._memo and made[-1] in automaton._memo


def test_copy_has_an_equal_hash_and_shares_the_entry():
    machine = canonical(parse_class_spec("E_3^2 E_2^2 C_1^1"))
    first = hash(machine)
    copy = parse_machine(emit_machine(machine))
    assert copy is not machine and copy == machine
    assert hash(copy) == hash(machine) == first
    built = memo(machine, "probe", object)
    assert memo(copy, "probe", object) is built
