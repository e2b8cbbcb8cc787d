"""Tests of the benchmark's own parts: its simulator, its tail rule, op isolation, tracing."""

from __future__ import annotations

import oracle
import run
import spans
import workloads

workloads.use_checkout_source()


def _table(name: str) -> oracle.Table:
    from mbca.automaton import parse_machine

    return oracle.Table.of(parse_machine((workloads.ROOT / "machines" / f"{name}.mbca").read_text()))


def test_lasso_simulator_matches_a1_closed_form():
    table = _table("A1")
    for n in range(7):
        for p in range(9):
            assert oracle.accepts(table, "a" * n + "b" * p, "c") == oracle.a1_accepts_anbp_c(n, p)


def test_lasso_simulator_matches_g_omega_closed_forms():
    table = _table("G_OMEGA")
    for n in range(7):
        assert oracle.accepts(table, "a" * n + "b", "cd") == oracle.g_omega_accepts_anb_cd(n)
        for j in range(9):
            want = oracle.g_omega_accepts_anbdj_c(n, j)
            assert oracle.accepts(table, "a" * n + "b" + "d" * j, "c") == want
            if j <= n:  # the run survives the d's and parks in qp or qn
                assert oracle.lasso_inf(table, "a" * n + "b" + "d" * j, "c") == {"qp" if j % 2 == 0 else "qn"}


def test_lasso_simulator_reports_a_blocked_run():
    assert oracle.lasso_inf(_table("A1"), "ab", "b") is None


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(v) for v in range(1, 41)]) == 30.0
    values = [float(v) for v in range(100, 0, -1)]
    assert run.tail(values) == 90.0
    assert sum(v > run.tail(values) for v in values) == 10
    assert run.tail([3.0, 1.0, 2.0]) == 3.0  # ops failed: the highest sample left


def _cold_then_warm(op, mods):
    """Two classifies in one process: the second one finds warm caches."""
    first, _ = workloads.run_classify(op, mods)
    second, _ = workloads.run_classify(op, mods)
    return first, second


def test_repeated_cold_op_is_as_slow_as_the_first(tmp_path):
    mods = workloads.Mods()
    spec = "E_1^w*1+1"
    op = workloads.Op(spec, "classify", (), ("name", oracle.spec_name(spec)), mods.gallery.canonical(spec))
    workloads._write_files(mods, [op], tmp_path)
    (first, problem, _), _ = run.in_child(run._cold_op, op, mods, 0, None)
    (again, _, _), _ = run.in_child(run._cold_op, op, mods, 1, None)
    (cold, warm), _ = run.in_child(_cold_then_warm, op, mods)
    assert problem is None
    assert warm < cold / 5, "a warm repeat should be far faster, or this test shows nothing"
    assert again > first / 3, "a forked op must not inherit warm caches"


def _traced_naming():
    tracer = spans.Tracer()
    mods = workloads.Mods()
    extra = ("mbca.naming", "no_such_function", "naming.gone", None)
    spans.TARGETS.append(extra)
    try:
        tracer.install()
    finally:
        spans.TARGETS.remove(extra)
    name = mods.naming.wadge_name(mods.gallery.canonical("E_1^w*1+1")).render()
    return name, tracer.absent, tracer.metrics(), len(tracer.span_start)


def test_tracer_wraps_every_binding_and_reports_absent_functions():
    (name, absent, figures, n_spans), _ = run.in_child(_traced_naming)
    assert name == "E_1^w*1+1 E"
    assert absent == ["naming.gone"]
    assert n_spans > 0
    # hierarchy and loops each hold their own binding of reachability.analysis
    assert figures["reachability.analyses"] > 0 and 0 < figures["reachability.hit_ratio"] < 1
    assert figures["loops.descriptors"] > 0 and figures["naming.derivations"] == 1
    assert figures["reachability.min_counter_to_probes"] > 0
    assert figures["hierarchy.self_s"] > 0 and figures["gallery.canonical_s"] > 0
