"""The four workloads: inputs made from a seed, one round of ops, and the checks.

The seed shuffles the op order; on ``reach``, ``loops`` and ``rank`` it
renames the states and letters of every machine (an isomorphic copy of a
pinned machine), and on ``words`` it draws the words.  The random machines of ``loops`` come from pinned pool seeds, because
their cold cost spans 10-450 ms: drawing them per run would make the seed,
not the program, the largest source of spread.  Only strongly connected ones
are kept: loop enumeration then works on one 6-state SCC, and most cost
120-400 ms, where a cold op's time is steadier than at 20 ms.

Nothing here imports mbca at module level: set-up time includes the import.
"""

from __future__ import annotations

import importlib
import io
import json
import random
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import oracle

ROOT = Path(__file__).resolve().parent.parent

# Transfinite machines with m <= 2: reachability BFS and min_counter_to dominate.
REACH_SPECS = [
    "C_1^w*1+1", "D_1^w*1+1", "C_1^w*1+2", "C_1^w*2+1", "D_1^w*2+1", "C_1^w*2+2",
    "D_1^w*2+2", "C_1^w*2+3", "D_1^w*2+3", "C_1^w*3+1", "D_1^w*3+1", "C_1^w*3+3",
    "C_2^w*1", "D_2^w*1", "C_2^w*1+1", "D_2^w*1+1", "C_2^w*2", "D_2^w*2",
    "E_1^w*1+1", "E_2^w*1", "E_2^w*1+1", "E_2^w*2",
]
# m = 3 transfinite machines: loop enumeration dominates.  (C_3^w*1+2 is left
# out: its two samples would push the tail of `loops` to the edge of the group
# of dear random machines, where it jumps from run to run.)
LOOPS_SPECS = ["C_3^w*1", "D_3^w*1+1", "C_3^w*2"]
# Large canonical machines for membership: 52 to 182 transitions.
WORDS_SPECS = ["C_2^w*2", "C_3^w*2", "E_2^w*2", "E_3^2 E_2^2 C_1^1"]
# The acceptance gallery box: C/D/E, m in {1, 2}, six lengths, minus the six
# m = 1 limit lengths the gallery cannot build.
GALLERY_BOX = [
    f"{letter}_{m}^{alpha}"
    for letter in "CDE"
    for m in (1, 2)
    for alpha in ("1", "2", "3", "w*1", "w*1+1", "w*2")
    if not (m == 1 and alpha in ("w*1", "w*2"))
]
MACHINE_FILES = ["A1", "ALL", "G_OMEGA", "NONE"]

POOL_SEED = 1005_5635  # pins the random machines of `loops`
LOOPS_COUNTER = 16  # strongly connected random 6-state counter machines
LOOPS_FREE = 5  # strongly connected random 6-state counter-free machines
WORD_LENGTH = 3000  # letters before the period of every long word


@dataclass
class Op:
    """One timed call.  ``want`` is what the check compares the output with."""

    label: str
    kind: str  # classify | member | tournament | rank
    args: tuple = ()
    want: object = None
    machine: object = None


@dataclass
class Inputs:
    ops: list[Op]
    cold: bool  # run each op in a child forked from the set-up process
    mods: "Mods"


class Mods:
    """The mbca modules, looked up at call time so a tracer's wrappers apply."""

    def __init__(self):
        for name in ("automaton", "cli", "gallery", "naming", "semantics", "arena", "wagner"):
            setattr(self, name, importlib.import_module(f"mbca.{name}"))
        self.loops = importlib.import_module("mbca.loops")  # the package re-exports a function of that name


# -- inputs ------------------------------------------------------------------------


def rename(mods: Mods, machine, rng: random.Random):
    """An isomorphic copy with shuffled, renamed states and letters."""
    states = list(machine.states)
    letters = list(machine.alphabet)
    rng.shuffle(states)
    rng.shuffle(letters)
    s = {q: f"s{i}" for i, q in enumerate(states)}
    a = {x: f"l{i}" for i, x in enumerate(letters)}
    return mods.automaton.validate(
        machine.name,
        [a[x] for x in letters],
        [s[q] for q in states],
        s[machine.initial],
        [(s[t.source], a[t.letter], t.level, s[t.target], t.delta) for t in machine.transitions],
        [[s[q] for q in f] for f in machine.accept_family],
    )


def random_machine(mods: Mods, rng: random.Random, n_states: int, counter: bool):
    """A random 3-letter machine; each Z-level row mirrors its I-level twin."""
    states = [f"q{i}" for i in range(n_states)]
    rows = []
    for q in states:
        for letter in "abc":
            if rng.random() > 0.75:
                continue
            target = rng.choice(states)
            delta = rng.choice([-1, 0, 0, 1]) if counter else 0
            rows.append((q, letter, "I", target, delta))
            if delta >= 0 and (not counter or rng.random() < 0.8):
                rows.append((q, letter, "Z", target, delta))
    family = [
        [states[i] for i in range(n_states) if bits >> i & 1]
        for bits in range(1, 1 << n_states)
        if rng.random() < 0.25
    ]
    return mods.automaton.validate("rnd", "abc", states, states[0], rows, family)


def strongly_connected(machine) -> bool:
    """Every state reaches every other: loop enumeration sees one 6-state SCC."""
    forward: dict[str, set[str]] = {q: set() for q in machine.states}
    backward: dict[str, set[str]] = {q: set() for q in machine.states}
    for t in machine.transitions:
        forward[t.source].add(t.target)
        backward[t.target].add(t.source)

    def reached(edges) -> set[str]:
        seen, todo = {machine.initial}, [machine.initial]
        while todo:
            for r in edges[todo.pop()] - seen:
                seen.add(r)
                todo.append(r)
        return seen

    return reached(forward) == reached(backward) == set(machine.states)


def random_pool(mods: Mods, first_seed: int, size: int, counter: bool) -> list:
    """The first ``size`` strongly connected machines drawn from consecutive seeds."""
    pool, seed = [], first_seed
    while len(pool) < size:
        m = random_machine(mods, random.Random(seed), 6, counter)
        if strongly_connected(m):
            pool.append(m)
        seed += 1
    return pool


def machine_file(mods: Mods, name: str):
    return mods.automaton.parse_machine((ROOT / "machines" / f"{name}.mbca").read_text())


def _classify_op(label: str, machine, want) -> Op:
    return Op(label, "classify", (), want, machine)


def _write_files(mods: Mods, ops: list[Op], workdir: Path) -> None:
    """Classify reads its machine from a file, as a user's `mbca classify` does."""
    for k, op in enumerate(ops):
        path = workdir / f"{k}.mbca"
        path.write_text(mods.automaton.emit_machine(op.machine))
        op.args = (str(path),)


def build_reach(mods: Mods, seed: int, workdir: Path) -> Inputs:
    rng = random.Random(seed)
    ops = [
        _classify_op(spec, rename(mods, mods.gallery.canonical(spec), rng), ("name", oracle.spec_name(spec)))
        for spec in REACH_SPECS
    ]
    g = rename(mods, machine_file(mods, "G_OMEGA"), rng)
    ops.append(_classify_op("G_OMEGA", g, ("name", oracle.MACHINE_NAMES["G_OMEGA"])))
    _write_files(mods, ops, workdir)
    return Inputs(ops, True, mods)


def build_loops(mods: Mods, seed: int, workdir: Path) -> Inputs:
    rng = random.Random(seed)
    ops = [
        _classify_op(spec, rename(mods, mods.gallery.canonical(spec), rng), ("name", oracle.spec_name(spec)))
        for spec in LOOPS_SPECS
    ]
    for i, m in enumerate(random_pool(mods, POOL_SEED, LOOPS_COUNTER, counter=True)):
        ops.append(_classify_op(f"counter#{i}", rename(mods, m, rng), ("witnesses",)))
    for i, m in enumerate(random_pool(mods, POOL_SEED + 1000, LOOPS_FREE, counter=False)):
        ops.append(_classify_op(f"free#{i}", rename(mods, m, rng), ("wagner",)))
    _write_files(mods, ops, workdir)
    return Inputs(ops, True, mods)


def random_walk(table: oracle.Table, alphabet, rng: random.Random, length: int, start=None):
    """Letters of a run that never blocks: each letter is drawn among the enabled ones."""
    state, counter = start or (table.initial, 0)
    letters = []
    for _ in range(length):
        enabled = [x for x in alphabet if table.step(state, counter, x) is not None]
        letter = rng.choice(enabled)
        state, counter = table.step(state, counter, letter)
        letters.append(letter)
    return letters, (state, counter)


def build_words(mods: Mods, seed: int, workdir: Path) -> Inputs:
    # 23 ops (A1, G_OMEGA, A1's tournament) are cheaper than the six C_2^w*2
    # walks and 23 dearer, so the median op sits inside one group, not on the
    # step between two groups of different cost.
    rng = random.Random(seed)
    UPWord = mods.semantics.UPWord
    ops = []
    a1, g = machine_file(mods, "A1"), machine_file(mods, "G_OMEGA")
    n = WORD_LENGTH // 2
    for _ in range(11):
        p = n + rng.randint(-30, 30)
        ops.append(Op(f"A1 a^{n} b^{p} ; c", "member",
                      (a1, UPWord(("a",) * n + ("b",) * p, ("c",))), oracle.a1_accepts_anbp_c(n, p)))
    for _ in range(9):
        j = n + rng.randint(-30, 30)
        ops.append(Op(f"G_OMEGA a^{n} b d^{j} ; c", "member",
                      (g, UPWord(("a",) * n + ("b",) + ("d",) * j, ("c",))),
                      oracle.g_omega_accepts_anbdj_c(n, j)))
    for _ in range(2):
        ops.append(Op(f"G_OMEGA a^{n} b ; c d", "member",
                      (g, UPWord(("a",) * n + ("b",), ("c", "d"))), oracle.g_omega_accepts_anb_cd(n)))
    large = [mods.gallery.canonical(spec) for spec in WORDS_SPECS]
    for spec, m in zip(WORDS_SPECS, large):
        table = oracle.Table.of(m)
        for _ in range(6):
            prefix, end = random_walk(table, m.alphabet, rng, WORD_LENGTH)
            period, _ = random_walk(table, m.alphabet, rng, rng.randint(1, 4), end)
            # the answer comes from the benchmark's own simulator, on first use
            ops.append(Op(f"{spec} walk", "member", (m, UPWord(tuple(prefix), tuple(period))), None))
    for label, m in [("A1", a1), ("G_OMEGA", g)] + list(zip(WORDS_SPECS, large)):
        ops.append(Op(f"{label} copycat", "tournament", (m,), "clean"))
    return Inputs(ops, False, mods)


def build_rank(mods: Mods, seed: int, workdir: Path) -> Inputs:
    rng = random.Random(seed)
    pool = [(oracle.spec_name(spec), mods.gallery.canonical(spec)) for spec in GALLERY_BOX]
    pool += [(oracle.MACHINE_NAMES[name], machine_file(mods, name)) for name in MACHINE_FILES]
    pool = [(name, rename(mods, m, rng)) for name, m in pool]
    parse, compare = mods.naming.parse_name, mods.naming.compare
    ops = [
        Op(f"{na} vs {nb}", "rank", (i, j, a, b), (na, nb, compare(parse(na), parse(nb))))
        for i, (na, a) in enumerate(pool)
        for j, (nb, b) in enumerate(pool)
    ]
    for _, m in pool:  # warm-up: every later op names from warm caches
        mods.naming.wadge_name(m)
    return Inputs(ops, False, mods)


BUILDERS = {"reach": build_reach, "loops": build_loops, "words": build_words, "rank": build_rank}

# Wall time of one round on the reference machine (see README).  A run
# repeats rounds so that it lasts about --seconds, and at least MIN_ROUNDS,
# enough for 40 ops.
NOMINAL_ROUND_S = {"reach": 9.8, "loops": 7.6, "words": 0.95, "rank": 20.0}
MIN_ROUNDS = {"reach": 2, "loops": 2, "words": 1, "rank": 1}
# Set-ups per untraced run, each in a fresh process; set-up time is their
# median.  Two for rank, whose set-up names the whole pool (about 8 s).
SETUP_SAMPLES = {"reach": 5, "loops": 5, "words": 5, "rank": 2}


def rounds(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS[workload], round(seconds / NOMINAL_ROUND_S[workload]))


def setup(workload: str, seed: int, workdir: Path, tracer=None) -> Inputs:
    """Import mbca and build the inputs: the work set-up time measures."""
    mods = Mods()
    if tracer is not None:
        tracer.install()
    return BUILDERS[workload](mods, seed, workdir)


# -- ops and their checks ------------------------------------------------------------


def run_classify(op: Op, mods: Mods, tracer=None):
    """Cold classify through the CLI; returns (ms, problem or None)."""
    out = io.StringIO()
    start = perf_counter()
    with redirect_stdout(out):
        code = mods.cli.main(["--format", "structured", "classify", "--machine", op.args[0]])
    ms = (perf_counter() - start) * 1000
    if tracer is not None:
        tracer.paused = True
    if code != 0:
        raise RuntimeError(f"classify exited {code}")
    return ms, check_classify(op, json.loads(out.getvalue()), mods)


def check_classify(op: Op, report: dict, mods: Mods) -> str | None:
    kind = op.want[0]
    machine = op.machine
    if kind == "name":
        if report["name"] != op.want[1]:
            return f"name {report['name']!r}, want {op.want[1]!r}"
    elif kind == "wagner":
        want = mods.wagner.wagner_invariants(machine)
        got = report["invariants"]
        if (got["m"], got["n"], got["s"]) != (want.m, want.n.render(), want.s):
            return f"invariants {got}, wagner {want}"
    elif kind == "witnesses":
        table = oracle.Table.of(machine)
        found = {
            (d.anchor, d.level, d.essential_set, d.delta_kind): d for d in mods.loops.loops(machine)
        }
        for entry in report["loops"]:
            key = (entry["anchor"], entry["level"], frozenset(entry["states"]), entry["kind"])
            d = found.get(key)
            if d is None:
                return f"reported loop {key} is not among the descriptors"
            word = mods.loops.witness_word(machine, d)
            inf = oracle.lasso_inf(table, word.prefix, word.period)
            if inf != d.essential_set:
                return f"witness for {key} replays to Inf {sorted(inf or [])}"
            if (entry["sign"] == "positive") != (d.essential_set in table.accept):
                return f"loop {key} has the wrong sign"
    return None


def run_warm(op: Op, mods: Mods, verdicts: dict):
    """An in-process op; returns (ms, problem or None)."""
    if op.kind == "member":
        machine, word = op.args
        start = perf_counter()
        got = mods.semantics.member(machine, word)
        ms = (perf_counter() - start) * 1000
        if op.want is None:
            op.want = oracle.accepts(oracle.Table.of(machine), word.prefix, word.period)
        return ms, None if got == op.want else f"member {got}, want {op.want}"
    if op.kind == "tournament":
        (machine,) = op.args
        arena = mods.arena
        start = perf_counter()
        report = arena.validate_strategy(
            machine, machine, arena.copycat(machine.alphabet),
            arena.default_suite(machine.alphabet, machine.alphabet),
        )
        ms = (perf_counter() - start) * 1000
        return ms, None if report.clean and report.plays else f"copycat lost {report.losses[:3]}"
    i, j, a, b = op.args
    naming = mods.naming
    start = perf_counter()
    name_a, name_b = naming.wadge_name(a), naming.wadge_name(b)
    verdict = naming.compare(name_a, name_b)
    ms = (perf_counter() - start) * 1000
    verdicts[i, j] = verdict
    want_a, want_b, want = op.want
    if (name_a.render(), name_b.render()) != (want_a, want_b):
        return ms, f"names {name_a.render()!r}, {name_b.render()!r}"
    if verdict != want or (i == j and verdict != "equivalent"):
        return ms, f"verdict {verdict}, want {want}"
    return ms, None


def mirror_problems(ops: list[Op], verdicts: dict) -> dict[int, str]:
    """Rank ops whose verdict is not the mirror of the swapped pair's."""
    bad = {}
    for k, op in enumerate(ops):
        if op.kind == "rank":
            i, j = op.args[:2]
            if (j, i) in verdicts and oracle.MIRROR[verdicts[i, j]] != verdicts[j, i]:
                bad[k] = f"swapped verdict {verdicts[j, i]} does not mirror {verdicts[i, j]}"
    return bad


def mbca_present() -> bool:
    return (ROOT / "src" / "mbca" / "__init__.py").is_file()


def use_checkout_source() -> None:
    sys.path.insert(0, str(ROOT / "src"))
