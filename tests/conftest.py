"""Shared machines, generators, and brute-force oracles for the suite."""

from __future__ import annotations

import random

import pytest

from mbca import Mbca, Transition, validate

# -- reference machines -------------------------------------------------------


def a1_machine() -> Mbca:
    """Accepts a^n b^p c^omega exactly when p <= n (blocks on the extra b's)."""
    return validate(
        "A1",
        ["a", "b", "c"],
        ["q0", "q1", "q2"],
        "q0",
        [
            ("q0", "a", "Z", "q0", 1),
            ("q0", "a", "I", "q0", 1),
            ("q0", "b", "I", "q1", -1),
            ("q0", "c", "Z", "q2", 0),
            ("q0", "c", "I", "q2", 0),
            ("q1", "b", "I", "q1", -1),
            ("q1", "c", "Z", "q2", 0),
            ("q1", "c", "I", "q2", 0),
            ("q2", "c", "Z", "q2", 0),
            ("q2", "c", "I", "q2", 0),
        ],
        [["q2"]],
    )


def a_all_machine() -> Mbca:
    return validate(
        "A_ALL", ["a"], ["q"], "q",
        [("q", "a", "Z", "q", 0), ("q", "a", "I", "q", 0)], [["q"]],
    )


def a_none_machine() -> Mbca:
    return validate(
        "A_NONE", ["a"], ["q"], "q",
        [("q", "a", "Z", "q", 0), ("q", "a", "I", "q", 0)], [],
    )


def a_pump_machine() -> Mbca:
    return validate(
        "A_PUMP", ["a", "b"], ["q0", "q1"], "q0",
        [
            ("q0", "a", "Z", "q0", 1),
            ("q0", "a", "I", "q0", 1),
            ("q0", "b", "Z", "q1", 0),
            ("q0", "b", "I", "q1", 0),
            ("q1", "b", "I", "q1", -1),
        ],
        [["q1"]],
    )


def g_omega_machine() -> Mbca:
    """The pumped two-site machine whose crossing letters consume the counter."""
    return validate(
        "G_OMEGA", ["a", "b", "c", "d"], ["p", "qp", "qn"], "p",
        [
            ("p", "a", "Z", "p", 1),
            ("p", "a", "I", "p", 1),
            ("p", "b", "Z", "qp", 0),
            ("p", "b", "I", "qp", 0),
            ("qp", "c", "Z", "qp", 0),
            ("qp", "c", "I", "qp", 0),
            ("qp", "d", "I", "qn", -1),
            ("qn", "c", "Z", "qn", 0),
            ("qn", "c", "I", "qn", 0),
            ("qn", "d", "I", "qp", -1),
        ],
        [["qp"]],
    )


@pytest.fixture(scope="session")
def a1():
    return a1_machine()


@pytest.fixture(scope="session")
def a_all():
    return a_all_machine()


@pytest.fixture(scope="session")
def a_none():
    return a_none_machine()


@pytest.fixture(scope="session")
def a_pump():
    return a_pump_machine()


@pytest.fixture(scope="session")
def g_omega():
    return g_omega_machine()


# -- random machine generators -------------------------------------------------


def random_machine(
    rng: random.Random,
    n_states: int = 4,
    n_letters: int = 3,
    counter: bool = True,
    density: float = 0.75,
    max_delta: int = 1,
) -> Mbca:
    """A random well-formed machine; Z-entries mirror I-entries (blindness).

    Deltas are drawn from -1, 0, 0 and 1..max_delta.
    """
    states = [f"q{i}" for i in range(n_states)]
    letters = "abcdefg"[:n_letters]
    deltas = [-1, 0, 0, *range(1, max_delta + 1)]
    transitions = []
    for q in states:
        for a in letters:
            if rng.random() > density:
                continue
            target = rng.choice(states)
            delta = rng.choice(deltas) if counter else 0
            transitions.append((q, a, "I", target, delta))
            if delta >= 0 and rng.random() < 0.8:
                transitions.append((q, a, "Z", target, delta))
    family = []
    subsets = []
    for bits in range(1, 1 << n_states):
        subsets.append([states[i] for i in range(n_states) if bits >> i & 1])
    for subset in subsets:
        if rng.random() < 0.25:
            family.append(subset)
    return validate("rnd", letters, states, states[0], transitions, family)


def random_counter_free(rng: random.Random, n_states: int = 3, n_letters: int = 2) -> Mbca:
    states = [f"q{i}" for i in range(n_states)]
    letters = "ab"[:n_letters]
    transitions = []
    for q in states:
        for a in letters:
            if rng.random() < 0.8:
                target = rng.choice(states)
                transitions.append((q, a, "Z", target, 0))
                transitions.append((q, a, "I", target, 0))
    family = []
    for bits in range(1, 1 << n_states):
        if rng.random() < 0.3:
            family.append([states[i] for i in range(n_states) if bits >> i & 1])
    return validate("cf_rnd", letters, states, states[0], transitions, family)


# -- brute-force oracles ---------------------------------------------------------


def bfs_reach_oracle(machine: Mbca, start, cap: int = 64) -> dict[str, set[int]]:
    """Plain configuration BFS with counters capped; the reach() oracle."""
    table = {}
    for t in machine.transitions:
        table[(t.source, t.letter, t.level)] = (t.target, t.delta)
    seen = {(start.state, start.counter)}
    frontier = [(start.state, start.counter)]
    while frontier:
        nxt = []
        for state, counter in frontier:
            level = "Z" if counter == 0 else "I"
            for a in machine.alphabet:
                move = table.get((state, a, level))
                if move is None:
                    continue
                succ = (move[0], counter + move[1])
                if 0 <= succ[1] <= cap and succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
    out: dict[str, set[int]] = {}
    for state, counter in seen:
        out.setdefault(state, set()).add(counter)
    return out


def lasso_inf_set(machine: Mbca, config, period) -> frozenset | None:
    """Inf of the run from ``config`` on ``period`` repeated, None when it blocks.

    Independent simulator: a boundary state recurring with a non-decreasing
    counter pins the repeating window (the counter is blind, so the window
    replays shifted forever); Inf is the union of the window's rounds.
    """
    table = {}
    for t in machine.transitions:
        table[(t.source, t.letter, t.level)] = (t.target, t.delta)
    state, counter = config
    by_state: dict[str, list[tuple[int, int]]] = {}  # state -> (round, counter)
    segs: list[list[str]] = []
    for round_idx in range(4096):
        for prev_round, prev_counter in by_state.get(state, ()):
            if counter >= prev_counter:
                window: set[str] = set()
                for seg in segs[prev_round:]:
                    window.update(seg)
                return frozenset(window)
        by_state.setdefault(state, []).append((round_idx, counter))
        seg = []
        for a in period:
            level = "Z" if counter == 0 else "I"
            move = table.get((state, a, level))
            if move is None:
                return None
            state, counter = move[0], counter + move[1]
            seg.append(state)
        segs.append(seg)
    raise AssertionError("lasso oracle failed to terminate")


def brute_force_inf_sets(machine: Mbca, max_u: int = 6, max_v: int = 6) -> set[frozenset]:
    """Every Inf set realized by some u.v^omega within the size box."""
    table = {}
    for t in machine.transitions:
        table[(t.source, t.letter, t.level)] = (t.target, t.delta)
    configs = {(machine.initial, 0)}
    frontier = list(configs)
    for _ in range(max_u):
        nxt = []
        for state, counter in frontier:
            level = "Z" if counter == 0 else "I"
            for a in machine.alphabet:
                move = table.get((state, a, level))
                if move is None:
                    continue
                succ = (move[0], counter + move[1])
                if succ not in configs:
                    configs.add(succ)
                    nxt.append(succ)
        frontier = nxt

    periods: list[tuple] = []
    alphabet = list(machine.alphabet)
    stack = [()]
    while stack:
        word = stack.pop()
        if word:
            periods.append(word)
        if len(word) < max_v:
            stack.extend(word + (a,) for a in alphabet)

    found: set[frozenset] = set()
    for config in configs:
        for period in periods:
            inf = lasso_inf_set(machine, config, period)
            if inf is not None:
                found.add(inf)
    return found


# -- language-preserving state duplication -----------------------------------------


def duplicate_state(machine: Mbca, target: str, rng: random.Random) -> Mbca:
    """Split one state in two, divide the incoming letters arbitrarily, and
    lift the accept family to every consistent variant; the language is kept."""
    twin_a, twin_b = f"{target}.0", f"{target}.1"
    states = [q for q in machine.states if q != target] + [twin_a, twin_b]

    choice_cache: dict[tuple[str, str], str] = {}

    def retarget(source, letter, old_target):
        if old_target != target:
            return old_target
        key = (source, letter)
        if key not in choice_cache:
            choice_cache[key] = rng.choice([twin_a, twin_b])
        return choice_cache[key]

    transitions = []
    for t in machine.transitions:
        sources = [twin_a, twin_b] if t.source == target else [t.source]
        for src in sources:
            transitions.append(
                Transition(src, t.letter, t.level, retarget(src, t.letter, t.target), t.delta)
            )
    family = []
    for member in machine.accept_family:
        if target not in member:
            family.append(sorted(member))
            continue
        rest = sorted(member - {target})
        family.append(rest + [twin_a])
        family.append(rest + [twin_b])
        family.append(rest + [twin_a, twin_b])
    initial = twin_a if machine.initial == target else machine.initial
    return validate(machine.name + "_dup", machine.alphabet, states, initial, transitions, family)
