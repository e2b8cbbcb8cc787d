"""Deterministic realtime blind one-counter machines with Muller acceptance.

The pushdown alphabet is fixed to {Z0, I} and a store word I^n Z0 is kept as
the integer n.  Transitions are tabulated per (state, letter, level), where
level "Z" applies when the counter is zero and "I" when it is positive.
Blindness means every Z-level entry is mirrored verbatim at I-level, so the
machine can never observe its counter; the converse may fail, which is how a
run blocks at zero level.

A machine is compiled twice, lazily and once per instance: ``Mbca.moves``
indexes states and splits edges by level for the searches, and
``Mbca.step_table`` gives each state one row per level, letter ->
(target, delta), for runs, ``Mbca.entry`` and :func:`step`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

LEVEL_ZERO = "Z"
LEVEL_POS = "I"
LEVELS = (LEVEL_ZERO, LEVEL_POS)


class Transition(NamedTuple):
    source: str
    letter: str
    level: str
    target: str
    delta: int


class Configuration(NamedTuple):
    state: str
    counter: int


@dataclass(frozen=True)
class Violation:
    """One broken well-formedness rule, anchored at the offending table entry."""

    # BlindnessViolation | DeltaOutOfRange | NondeterministicEntry | DanglingReference
    # | DuplicateName (a state or letter declared twice)
    rule: str
    detail: str
    where: tuple | None = None


class MbcaError(Exception):
    """Base class for errors raised by this package."""


class InvalidMachine(MbcaError):
    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = "; ".join(f"{v.rule}: {v.detail}" for v in violations)
        super().__init__(f"machine is not a valid MBCA ({lines})")


Edge = tuple[str, int, int]  # (letter, target index, delta)
StepRow = dict[str, tuple[str, int]]  # one state's moves at one level: letter -> (target, delta)


class Moves(NamedTuple):
    """The machine compiled for traversal, the one place transitions are split by level.

    ``zero[s]`` and ``pos[s]`` list state ``s``'s Z-level and I-level edges in
    ``transitions`` order, so every search over them visits successors in
    the same order and finds the same witnesses.
    """

    index: dict[str, int]  # state name -> position in ``states``
    zero: tuple[tuple[Edge, ...], ...]
    pos: tuple[tuple[Edge, ...], ...]
    dplus: int  # the largest positive delta, 0 if none


def closure(seed: int, within, adj: dict[int, set[int]]) -> set[int]:
    """The states of ``within`` reachable from ``seed`` by edges inside ``within``."""
    seen = {seed}
    frontier = [seed]
    while frontier:
        for w in adj.get(frontier.pop(), ()):
            if w in within and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def reverse(adj: dict[int, set[int]]) -> dict[int, set[int]]:
    radj: dict[int, set[int]] = {}
    for v, targets in adj.items():
        for w in targets:
            radj.setdefault(w, set()).add(v)
    return radj


def sccs(nodes: Iterable[int], adj: dict[int, set[int]]) -> Iterator[set[int]]:
    """The SCCs of ``adj`` over ``nodes``, each the forward and backward closure
    of the least node not yet placed (a path inside an SCC never leaves it)."""
    radj = reverse(adj)
    left = set(nodes)
    while left:
        seed = min(left)
        scc = closure(seed, left, adj) & closure(seed, left, radj)
        left -= scc
        yield scc


def potentials(subset: set[int] | frozenset[int], arcs: list[tuple[int, int, int]]):
    """Bellman–Ford shortest-path potentials from a virtual source joined to
    every state, and whether a negative cycle makes them undefined."""
    dist = dict.fromkeys(subset, 0)
    for _ in subset:
        changed = False
        for s, t, d in arcs:
            if dist[s] + d < dist[t]:
                dist[t] = dist[s] + d
                changed = True
        if not changed:
            return dist, False
    return dist, True


def credit(subset: set[int] | frozenset[int], arcs: list[tuple[int, int, int]]) -> dict[int, int]:
    """Per state q of F, the least counter from which a walk on ``arcs`` that
    stays >= 1 climbs forever; meaningful when F is strongly connected and has
    a positive cycle.

    A one-player energy fixpoint (Bouyer, Fahrenberg, Larsen, Markey & Srba,
    FORMATS 2008).  Let up and down be the largest rise and fall of one step on
    F's arcs (q, t, d).  Starting from need = T at every state, relaxing
    need[q] = min(need[q], max(1, need[t] - d)) until nothing changes gives,
    per state, the least counter from which a walk staying >= 1 reaches
    counter T.  With T = (2|F| - 1) * down + H and H = |F| * up + 1, that is
    the least counter from which it climbs forever:
    - the credit bound: the answer is at most (2|F| - 1) * down + 1 < T,
      because from q a simple path to a positive simple cycle, and then that
      cycle, each take fewer than |F| steps, and that credit runs the path and
      then the cycle forever;
    - the height H: a walk from below the credit bound that reaches T gains
      more than |F| * up, so it sets more than |F| new maxima and two of them
      are at one state.  The segment between them gains and stays >= 1, so
      pumping it climbs forever, and the walk started at the answer or above.
    """
    up = max(0, max(d for _, _, d in arcs))
    down = max(0, -min(d for _, _, d in arcs))
    need = dict.fromkeys(subset, (2 * len(subset) - 1) * down + len(subset) * up + 1)
    changed = True
    while changed:
        changed = False
        for q, t, d in arcs:
            gained = need[t] - d  # need[q] becomes max(1, gained) if that is lower
            if gained < need[q] and need[q] > 1:
                need[q] = max(1, gained)
                changed = True
    return need


@dataclass(frozen=True)
class Mbca:
    """A Muller blind one-counter automaton.

    Immutable after construction; build through :func:`validate` (or
    :func:`parse_machine`) so the determinism, delta-range and blindness
    rules are enforced.
    """

    name: str
    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...]
    accept_family: frozenset[frozenset[str]]

    def initial_configuration(self) -> Configuration:
        return Configuration(self.initial, 0)

    def max_positive_delta(self) -> int:
        return self.moves.dplus

    def entry(self, state: str, letter: str, level: str) -> tuple[str, int] | None:
        zero, pos = self.step_table
        row = (zero if level == LEVEL_ZERO else pos).get(state)
        return None if row is None else row.get(letter)

    @cached_property
    def step_table(self) -> tuple[dict[str, StepRow], dict[str, StepRow]]:
        """(zero, pos): state -> its row, letter -> (target, delta), one table per level.

        Every state has a row at both levels, empty where it has no move, so a
        run reads a letter with two plain lookups and builds no key.  Built
        once per instance, outside the compared and hashed fields."""
        zero: dict[str, StepRow] = {q: {} for q in self.states}
        pos: dict[str, StepRow] = {q: {} for q in self.states}
        for t in self.transitions:
            (zero if t.level == LEVEL_ZERO else pos)[t.source][t.letter] = (t.target, t.delta)
        return zero, pos

    @cached_property
    def moves(self) -> Moves:
        index = {q: i for i, q in enumerate(self.states)}
        zero: list[list[Edge]] = [[] for _ in self.states]
        pos: list[list[Edge]] = [[] for _ in self.states]
        for t in self.transitions:
            bucket = zero if t.level == LEVEL_ZERO else pos
            bucket[index[t.source]].append((t.letter, index[t.target], t.delta))
        dplus = max((t.delta for t in self.transitions if t.delta > 0), default=0)
        return Moves(index, tuple(map(tuple, zero)), tuple(map(tuple, pos)), dplus)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # every memo lookup hashes the machine; the fields never change, so
        # the walk over every transition is paid once per instance
        return hash(
            (self.name, self.alphabet, self.states, self.initial, self.transitions, self.accept_family)
        )


T = TypeVar("T")

MEMO_MACHINES = 64
_memo: dict[Mbca, dict] = {}


def memo(machine: Mbca, key, build: Callable[[], T]) -> T:
    """The one process-wide cache of what is derived from a machine value.

    Entries are keyed by the machine's value, not its identity, so a machine
    parsed twice, or a derived machine rebuilt by a later derivation, shares
    the work done for an equal one.  Each machine's entry maps a key to the
    cycle summaries, the reach analysis from each start configuration, the
    backward edges, the cover table of each target, the pump credits, the
    loop descriptors, the ``Analyzer`` of each threshold map and the Wadge
    name.

    The bound counts machines.  Naming a machine touches it plus one derived
    machine per E block of its name; naming every gallery-box spec and
    ``machines/`` file in one process touches 44 machines.  So
    ``MEMO_MACHINES`` keeps such a working set whole, while a process that
    streams many distinct machines keeps only the newest ones: the oldest
    machine's entry goes first.  Reach analyses keep one bitset per state and
    cover tables one number per state, so an entry stays small.  Measured with
    ``tracemalloc`` as the memory freed by clearing the cache after a cold
    ``wadge_name``: 0.018 MB for ``A1`` (1 analysis), 0.07 MB for ``C_2^w*2``
    (1) and 0.23 MB for ``E_2^w*2`` and its derived machine (22).  So the
    bound limits how many machines are remembered, not bytes.
    """
    slot = _memo.get(machine)
    if slot is None:
        if len(_memo) >= MEMO_MACHINES:
            del _memo[next(iter(_memo))]
        slot = _memo[machine] = {}
    if key not in slot:
        slot[key] = build()
    return slot[key]


def check(
    name: str,
    alphabet: Iterable[str],
    states: Iterable[str],
    initial: str,
    transitions: Iterable[Transition],
    accept_family: Iterable[Iterable[str]],
) -> list[Violation]:
    """Collect every violated well-formedness rule of a candidate machine."""
    alphabet = tuple(alphabet)
    states = tuple(states)
    transitions = tuple(Transition(*t) for t in transitions)
    violations: list[Violation] = []
    state_set, letter_set = set(states), set(alphabet)
    for kind, names in (("state", states), ("letter", alphabet)):
        for x, count in Counter(names).items():
            if count > 1:
                violations.append(Violation("DuplicateName", f"{kind} {x!r} declared {count} times"))

    seen: dict[tuple[str, str, str], Transition] = {}
    for t in transitions:
        key = (t.source, t.letter, t.level)
        if key in seen and seen[key] != t:
            violations.append(
                Violation("NondeterministicEntry", f"two entries for {key}", key)
            )
        seen[key] = t
        if t.level not in LEVELS:
            violations.append(Violation("DanglingReference", f"unknown level {t.level!r}", key))
            continue
        if t.level == LEVEL_ZERO and t.delta < 0:
            violations.append(
                Violation("DeltaOutOfRange", f"Z-level delta {t.delta} < 0 at {key}", key)
            )
        if t.level == LEVEL_POS and t.delta < -1:
            violations.append(
                Violation("DeltaOutOfRange", f"I-level delta {t.delta} < -1 at {key}", key)
            )
        for q in (t.source, t.target):
            if q not in state_set:
                violations.append(Violation("DanglingReference", f"unknown state {q!r}", key))
        if t.letter not in letter_set:
            violations.append(Violation("DanglingReference", f"unknown letter {t.letter!r}", key))

    table = {k: (t.target, t.delta) for k, t in seen.items()}
    for (q, a, level), move in table.items():
        if level == LEVEL_ZERO:
            if table.get((q, a, LEVEL_POS)) != move:
                violations.append(
                    Violation(
                        "BlindnessViolation",
                        f"Z-entry for ({q}, {a}) lacks an identical I-entry",
                        (q, a, LEVEL_ZERO),
                    )
                )

    if initial not in state_set:
        violations.append(Violation("DanglingReference", f"initial state {initial!r} unknown"))
    for member in accept_family:
        for q in member:
            if q not in state_set:
                violations.append(
                    Violation("DanglingReference", f"accept set mentions unknown state {q!r}")
                )
    return violations


def validate(
    name: str,
    alphabet: Iterable[str],
    states: Iterable[str],
    initial: str,
    transitions: Iterable[Transition | tuple],
    accept_family: Iterable[Iterable[str]],
) -> Mbca:
    """Build a machine, raising :class:`InvalidMachine` with the full report on failure."""
    transitions = tuple(sorted(Transition(*t) for t in transitions))
    violations = check(name, alphabet, states, initial, transitions, accept_family)
    if violations:
        raise InvalidMachine(violations)
    return Mbca(
        name=name,
        alphabet=tuple(alphabet),
        states=tuple(states),
        initial=initial,
        transitions=transitions,
        accept_family=frozenset(frozenset(f) for f in accept_family),
    )


def step(machine: Mbca, config: Configuration, letter: str) -> Configuration | None:
    """Apply one input letter; ``None`` means the run blocks (a legal outcome)."""
    level = LEVEL_ZERO if config.counter == 0 else LEVEL_POS
    move = machine.entry(config.state, letter, level)
    if move is None:
        return None
    target, delta = move
    return Configuration(target, config.counter + delta)


# --- bit-exact text format -------------------------------------------------
#
#   mbca <name>
#   alphabet <letter>+
#   states <state>+
#   initial <state>
#   accept { <state>* }            # one line per accept-family member
#   trans <state> <letter> <Z|I> <state> <signed-int>


def parse_machine(text: str) -> Mbca:
    name = ""
    alphabet: list[str] = []
    states: list[str] = []
    initial = ""
    accept: list[list[str]] = []
    transitions: list[Transition] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if directive == "mbca":
            if len(args) != 1:
                raise InvalidMachine([Violation("DanglingReference", f"line {lineno}: bad mbca line")])
            name = args[0]
        elif directive == "alphabet":
            alphabet.extend(args)
        elif directive == "states":
            states.extend(args)
        elif directive == "initial":
            if len(args) != 1:
                raise InvalidMachine([Violation("DanglingReference", f"line {lineno}: bad initial line")])
            initial = args[0]
        elif directive == "accept":
            if not args or args[0] != "{" or args[-1] != "}":
                raise InvalidMachine([Violation("DanglingReference", f"line {lineno}: accept needs {{ }}")])
            accept.append(args[1:-1])
        elif directive == "trans":
            if len(args) != 5:
                raise InvalidMachine([Violation("DanglingReference", f"line {lineno}: bad trans line")])
            src, letter, level, dst, delta = args
            try:
                d = int(delta)
            except ValueError:
                raise InvalidMachine(
                    [Violation("DeltaOutOfRange", f"line {lineno}: bad delta {delta!r}")]
                ) from None
            transitions.append(Transition(src, letter, level, dst, d))
        else:
            raise InvalidMachine(
                [Violation("DanglingReference", f"line {lineno}: unknown directive {directive!r}")]
            )
    return validate(name or "machine", alphabet, states, initial, transitions, accept)


def _fmt_delta(d: int) -> str:
    return f"+{d}" if d > 0 else str(d)


def emit_machine(machine: Mbca) -> str:
    lines = [f"mbca {machine.name}"]
    lines.append("alphabet " + " ".join(machine.alphabet))
    lines.append("states " + " ".join(machine.states))
    lines.append(f"initial {machine.initial}")
    order = {q: i for i, q in enumerate(machine.states)}
    for member in sorted(machine.accept_family, key=lambda f: sorted(order[q] for q in f)):
        lines.append("accept { " + " ".join(sorted(member, key=order.get)) + " }")
    for t in machine.transitions:
        lines.append(
            f"trans {t.source} {t.letter} {t.level} {t.target} {_fmt_delta(t.delta)}"
        )
    return "\n".join(lines) + "\n"
