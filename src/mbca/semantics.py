"""Runs on ultimately periodic words, membership, and loop witnesses.

An ultimately periodic word u . v^omega is the decidable carrier for every
membership question here.  The simulator halts when a letter blocks, or at
the first period boundary that repeats an earlier boundary's state with an
equal ("periodic") or higher ("ramp") counter; repeats are only looked for at
boundaries.  A ramp is sound only because blind counters are shift-monotone: a
segment that was valid from a lower counter replays verbatim from any higher
one, so the future of the run is the same state sequence shifted upward.

Runs read ``Mbca.step_table``, one row per state and counter level, so each
letter is a lookup of the state's row and then of the letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .automaton import Configuration, Mbca, MbcaError


class UPWord(NamedTuple):
    prefix: tuple[str, ...]
    period: tuple[str, ...]

    def render(self) -> str:
        return " ".join(self.prefix) + " ; " + " ".join(self.period)


def parse_word(text: str) -> UPWord:
    """Parse the ``u ; v`` syntax with space-separated letters."""
    if ";" not in text:
        raise MbcaError(f"word {text!r} lacks the ';' prefix/period separator")
    u, v = text.split(";", 1)
    period = tuple(v.split())
    if not period:
        raise MbcaError("period must be nonempty")
    return UPWord(tuple(u.split()), period)


class CapExceeded(MbcaError):
    """The provable step bound was exceeded: an implementation bug, not an input."""


@dataclass(frozen=True)
class Outcome:
    kind: str  # blocked | periodic | ramp
    position: int = 0  # blocked: index of the letter that could not be read
    cycle_start: int = 0  # periodic/ramp: position of the anchor boundary
    cycle_len: int = 0  # periodic/ramp: length of the repeating segment
    counter_shift: int = 0  # ramp: counter gain per segment (0 for periodic)


@dataclass(frozen=True)
class RunTrace:
    """A finite prefix of the unique run, long enough to determine its tail.

    ``configs[i]``, built from ``states[i]`` and ``counters[i]`` when read, is
    the configuration before reading letter ``i``; for non-blocked outcomes
    the stored prefix extends two segments past the detected repeat so loop
    witnesses can be re-anchored inside it.
    """

    word: UPWord
    states: tuple[str, ...]
    counters: tuple[int, ...]
    outcome: Outcome
    inf_set: frozenset[str] | None

    @cached_property
    def configs(self) -> tuple[Configuration, ...]:
        return tuple(map(Configuration, self.states, self.counters))


def _feed(table, letters, states: list[str], counters: list[int]) -> tuple[str, int] | None:
    """Read ``letters`` on from the last configuration, appending each one
    reached; ``None`` when a letter blocks.

    ``table`` is ``Mbca.step_table``: every state reached has a row at both
    levels, so each letter costs two dict lookups."""
    zero, pos = table
    state, counter = states[-1], counters[-1]
    for letter in letters:
        move = (pos[state] if counter else zero[state]).get(letter)
        if move is None:
            return None
        state, delta = move
        counter += delta
        states.append(state)
        counters.append(counter)
    return state, counter


def run(machine: Mbca, word: UPWord) -> RunTrace:
    """Simulate until the ultimately periodic tail of the run is decided.

    ``marks`` keeps each state's last boundary that did not halt the run.
    Its counter is below every earlier one of the state, so "some earlier
    counter <= c" is "the mark's counter <= c".  If the run does not block,
    it is the state's only such boundary: a state back at a boundary with a
    lower counter replays the segment between, shifted down, until it blocks.

    ``max_periods`` is never reached.  Up to any boundary before the halt,
    the boundaries whose counter is <= every later one have distinct states
    (else the run halts), the first is at most c_u, and each is at most
    d+ * |v| above the one before.  So no counter before the halt exceeds
    c_u + n * d+ * |v|; a state's marks strictly decrease and stay >= 0, so
    after n * (c_u + n * d+ * |v| + 1) marks the next boundary halts.
    """
    table = machine.step_table
    states, counters = [machine.initial], [0]
    end = _feed(table, word.prefix, states, counters)
    n = len(machine.states)
    max_periods = n * (counters[-1] + n * machine.max_positive_delta() * len(word.period) + 1) + 2
    marks: dict[str, tuple[int, int]] = {}
    for _ in range(max_periods):
        if end is None:
            position = len(states) - 1
            return RunTrace(word, tuple(states), tuple(counters), Outcome("blocked", position), None)
        state, counter = end
        mark = marks.get(state)
        if mark is not None and mark[1] <= counter:
            break
        marks[state] = (len(states) - 1, counter)
        end = _feed(table, word.period, states, counters)
    else:
        raise CapExceeded(f"no repetition within {max_periods} periods")

    start, low = mark
    here = len(states) - 1
    kind = "periodic" if counter == low else "ramp"
    detected = Outcome(kind, cycle_start=start, cycle_len=here - start, counter_shift=counter - low)
    # Two extra segments so extract_loop_witness can re-anchor past the repeat.
    for _ in range(2 * (here - start) // len(word.period)):
        if _feed(table, word.period, states, counters) is None:
            raise MbcaError("internal error: segment replay blocked (shift monotonicity)")
    return RunTrace(word, tuple(states), tuple(counters), detected, frozenset(states[start:here]))


def member(machine: Mbca, word: UPWord) -> bool:
    trace = run(machine, word)
    return trace.outcome.kind != "blocked" and trace.inf_set in machine.accept_family


class LoopWitness(NamedTuple):
    anchor_index: int
    close_index: int
    anchor_state: str
    anchor_counter: int
    visited: frozenset[str]
    kind: str  # plus | equal
    level: str  # Z | I


def extract_loop_witness(trace: RunTrace) -> LoopWitness:
    """Cut one anchored loop out of a non-blocked trace.

    The anchor is the earliest minimal-counter position of the repeating
    segment, so every later explored position carries at least its counter.
    With a positive counter shift the anchor is moved one segment up to keep
    the anchor counter positive (the zero-level case demands equality).
    """
    if trace.outcome.kind == "blocked":
        raise MbcaError("blocked runs have no loop witness")
    start, length = trace.outcome.cycle_start, trace.outcome.cycle_len
    shift = trace.outcome.counter_shift
    seg = range(start, start + length)
    anchor = min(seg, key=lambda i: (trace.configs[i].counter, i))
    if shift > 0 and trace.configs[anchor].counter == 0:
        anchor += length
    close = anchor + length
    visited = frozenset(
        trace.configs[i].state for i in range(anchor, close)
    )
    counter = trace.configs[anchor].counter
    kind = "plus" if shift > 0 else "equal"
    level = "Z" if counter == 0 else "I"
    return LoopWitness(anchor, close, trace.configs[anchor].state, counter, visited, kind, level)
