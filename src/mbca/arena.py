"""Wadge games between two machines with pluggable strategy transducers.

Player 1 writes letters of the left machine's alphabet, player 2 answers
with letters of the right machine's alphabet or skips; player 2 wins when the
two produced words agree on membership, with the second word required to be
infinite.  Strategies are finite-state tables (optionally carrying a blind
counter, which by blindness cannot influence behavior and is bookkeeping
only).  A play is driven until the joint strategy state repeats at a
player-1 turn boundary, which closes both emission streams into ultimately
periodic words; the verdict is then decided by the membership oracle.
A tournament hands its plays one verdict memo keyed by (machine, word), so a
word that many plays produce is simulated once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automaton import Mbca, MbcaError
from .semantics import UPWord, member

START = "start"
SKIP = "skip"


class NoPeriodicClosure(MbcaError):
    pass


class SkipBudgetExhausted(MbcaError):
    pass


@dataclass(frozen=True)
class Strategy:
    """Deterministic transducer: (state, input token) -> (emit, state, counter delta).

    Player 1 consumes ``start`` then the opponent's emissions (letters or
    ``skip``) and always emits a letter; player 2 consumes the opponent's
    letters and may emit ``skip``.
    """

    name: str
    role: int  # 1 | 2
    initial: str
    rules: dict[tuple[str, str], tuple[str, str, int]]

    def states(self) -> set[str]:
        out = {self.initial}
        for (state, _), (_, nxt, _) in self.rules.items():
            out.add(state)
            out.add(nxt)
        return out

    def emit(self, state: str, token: str) -> tuple[str, str, int]:
        rule = self.rules.get((state, token))
        if rule is None:
            raise MbcaError(f"strategy {self.name!r} has no rule for ({state}, {token})")
        return rule


@dataclass(frozen=True)
class PlayRecord:
    a_word: UPWord
    b_word: UPWord | None  # None when player 2 eventually always skips
    verdict: str  # player1wins | player2wins


def copycat(alphabet, name: str = "copycat") -> Strategy:
    """Echo the opponent's previous letter (role 2)."""
    rules = {}
    for letter in alphabet:
        rules[("idle", letter)] = (letter, "idle", 0)
    return Strategy(name, 2, "idle", rules)


def constant_word(word: UPWord, opponent_alphabet, name: str = "constant") -> Strategy:
    """Emit a fixed ultimately periodic word regardless of the opponent (role 2)."""
    letters = list(word.prefix) + list(word.period)
    loop_to = len(word.prefix)
    rules = {}
    for i, letter in enumerate(letters):
        nxt = i + 1 if i + 1 < len(letters) else loop_to
        for token in opponent_alphabet:
            rules[(f"s{i}", token)] = (letter, f"s{nxt}", 0)
    return Strategy(name, 2, "s0", rules)


def table_player1(emissions: dict[str, str], name: str = "p1") -> Strategy:
    """One-state player-1 table: input token -> emitted letter."""
    keys, moves = _table_parts(emissions, emissions.values())
    return Strategy(name, 1, "s", dict(zip(keys, moves)))


def _table_parts(tokens, letters) -> tuple[list[tuple[str, str]], list[tuple[str, str, int]]]:
    """The rule format of :func:`table_player1`, whose one state is ``s``: the
    key that reads each token, and the move that emits each letter."""
    return [("s", token) for token in tokens], [(letter, "s", 0) for letter in letters]


Verdicts = dict[tuple[Mbca, UPWord], bool]  # (machine, word) -> member(machine, word)


def _judge(machine: Mbca, word: UPWord, verdicts: Verdicts) -> bool:
    key = (machine, word)
    verdict = verdicts.get(key)
    if verdict is None:
        verdict = verdicts[key] = member(machine, word)
    return verdict


def play(
    a_machine: Mbca,
    b_machine: Mbca,
    s1: Strategy,
    s2: Strategy,
    horizon: int = 10_000,
    *,
    verdicts: Verdicts | None = None,
) -> PlayRecord:
    """Run the alternation until both emission streams close into UP words.

    ``verdicts`` memoizes membership by (machine, word) across plays, so a
    word met again is judged once; ``None`` starts a memo for this play
    alone.  The record is the same either way."""
    if s1.role != 1 or s2.role != 2:
        raise MbcaError("play needs a role-1 and a role-2 strategy, in that order")
    verdicts = {} if verdicts is None else verdicts
    rules1, rules2 = s1.rules, s2.rules
    a_alphabet, b_alphabet = a_machine.alphabet, b_machine.alphabet
    skip_budget = None  # read only after a skip, so counted at the first one
    state1, state2 = s1.initial, s2.initial
    a_letters: list[str] = []  # one letter per turn, so turn t starts at a_letters[t]
    b_letters: list[str] = []
    b_marks: list[int] = []  # len(b_letters) at the start of each turn
    token_for_1 = START
    # the pending token is part of the joint state: player 1's next move reads it
    seen: dict[tuple[str, str, str], int] = {}  # joint state -> the turn it began
    consecutive_skips = 0
    for turn in range(horizon):
        key = (state1, state2, token_for_1)
        a_mark = seen.get(key)
        if a_mark is not None:
            b_mark = b_marks[a_mark]
            a_word = UPWord(tuple(a_letters[:a_mark]), tuple(a_letters[a_mark:]))
            b_period = tuple(b_letters[b_mark:])
            if not b_period:
                return PlayRecord(a_word, None, "player1wins")
            b_word = UPWord(tuple(b_letters[:b_mark]), b_period)
            ok = _judge(a_machine, a_word, verdicts) == _judge(b_machine, b_word, verdicts)
            return PlayRecord(a_word, b_word, "player2wins" if ok else "player1wins")
        seen[key] = turn
        b_marks.append(len(b_letters))

        # a rule is a nonempty tuple; emit is reached only to raise for a missing one
        a_letter, state1, _ = rules1.get((state1, token_for_1)) or s1.emit(state1, token_for_1)
        if a_letter not in a_alphabet:
            raise MbcaError(f"player 1 emitted {a_letter!r} outside the left alphabet")
        a_letters.append(a_letter)
        b_token, state2, _ = rules2.get((state2, a_letter)) or s2.emit(state2, a_letter)
        if b_token == SKIP:
            consecutive_skips += 1
            if skip_budget is None:
                skip_budget = 2 ** min(len(s1.states()) * len(s2.states()), 20)
            if consecutive_skips > skip_budget:
                raise SkipBudgetExhausted(
                    f"player 2 skipped {consecutive_skips} consecutive turns"
                )
        else:
            if b_token not in b_alphabet:
                raise MbcaError(f"player 2 emitted {b_token!r} outside the right alphabet")
            consecutive_skips = 0
            b_letters.append(b_token)
        token_for_1 = b_token
    raise NoPeriodicClosure(f"no joint repetition within {horizon} turns")


@dataclass
class TournamentReport:
    """Outcome of one defending strategy against a suite of player-1 tables.

    A clean sheet is evidence for the reduction, never a proof: the suite is
    finite while winning strategies quantify over every opponent.
    """

    defender: str
    plays: int = 0
    losses: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.losses

    def summary(self) -> str:
        status = "no losses" if self.clean else f"{len(self.losses)} losses"
        return (
            f"{self.defender}: {self.plays} plays, {status} "
            "(tournament evidence only, not a proof of reducibility)"
        )


def default_suite(a_alphabet, b_alphabet, limit: int = 512) -> list[Strategy]:
    """Every one-state player-1 table over the two alphabets, capped."""
    tokens = [START, SKIP] + sorted(b_alphabet)
    letters = sorted(a_alphabet)
    total = len(letters) ** len(tokens)
    # each rule key and each move is built once and shared by the whole suite
    keys, moves = _table_parts(tokens, letters)

    def build(index: int) -> Strategy:
        rules = {}
        rest = index
        for key in keys:
            rules[key] = moves[rest % len(moves)]
            rest //= len(moves)
        return Strategy(f"p1#{index}", 1, "s", rules)

    if total <= limit:
        return [build(i) for i in range(total)]
    step = total // limit
    return [build(i * step) for i in range(limit)]


def validate_strategy(
    a_machine: Mbca,
    b_machine: Mbca,
    s2: Strategy,
    suite: list[Strategy] | None = None,
    horizon: int = 10_000,
) -> TournamentReport:
    """Play the defender against every suite member and report the losses.

    The plays share one verdict memo, so each distinct (machine, word) met
    in the tournament is simulated once."""
    if suite is None:
        suite = default_suite(a_machine.alphabet, b_machine.alphabet)
    report = TournamentReport(defender=s2.name)
    verdicts: Verdicts = {}
    for s1 in suite:
        record = play(a_machine, b_machine, s1, s2, horizon=horizon, verdicts=verdicts)
        report.plays += 1
        if record.verdict == "player1wins":
            report.losses.append(s1.name)
    return report


# --- bit-exact strategy text format ------------------------------------------
#
#   strategy <name> role <1|2>
#   state <id> on <letter|start|skip> -> emit <letter|skip> goto <id> [counter <int>]
#
# The first state line names the initial state.


def _integer(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MbcaError(f"line {lineno}: {what} {token!r} is not an integer") from None


def parse_strategy(text: str) -> Strategy:
    name = ""
    role = 0
    initial = ""
    rules: dict[tuple[str, str], tuple[str, str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "strategy":
            if len(tokens) != 4 or tokens[2] != "role":
                raise MbcaError(f"line {lineno}: bad strategy header")
            name, role = tokens[1], _integer(tokens[3], lineno, "role")
        elif tokens[0] == "state":
            if (
                len(tokens) not in (9, 11)
                or tokens[2] != "on"
                or tokens[4] != "->"
                or tokens[5] != "emit"
                or tokens[7] != "goto"
                or (len(tokens) == 11 and tokens[9] != "counter")
            ):
                raise MbcaError(f"line {lineno}: bad state rule")
            state, token, emitted, nxt = tokens[1], tokens[3], tokens[6], tokens[8]
            delta = _integer(tokens[10], lineno, "counter") if len(tokens) == 11 else 0
            if not initial:
                initial = state
            rules[(state, token)] = (emitted, nxt, delta)
        else:
            raise MbcaError(f"line {lineno}: unknown directive {tokens[0]!r}")
    if role not in (1, 2) or not initial:
        raise MbcaError("strategy needs a role header and at least one rule")
    return Strategy(name or "strategy", role, initial, rules)


def emit_strategy(strategy: Strategy) -> str:
    lines = [f"strategy {strategy.name} role {strategy.role}"]
    ordered = sorted(
        strategy.rules.items(), key=lambda kv: (kv[0][0] != strategy.initial, kv[0])
    )
    for (state, token), (emitted, nxt, delta) in ordered:
        line = f"state {state} on {token} -> emit {emitted} goto {nxt}"
        if delta:
            line += f" counter {delta}"
        lines.append(line)
    return "\n".join(lines) + "\n"
