"""Derivation, recursive Wadge names, name comparison, and ordinal ranks.

A non-prime machine is derived: keep the states from which positive and
negative maximal superchains both stay reachable, with per-state counter
thresholds marking the least counter that preserves the choice; the residual
analysis keeps only loops whose anchors are reachable at or above their
threshold.  The recursion strictly shrinks the maximal chain length, and the
resulting name E_{m1}^{a1} ... H_{mk+1}^{ak+1} (H in {C, D}, or a bare E
terminal) is compared blockwise: equal index prefixes, then either the
shorter name ends compatibly or the first divergent block decides by (m, a).
A ``WadgeName`` is validated once, when it is built, so comparing and ranking
names check nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .automaton import Mbca, MbcaError, memo
from .hierarchy import Analyzer, OrdinalW2, analyzer_for, parse_ordinal
from .reachability import min_counter_to


class NotDerivable(MbcaError):
    pass


class MalformedName(MbcaError):
    pass


class NameBlock(NamedTuple):
    letter: str  # C | D | E
    m: int
    alpha: OrdinalW2


BlockKey = tuple[str, tuple[int, int, int]]  # (letter, (m, alpha.p, alpha.s))


@dataclass(frozen=True)
class WadgeName:
    """Blocks with strictly decreasing m; only the last may be C or D.

    A name whose blocks are empty, or whose last letter is E, is bare-E
    terminated (the recursion bottomed out in a loop-free residual).
    Construction validates the blocks with :func:`check_name`, so every
    ``WadgeName`` is well formed, and builds ``keys``, the blocks as plain
    tuples whose order is the (m, alpha) order :func:`compare` uses.
    """

    blocks: tuple[NameBlock, ...]
    keys: tuple[BlockKey, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_name(self)
        keys = tuple((b.letter, (b.m, b.alpha.p, b.alpha.s)) for b in self.blocks)
        object.__setattr__(self, "keys", keys)

    @property
    def terminal_bare_e(self) -> bool:
        return not self.blocks or self.blocks[-1].letter == "E"

    def render(self) -> str:
        parts = [f"{b.letter}_{b.m}^{b.alpha.render()}" for b in self.blocks]
        if self.terminal_bare_e:
            parts.append("E")
        return " ".join(parts)


_ONE = OrdinalW2(0, 1)


def check_name(name: WadgeName) -> None:
    prev_m = None
    for i, block in enumerate(name.blocks):
        if block.letter not in ("C", "D", "E"):
            raise MalformedName(f"bad letter {block.letter!r}")
        if block.letter in ("C", "D") and i != len(name.blocks) - 1:
            raise MalformedName("C/D allowed only in the final block")
        if block.m < 1:
            raise MalformedName("block m must be positive")
        if prev_m is not None and block.m >= prev_m:
            raise MalformedName("block m values must strictly decrease")
        if block.alpha < _ONE:
            raise MalformedName("indexed blocks need alpha >= 1")
        prev_m = block.m


def parse_name(text: str) -> WadgeName:
    blocks: list[NameBlock] = []
    tokens = text.split()
    if not tokens:
        raise MalformedName("empty name")
    for i, token in enumerate(tokens):
        if token == "E" and "_" not in token:
            if i != len(tokens) - 1:
                raise MalformedName("bare E must be terminal")
            break
        try:
            letter, rest = token.split("_", 1)
            m_text, alpha_text = rest.split("^", 1)
            blocks.append(NameBlock(letter, int(m_text), parse_ordinal(alpha_text)))
        except (ValueError, IndexError):
            raise MalformedName(f"bad block {token!r}") from None
    return WadgeName(tuple(blocks))


# -- derivation ----------------------------------------------------------------


@dataclass(frozen=True)
class DerivationContext:
    sub_states: tuple[str, ...]
    thresholds: dict[str, int]
    machine: Mbca  # the restricted automaton


def _superchain_entries(analyzer: Analyzer):
    """Per sign, the (state, floor) options whose reachability means the sign's
    maximal superchains stay reachable."""
    return {
        sign: {(d.anchor, analyzer.operating_min(d)) for d in loops}
        for sign, loops in analyzer.superchain_entry_options().items()
    }


def derive(machine: Mbca, analyzer: Analyzer | None = None) -> DerivationContext:
    """Restrict to states keeping both superchain signs reachable, with thresholds."""
    analyzer = analyzer or analyzer_for(machine)
    inv = analyzer.invariants()
    if inv.s != 0:
        raise NotDerivable(f"machine is prime (s = {inv.s:+d})")
    entries = _superchain_entries(analyzer)

    def pred_for(options):
        return lambda rs: any(rs.at(q).has_value_at_least(f) for q, f in options)

    floor_cap = max((f for opts in entries.values() for _, f in opts), default=0)
    counters = min_counter_to(
        machine,
        [pred_for(entries["positive"]), pred_for(entries["negative"])],
        extra_cap=floor_cap,
    )
    sub_states = tuple(q for q in machine.states if counters[q] is not None)
    keep = set(sub_states)
    if machine.initial not in keep:
        raise MbcaError("internal error: derivation dropped the initial state, which keeps both options")
    transitions = tuple(
        t for t in machine.transitions if t.source in keep and t.target in keep
    )
    # blind twins share their target, so the restriction cannot break blindness
    restricted = Mbca(
        name=machine.name + "'",
        alphabet=machine.alphabet,
        states=sub_states,
        initial=machine.initial,
        transitions=transitions,
        accept_family=frozenset(
            f for f in machine.accept_family if f <= keep
        ),
    )
    new_thresholds = {
        q: max(analyzer.threshold(q), counters[q]) for q in sub_states
    }
    return DerivationContext(sub_states, new_thresholds, restricted)


def wadge_name(machine: Mbca) -> WadgeName:
    """The recursive name; each derivation strictly decreases m."""
    return memo(machine, "name", lambda: _name_of(machine))


def _name_of(machine: Mbca) -> WadgeName:
    analyzer = analyzer_for(machine)
    blocks: list[NameBlock] = []
    while True:
        inv = analyzer.invariants()
        if inv.m == 0:
            break  # loop-free residual: bare E terminal
        if inv.s == 1:
            blocks.append(NameBlock("C", inv.m, inv.n))
            break
        if inv.s == -1:
            blocks.append(NameBlock("D", inv.m, inv.n))
            break
        blocks.append(NameBlock("E", inv.m, inv.n))
        ctx = derive(analyzer.machine, analyzer)
        analyzer = analyzer_for(ctx.machine, ctx.thresholds)
        if analyzer.invariants().m >= inv.m:
            raise MbcaError(f"internal error: derivation did not shrink m = {inv.m}")
    return WadgeName(tuple(blocks))


# -- comparison ------------------------------------------------------------------


def _leq(a: tuple[BlockKey, ...], b: tuple[BlockKey, ...]) -> bool:
    """One direction of the blockwise order on names, read off their keys."""
    ka, kb = len(a), len(b)
    if ka == 0:
        return True  # lone E sits below everything
    common, shorter = 0, min(ka, kb)
    while common < shorter and a[common][1] == b[common][1]:
        common += 1
    # a exhausted within b, letters compatible at a's last position
    if common == ka:
        b_letter = b[ka - 1][0]
        if b_letter == "E" or a[-1][0] == b_letter:
            return True
    # first divergent indexed position decides: (m, p, s) in lexicographic order
    return common < shorter and a[common][1] < b[common][1]


def compare(a: WadgeName, b: WadgeName) -> str:
    """``less``, ``greater``, ``equivalent``, or ``dual``."""
    ka, kb = a.keys, b.keys
    forward, backward = _leq(ka, kb), _leq(kb, ka)
    if forward and backward:
        return "equivalent"
    if forward:
        return "less"
    if backward:
        return "greater"
    if (
        ka
        and kb
        and ka[:-1] == kb[:-1]
        and ka[-1][1] == kb[-1][1]
        and {ka[-1][0], kb[-1][0]} == {"C", "D"}
    ):
        return "dual"
    raise MbcaError(
        f"names {a.render()!r} and {b.render()!r} are incomparable and not dual; "
        "this cannot happen for names of actual machines"
    )


# -- ordinal rank -----------------------------------------------------------------


@dataclass(frozen=True)
class CnfOrdinal:
    """Ordinal below omega^omega in Cantor normal form, exponents decreasing."""

    terms: tuple[tuple[int, int], ...]  # (exponent, coefficient)

    def key(self):
        return tuple((-e, c) for e, c in self.terms)

    def __lt__(self, other: "CnfOrdinal") -> bool:
        for (ea, ca), (eb, cb) in zip(self.terms, other.terms):
            if ea != eb:
                return ea < eb
            if ca != cb:
                return ca < cb
        return len(self.terms) < len(other.terms)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            else:
                base = "w" if e == 1 else f"w^{e}"
                parts.append(base if c == 1 else f"{base}*{c}")
        return "+".join(parts)


def degree_rank(name: WadgeName) -> CnfOrdinal:
    """A rank below omega^omega, order-compatible with compare on C/D names.

    Block (letter, m, omega*p + s) contributes omega^(2m-1)*p + omega^(2m-2)*s;
    m=1 names land below omega^2 and the whole image sits below omega^omega.
    """
    terms: list[tuple[int, int]] = []
    for block in name.blocks:
        if block.alpha.p:
            terms.append((2 * block.m - 1, block.alpha.p))
        if block.alpha.s:
            terms.append((2 * block.m - 2, block.alpha.s))
    merged: dict[int, int] = {}
    for e, c in terms:
        merged[e] = merged.get(e, 0) + c
    return CnfOrdinal(tuple(sorted(merged.items(), reverse=True)))
