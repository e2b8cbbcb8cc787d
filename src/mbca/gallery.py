"""Canonical machines for the coarse classes, validated by name round-trips.

A chain gadget of length m is a complete jump graph on m states whose accept
family holds the alternating prefixes; one-way bridges string s of them into
the finite superchain part; an omega unit is a positive and a negative gadget
bridged both ways by counter-decrementing letters and fed by a +1 pump, so
the pumped value meters the alternations; units chain through one-way
pump-refill bridges; an E class branches a fresh start into a positive and a
negative copy, with composite names nesting the tail machine behind the
branch point (tail states keep escape letters to both copies so the residual
analysis sees exactly the tail).

The six specs with m = 1 and a limit length, C/D/E_1^w and C/D/E_1^w*2, are
empty: no machine has invariants m = 1 and n = w*p with p >= 1.  A sketch
against the definitions of ``hierarchy.Analyzer``, assuming what the tests
check of the layers below: essential sets are the Inf sets of runs (loop
completeness), and a reach set has a tail exactly when its counters are
unbounded.  Shifting a run up by t is again a run, because blindness mirrors
every Z entry at I level.  Let k be the number of states.

1. With m = 1 every site has chain length 1, so every site is a maximal site.
2. Take a superchain whose omega part is a chain of links, the first being
   (P, N, dp, dn).  The link needs dp.anchor in ``tail_states(initial)``, so
   the anchor a = dp.anchor is reached with unbounded counters.  The counter
   rises by at most d+ per step, so a run reaching a at a high enough counter
   repeats a state at a higher counter while staying above k in between.
   Between the repeats, some simple cycle C gains.  C has at most k steps and
   is a pump: iterated from a counter above k it never blocks.  Its states
   form an essential set, inside some site S.
3. S is not blocked by ``_prefix_allowed``.  Suppose the ``_seen`` record of
   the source of some link L of the chain operates a loop of S: L reaches an
   anchor of S at its operating counter.  That source, L's positive anchor,
   sits at counter inf, so everything it reaches can be taken higher, and
   every state of L covers the same (``Analyzer.links``).  Hence from L one
   can walk to C above k, pump, follow the run of step 2 to a, walk the loops
   dp and dn of the first link, and follow the link chain back to L.  With
   enough pumps each round gains, so the round iterates forever.  Its Inf
   set contains P and N.  That essential set strictly contains the site P,
   which contradicts P being a maximal essential set.  This covers S = P or
   S = N too.
4. S may end the prefix.  Every anchor of S has a tail, through C, so
   ``loop_source(S)`` is a source at counter inf (arbitrarily high).
   From there at most k steps inside S reach C, and pumping, then the run of
   step 2, reaches a with unbounded counters: a is among the tail states of
   the ``_seen`` record of ``loop_source(S)``, as ``_alternating_paths``
   requires.  (Those tail states are ``reachability.tail_states``, exactly
   the states reached at unboundedly many counters.)
5. So ``_alternating_paths`` keeps at least the one-site path S, and the
   chain gives a superchain of length w*p + s with s >= 1.  Every limit length
   w*p is thus beaten by w*p + 1, and n is never a limit when m = 1.

``_check_spec`` refuses these six specs for that reason.  The argument rests
on the loop and reach layers only through the two properties above; the scan
in ``tests/test_edge_cases.py`` checks it on one family of machines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import Mbca, MbcaError, Transition, validate
from .hierarchy import OrdinalW2
from .naming import NameBlock, WadgeName, parse_name


class UnsupportedSpec(MbcaError):
    pass


@dataclass(frozen=True)
class ClassSpec:
    letter: str  # C | D | E
    m: int
    alpha: OrdinalW2
    tail: "ClassSpec | None" = None

    def induced_name(self) -> WadgeName:
        blocks = [NameBlock(self.letter, self.m, self.alpha)]
        if self.tail is not None:
            tail_blocks = self.tail.induced_name().blocks
            return WadgeName(tuple(blocks) + tail_blocks)
        return WadgeName(tuple(blocks))

    def render(self) -> str:
        return self.induced_name().render()


def parse_class_spec(text: str) -> ClassSpec:
    name = parse_name(text)
    if not name.blocks:
        raise UnsupportedSpec("the bottom class E has no canonical machine spec")

    def convert(blocks) -> ClassSpec:
        head = blocks[0]
        if len(blocks) == 1:
            return ClassSpec(head.letter, head.m, head.alpha)
        return ClassSpec(head.letter, head.m, head.alpha, convert(blocks[1:]))

    return convert(name.blocks)


def _check_spec(spec: ClassSpec, depth: int = 1) -> None:
    if spec.letter not in ("C", "D", "E"):
        raise UnsupportedSpec(f"unknown class letter {spec.letter!r}")
    if not 1 <= spec.m <= 4:
        raise UnsupportedSpec("m outside the desk-scale box [1, 4]")
    if spec.alpha.is_zero() or spec.alpha > OrdinalW2(3, 3):
        raise UnsupportedSpec("alpha outside the desk-scale box (0, w*3+3]")
    if depth > 3:
        raise UnsupportedSpec("recursion deeper than the desk-scale box")
    if spec.m == 1 and spec.alpha.p >= 1 and spec.alpha.s == 0:
        raise UnsupportedSpec(
            "no machine has m=1 with a limit superchain length: the pump that "
            "makes an omega unit's anchors unboundedly reachable is itself an "
            "essential chain of length 1 prefixing the unit, so n >= w*p+1"
        )
    if spec.tail is not None:
        if spec.letter != "E":
            raise UnsupportedSpec("only E blocks take a tail")
        if spec.tail.m >= spec.m:
            raise UnsupportedSpec("tail m must strictly decrease")
        _check_spec(spec.tail, depth + 1)


class _Builder:
    def __init__(self, name: str):
        self.name = name
        self.states: list[str] = []
        self.letters: list[str] = []
        self.transitions: list[Transition] = []
        self.accept: list[frozenset[str]] = []

    def state(self, name: str) -> str:
        if name not in self.states:
            self.states.append(name)
        return name

    def letter(self, name: str) -> str:
        if name not in self.letters:
            self.letters.append(name)
        return name

    def arc(self, src: str, letter: str, dst: str, delta: int, levels=("Z", "I")):
        self.letter(letter)
        for level in levels:
            self.transitions.append(Transition(src, letter, level, dst, delta))

    def build(self, initial: str) -> Mbca:
        return validate(
            self.name, self.letters, self.states, initial, self.transitions, self.accept
        )


def _chain_gadget(b: _Builder, tag: str, m: int, first_sign: str) -> list[str]:
    """Complete jump graph on m states; alternating prefixes in the family."""
    names = [b.state(f"{tag}r{i + 1}") for i in range(m)]
    for src in names:
        for i, dst in enumerate(names):
            b.arc(src, f"j{i + 1}", dst, 0)
    for i in range(1, m + 1):
        positive = (first_sign == "positive") == (i % 2 == 1)
        if positive:
            b.accept.append(frozenset(names[:i]))
    return names


def _pump(b: _Builder, tag: str, positive: bool) -> str:
    pi = b.state(f"{tag}pump")
    b.arc(pi, "u", pi, 1)
    if positive:
        b.accept.append(frozenset([pi]))
    return pi


def _build_prime(b: _Builder, tag: str, letter: str, m: int, alpha: OrdinalW2) -> str:
    """C/D_m^alpha wired into the builder; returns the initial state."""
    class_sign = "positive" if letter == "C" else "negative"
    p, s = alpha.p, alpha.s
    gadgets = []
    sign = class_sign
    for i in range(s):
        gadgets.append(_chain_gadget(b, f"{tag}g{i + 1}.", m, sign))
        sign = "negative" if sign == "positive" else "positive"
    for i in range(s - 1):
        for src in gadgets[i]:
            b.arc(src, f"n{i + 1}", gadgets[i + 1][0], 0)
    if p == 0:
        return gadgets[0][0]

    # pump sign: carries the bare-omega sign when s = 0 (m >= 2 keeps the
    # pump singleton out of the chain structure); for m = 1 the pump must
    # mirror the last prefix gadget's sign so it cannot extend the prefix
    last_sign = sign if s == 0 else ("negative" if sign == "positive" else "positive")
    if s == 0:
        pump_positive = class_sign == "positive"
    else:
        pump_positive = last_sign == "positive"
    pumps = []
    units = []
    for k in range(p):
        pumps.append(_pump(b, f"{tag}u{k + 1}.", pump_positive))
        pos = _chain_gadget(b, f"{tag}u{k + 1}.p.", m, "positive")
        neg = _chain_gadget(b, f"{tag}u{k + 1}.n.", m, "negative")
        b.arc(pumps[k], "e", pos[0], 0)
        b.arc(pos[0], "x", neg[0], -1, levels=("I",))
        b.arc(neg[0], "x", pos[0], -1, levels=("I",))
        units.append(pos + neg)
    for k in range(p - 1):
        for src in units[k]:
            b.arc(src, f"m{k + 1}", pumps[k + 1], 0)
    if s:
        for src in gadgets[-1]:
            b.arc(src, "b", pumps[0], 0)
        return gadgets[0][0]
    return pumps[0]


def canonical(spec: ClassSpec | str) -> Mbca:
    """A machine whose computed name equals the spec's induced name."""
    if isinstance(spec, str):
        spec = parse_class_spec(spec)
    _check_spec(spec)
    b = _Builder(f"canonical_{spec.render().replace(' ', '_')}")
    if spec.letter in ("C", "D"):
        initial = _build_prime(b, "", spec.letter, spec.m, spec.alpha)
        return b.build(initial)

    e0 = b.state("start")
    pos_init = _build_prime(b, "P.", "C", spec.m, spec.alpha)
    neg_init = _build_prime(b, "N.", "D", spec.m, spec.alpha)
    b.arc(e0, "p", pos_init, 0)
    b.arc(e0, "n", neg_init, 0)
    if spec.tail is not None:
        tail_machine = canonical(spec.tail)
        rename = {q: f"T.{q}" for q in tail_machine.states}
        for q in tail_machine.states:
            b.state(rename[q])
        for t in tail_machine.transitions:
            b.letter(t.letter)
            b.transitions.append(
                Transition(rename[t.source], t.letter, t.level, rename[t.target], t.delta)
            )
        for member in tail_machine.accept_family:
            b.accept.append(frozenset(rename[q] for q in member))
        b.arc(e0, "t", rename[tail_machine.initial], 0)
        # escape letters are keyed by this block's m so nested tails keep theirs
        for q in tail_machine.states:
            b.arc(rename[q], f"zp{spec.m}", pos_init, 0)
            b.arc(rename[q], f"zn{spec.m}", neg_init, 0)
    return b.build(e0)


def gallery_box(max_m: int = 2, alphas=(1, 2, 3, "w", "w+1", "w*2")) -> list[ClassSpec]:
    """Every buildable single-block spec in the acceptance box."""
    from .hierarchy import parse_ordinal

    specs = []
    for letter in ("C", "D", "E"):
        for m in range(1, max_m + 1):
            for alpha_text in alphas:
                alpha = parse_ordinal(str(alpha_text))
                spec = ClassSpec(letter, m, alpha)
                try:
                    _check_spec(spec)
                except UnsupportedSpec:
                    continue
                specs.append(spec)
    return specs
