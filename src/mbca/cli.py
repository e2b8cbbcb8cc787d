"""Command-line front end: parse the text formats, run the pipeline, report.

``COMMANDS`` maps each command name to its handler and its flags, and
``_parse`` reads ``[--format text|structured] COMMAND --flag value ...`` against
that table alone; it needs no argparse, so a cold run imports no gettext or
locale.  Exit codes: 0 success, 1 validation failure, 2 usage error.
``--format structured`` prints one canonical JSON document per invocation
(sorted keys, two-space indent), stable under parse-and-rerender.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

from .arena import copycat, default_suite, parse_strategy, play, validate_strategy
from .automaton import InvalidMachine, Mbca, MbcaError, emit_machine, parse_machine
from .gallery import canonical, parse_class_spec
from .hierarchy import Analyzer, analyzer_for, invariants
from .loops import loops
from .naming import compare, degree_rank, parse_name, wadge_name
from .semantics import UPWord, member, parse_word, run
from .wagner import wagner_invariants


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise MbcaError(f"{path}: not UTF-8 text (byte {err.start})") from None


def _load_machine(path: str) -> Mbca:
    return parse_machine(_read(path))


def _load_word(machine: Mbca, text: str) -> UPWord:
    """Parse a word, refusing letters the machine cannot read."""
    word = parse_word(text)
    unknown = [a for a in dict.fromkeys(word.prefix + word.period) if a not in machine.alphabet]
    if unknown:
        raise MbcaError(
            f"word uses {' '.join(map(repr, unknown))}, not in the alphabet of "
            f"{machine.name} ({' '.join(machine.alphabet)})"
        )
    return word


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "structured":
        print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=True))
    else:
        for line in text_lines:
            print(line)


def _machine_summary(machine: Mbca) -> dict:
    return {
        "name": machine.name,
        "states": list(machine.states),
        "alphabet": list(machine.alphabet),
        "initial": machine.initial,
        "accept_family": sorted(sorted(f) for f in machine.accept_family),
        "transitions": len(machine.transitions),
    }


# -- report sections: each computes only what it prints ------------------------


def _loop_section(analyzer: Analyzer) -> list[dict]:
    return [
        {
            "anchor": d.anchor,
            "level": d.level,
            "states": sorted(d.essential_set),
            "kind": d.delta_kind,
            "sign": d.sign,
            "dip": d.dip,
            "min_anchor_counter": d.min_anchor_counter,
        }
        for d in analyzer.admissible_loops()
    ]


def _chain_section(analyzer: Analyzer) -> list[dict]:
    return [
        {
            "site": sorted(c.site),
            "sign": c.sign,
            "length": len(c),
            "sets": [sorted(f) for f in c.sets],
        }
        for c in analyzer.chains()
    ]


def _superchain_section(analyzer: Analyzer) -> list[dict]:
    return [
        {
            "length": sc.length.render(),
            "sign": sc.sign,
            "finite_part": [sorted(c.site) for c in sc.finite_part],
            "omega_part": [
                {"positive_site": sorted(l.pos_site), "negative_site": sorted(l.neg_site)}
                for l in sc.omega_part
            ],
        }
        for sc in analyzer.superchains()
    ]


def _invariant_section(analyzer: Analyzer) -> dict:
    inv = analyzer.invariants()
    return {
        "invariants": {"m": inv.m, "n": inv.n.render(), "s": inv.s},
        "coarse_class": inv.coarse_class,
    }


def _cmd_validate(args) -> int:
    try:
        machine = _load_machine(args.machine)
    except InvalidMachine as err:
        payload = {
            "valid": False,
            "violations": [
                {"rule": v.rule, "detail": v.detail} for v in err.violations
            ],
        }
        _emit(
            payload,
            args.format,
            ["invalid"] + [f"  {v.rule}: {v.detail}" for v in err.violations],
        )
        return 1
    payload = {"valid": True, "machine": _machine_summary(machine)}
    _emit(payload, args.format, [f"valid: {machine.name}"])
    return 0


def _cmd_simulate(args) -> int:
    machine = _load_machine(args.machine)
    word = _load_word(machine, args.word)
    trace = run(machine, word)
    payload = {
        "word": word.render(),
        "outcome": trace.outcome.kind,
        "inf_set": sorted(trace.inf_set) if trace.inf_set else None,
        "configurations": [[c.state, c.counter] for c in trace.configs[:64]],
    }
    lines = [f"outcome: {trace.outcome.kind}"]
    if trace.outcome.kind == "blocked":
        payload["blocked_at"] = trace.outcome.position
        lines.append(f"blocked at letter index {trace.outcome.position}")
    else:
        lines.append(f"inf set: {{{' '.join(sorted(trace.inf_set))}}}")
    _emit(payload, args.format, lines)
    return 0


def _cmd_member(args) -> int:
    machine = _load_machine(args.machine)
    verdict = member(machine, _load_word(machine, args.word))
    _emit({"member": verdict}, args.format, ["true" if verdict else "false"])
    return 0


def _cmd_loops(args) -> int:
    machine = _load_machine(args.machine)
    section = _loop_section(analyzer_for(machine))
    lines = [
        f"L{'+' if d['sign'] == 'positive' else '-'}({d['anchor']}, {d['level']}, "
        f"{{{' '.join(d['states'])}}}, {'+' if d['kind'] == 'plus' else '='}) "
        f"dip={d['dip']}"
        for d in section
    ]
    _emit({"loops": section, "raw_count": len(loops(machine))}, args.format, lines)
    return 0


def _cmd_chains(args) -> int:
    section = _chain_section(analyzer_for(_load_machine(args.machine)))
    lines = [f"site {{{' '.join(c['site'])}}}: length {c['length']}, {c['sign']}" for c in section]
    _emit({"chains": section}, args.format, lines)
    return 0


def _cmd_superchains(args) -> int:
    section = _superchain_section(analyzer_for(_load_machine(args.machine)))
    lines = [
        f"length {sc['length']}, {sc['sign']}, finite part "
        f"{[' '.join(s) for s in sc['finite_part']]}, omega units {len(sc['omega_part'])}"
        for sc in section
    ]
    _emit({"superchains": section}, args.format, lines or ["none"])
    return 0


def _cmd_invariants(args) -> int:
    report = _invariant_section(analyzer_for(_load_machine(args.machine)))
    inv = report["invariants"]
    _emit(
        report,
        args.format,
        [f"m = {inv['m']}", f"n = {inv['n']}", f"s = {inv['s']}",
         f"class {report['coarse_class']}"],
    )
    return 0


def _cmd_classify(args) -> int:
    machine = _load_machine(args.machine)
    analyzer = analyzer_for(machine)  # the same instance wadge_name works on
    name = wadge_name(machine)
    report = {
        "machine": _machine_summary(machine),
        "essential_sets": [
            {"states": sorted(f), "sign": sign}
            for f, sign in sorted(
                analyzer.essential().items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
            )
        ],
        "loops": _loop_section(analyzer),
        "chains": _chain_section(analyzer),
        "superchains": _superchain_section(analyzer),
        **_invariant_section(analyzer),
        "name": name.render(),
        "degree_rank": degree_rank(name).render(),
        "delta02": analyzer.invariants().m < 2,
    }
    _emit(report, args.format, [report["name"]])
    return 0


def _cmd_compare(args) -> int:
    left = wadge_name(_load_machine(args.machine))
    right = wadge_name(_load_machine(args.other))
    verdict = compare(left, right)
    _emit(
        {"left": left.render(), "right": right.render(), "verdict": verdict},
        args.format,
        [verdict],
    )
    return 0


def _cmd_canonical(args) -> int:
    machine = canonical(parse_class_spec(args.class_spec))
    if args.format == "structured":
        _emit({"machine_text": emit_machine(machine)}, args.format, [])
    else:
        sys.stdout.write(emit_machine(machine))
    return 0


def _cmd_game(args) -> int:
    left = _load_machine(args.machine)
    right = _load_machine(args.other)
    if args.strategy:
        defender = parse_strategy(_read(args.strategy))
    else:
        defender = copycat(right.alphabet)
    if args.opponent:
        record = play(
            left,
            right,
            parse_strategy(_read(args.opponent)),
            defender,
            horizon=args.horizon,
        )
        payload = {
            "verdict": record.verdict,
            "a_word": record.a_word.render(),
            "b_word": record.b_word.render() if record.b_word else None,
        }
        _emit(payload, args.format, [record.verdict])
        return 0
    report = validate_strategy(
        left, right, defender, default_suite(left.alphabet, right.alphabet),
        horizon=args.horizon,
    )
    payload = {
        "defender": report.defender,
        "plays": report.plays,
        "losses": report.losses,
        "clean": report.clean,
        "note": "tournament evidence only, not a proof of reducibility",
    }
    _emit(payload, args.format, [report.summary()])
    return 0 if report.clean else 1


def _cmd_selftest(args) -> int:
    import itertools

    from .automaton import validate as make

    passed = failed = 0

    def record(ok: bool, label: str):
        nonlocal passed, failed
        if ok:
            passed += 1
        else:
            failed += 1
            print(f"selftest FAIL: {label}")

    states = ["q0", "q1"]
    letters = ["a", "b"]
    subsets = [frozenset(c) for r in (1, 2) for c in itertools.combinations(states, r)]
    for targets in itertools.product([None, "q0", "q1"], repeat=4):
        trans = []
        for (q, a), tgt in zip(itertools.product(states, letters), targets):
            if tgt is not None:
                trans.append((q, a, "Z", tgt, 0))
                trans.append((q, a, "I", tgt, 0))
        for bits in range(2 ** len(subsets)):
            fam = [sorted(subsets[i]) for i in range(len(subsets)) if bits >> i & 1]
            machine = make("cf", letters, states, "q0", trans, fam)
            got = invariants(machine)
            want = wagner_invariants(machine)
            record((got.m, got.n, got.s) == (want.m, want.n, want.s), f"wagner {targets} {fam}")

    for text in ["C_1^1", "C_1^2", "D_1^2", "E_1^1", "C_2^1", "D_2^w*1", "C_2^w*1+1"]:
        machine = canonical(parse_class_spec(text))
        got = wadge_name(machine).render()
        want = parse_name(text).render()
        record(got == want, f"gallery {text}: got {got}")

    print(f"selftest: {passed} passed, {failed} failed")
    return 0 if failed == 0 else 1


# -- the command table and its parser ------------------------------------------------

Flag = namedtuple("Flag", "dest required default convert", defaults=(True, None, None))
_MACHINE = {"--machine": Flag("machine")}
COMMANDS = {
    "validate": (_cmd_validate, _MACHINE),
    "simulate": (_cmd_simulate, {**_MACHINE, "--word": Flag("word")}),
    "member": (_cmd_member, {**_MACHINE, "--word": Flag("word")}),
    "loops": (_cmd_loops, _MACHINE),
    "chains": (_cmd_chains, _MACHINE),
    "superchains": (_cmd_superchains, _MACHINE),
    "invariants": (_cmd_invariants, _MACHINE),
    "classify": (_cmd_classify, _MACHINE),
    "compare": (_cmd_compare, {**_MACHINE, "--other": Flag("other")}),
    "canonical": (_cmd_canonical, {"--class": Flag("class_spec")}),
    "game": (_cmd_game, {
        **_MACHINE, "--other": Flag("other"), "--strategy": Flag("strategy", False),
        "--opponent": Flag("opponent", False), "--horizon": Flag("horizon", False, 10_000, int),
    }),
    "selftest": (_cmd_selftest, {}),
}


def _usage(command: str | None) -> str:
    """The top-level synopsis, or one command's with its flags."""
    if command is None:
        return f"[-h] [--format {{text,structured}}] {{{','.join(COMMANDS)}}} ..."
    flags = (f"{o} {f.dest.upper()}" if f.required else f"[{o} {f.dest.upper()}]"
             for o, f in COMMANDS[command][1].items())
    return " ".join([command, *flags])


def _fail(command: str | None, message: str):
    sys.stderr.write(f"usage: mbca {_usage(command)}\nmbca: error: {message}\n")
    raise SystemExit(2)


def _parse(argv: list[str]) -> SimpleNamespace:
    """Read the command line against ``COMMANDS``; a usage error exits with status 2."""
    args = SimpleNamespace(format="text", command=None)
    flags = {"--format": Flag("format", False)}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            print(f"usage: mbca {_usage(args.command)}")
            if args.command is None:
                print("\ncommands:", *(f"  {_usage(c)}" for c in COMMANDS), sep="\n")
            raise SystemExit(0)
        if not token.startswith("-"):
            if args.command:
                _fail(args.command, f"unrecognized argument: {token}")
            if token not in COMMANDS:
                _fail(None, f"invalid command: {token!r}")
            args.command, flags = token, COMMANDS[token][1]
            args.__dict__.update((f.dest, f.default) for f in flags.values())
            continue
        option, eq, value = token.partition("=")
        if option not in flags:
            _fail(args.command, f"unrecognized argument: {option}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                _fail(args.command, f"argument {option}: expected one value")
        try:
            setattr(args, flags[option].dest, (flags[option].convert or str)(value))
        except ValueError:
            _fail(args.command, f"argument {option}: invalid int value: {value!r}")
    if args.format not in ("text", "structured"):
        _fail(None, f"argument --format: invalid choice: {args.format!r}")
    missing = [o for o, f in flags.items() if f.required and getattr(args, f.dest) is None]
    if args.command is None or missing:
        _fail(args.command, f"missing: {', '.join(missing) or 'COMMAND'}")
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return COMMANDS[args.command][0](args)
    except InvalidMachine as err:
        for v in err.violations:
            print(f"{v.rule}: {v.detail}", file=sys.stderr)
        return 1
    except (MbcaError, OSError) as err:  # OSError: missing file, a directory, no permission
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
