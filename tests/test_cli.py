import json
import subprocess
import sys
from pathlib import Path

import pytest

import mbca
from mbca import emit_machine
from mbca.cli import COMMANDS, main
from conftest import a1_machine, a_all_machine, a_none_machine


@pytest.fixture(scope="module")
def machine_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("machines")
    paths = {}
    for machine in (a1_machine(), a_all_machine(), a_none_machine()):
        path = root / f"{machine.name}.mbca"
        path.write_text(emit_machine(machine))
        paths[machine.name] = str(path)
    bad = root / "bad.mbca"
    bad.write_text("mbca bad\nalphabet a\nstates q\ninitial q\ntrans q a Z q 0\n")
    paths["bad"] = str(bad)
    return paths


def test_classify_a1(machine_files, capsys):
    assert main(["classify", "--machine", machine_files["A1"]]) == 0
    assert capsys.readouterr().out.strip() == "D_1^2"


def test_member_examples(machine_files, capsys):
    assert main(["member", "--machine", machine_files["A1"], "--word", "a a a b b ; c"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["member", "--machine", machine_files["A1"], "--word", "a a b b b ; c"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_compare_dual(machine_files, capsys):
    assert main(["compare", "--machine", machine_files["A_ALL"], "--other", machine_files["A_NONE"]]) == 0
    assert capsys.readouterr().out.strip() == "dual"


def test_validate_exit_codes(machine_files, capsys):
    assert main(["validate", "--machine", machine_files["A1"]]) == 0
    capsys.readouterr()
    assert main(["validate", "--machine", machine_files["bad"]]) == 1
    out = capsys.readouterr().out
    assert "BlindnessViolation" in out


def test_duplicate_names_fail_validation(capsys, tmp_path):
    path = tmp_path / "dup.mbca"
    path.write_text("mbca dup\nalphabet a a b\nstates q p q\ninitial q\n")
    assert main(["validate", "--machine", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("invalid") and out.count("DuplicateName") == 2


def test_usage_error_exit_code(machine_files):
    with pytest.raises(SystemExit) as err:
        main(["member", "--machine", machine_files["A1"]])  # missing --word
    assert err.value.code == 2


def test_simulate(machine_files, capsys):
    assert main(["simulate", "--machine", machine_files["A1"], "--word", "a a b b b ; c"]) == 0
    out = capsys.readouterr().out
    assert "blocked" in out and "4" in out


def test_structured_output_is_stable(machine_files, capsys):
    assert main(["--format", "structured", "classify", "--machine", machine_files["A1"]]) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert payload["name"] == "D_1^2"
    rerendered = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
    assert rerendered == first


def test_canonical_output_parses(machine_files, capsys, tmp_path):
    assert main(["canonical", "--class", "D_1^2"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "canon.mbca"
    path.write_text(text)
    assert main(["classify", "--machine", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "D_1^2"


def test_game_tournament(machine_files, capsys):
    assert main(["game", "--machine", machine_files["A1"], "--other", machine_files["A1"]]) == 0
    out = capsys.readouterr().out
    assert "no losses" in out


def test_loops_chains_superchains_invariants(machine_files, capsys):
    for cmd in ("loops", "chains", "superchains", "invariants"):
        assert main([cmd, "--machine", machine_files["A1"]]) == 0
        assert capsys.readouterr().out.strip()


def test_game_with_strategy_files(machine_files, capsys, tmp_path):
    from mbca.arena import emit_strategy, table_player1, constant_word
    from mbca import parse_word

    opponent = tmp_path / "p1.strat"
    opponent.write_text(emit_strategy(table_player1({"start": "a", "skip": "a", "a": "a"})))
    defender = tmp_path / "p2.strat"
    defender.write_text(emit_strategy(constant_word(parse_word("; a"), ["a"], name="mirror")))
    rc = main([
        "game", "--machine", machine_files["A_ALL"], "--other", machine_files["A_ALL"],
        "--strategy", str(defender), "--opponent", str(opponent),
    ])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "player2wins"


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


def _usage_error(capsys, argv) -> str:
    """Run argv, expecting exit 2 and a single ``error:`` line on stderr."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


@pytest.mark.parametrize(
    "text, word",
    [
        ("strategy x role two\nstate s on a -> emit a goto s\n", "'two'"),
        ("strategy x role 2\nstate s on a -> emit a goto s counter x\n", "'x'"),
    ],
    ids=["role", "counter"],
)
def test_bad_strategy_number_is_a_usage_error(machine_files, capsys, tmp_path, text, word):
    path = tmp_path / "bad.strat"
    path.write_text(text)
    a1 = machine_files["A1"]
    line = _usage_error(capsys, ["game", "--machine", a1, "--other", a1, "--strategy", str(path)])
    assert word in line


def test_directory_as_machine_is_a_usage_error(capsys, tmp_path):
    assert "Is a directory" in _usage_error(capsys, ["classify", "--machine", str(tmp_path)])


def test_non_utf8_machine_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "binary.mbca"
    path.write_bytes(b"\xff\xfe mbca x\n")
    assert "not UTF-8" in _usage_error(capsys, ["validate", "--machine", str(path)])


@pytest.mark.parametrize("command", ["member", "simulate"])
def test_letter_outside_alphabet_is_a_usage_error(machine_files, capsys, command):
    line = _usage_error(capsys, [command, "--machine", machine_files["A1"], "--word", "a z ; c"])
    assert "'z'" in line and "A1" in line


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "COMMAND"),
        (["--format", "structured"], "COMMAND"),
        (["bogus", "--machine", "A1"], "bogus"),
        (["classify", "--mach", "A1"], "--mach"),
        (["classify", "--machine"], "--machine"),
        (["member", "--machine", "--word", "a ; c"], "--machine"),
        (["--format"], "--format"),
        (["member", "--machine", "A1"], "--word"),
        (["canonical"], "--class"),
        (["--format", "xml", "classify", "--machine", "A1"], "xml"),
        (["classify", "--format", "structured", "--machine", "A1"], "--format"),
        (["game", "--machine", "A1", "--other", "A1", "--horizon", "ten"], "ten"),
        (["game", "--machine", "A1", "--other", "A1", "--horizon=1e3"], "1e3"),
        (["classify", "--machine", "A1", "stray"], "stray"),
    ],
    ids=[
        "no-command", "format-only", "unknown-command", "unknown-flag", "no-value",
        "flag-as-value", "format-no-value", "missing-required", "missing-class",
        "bad-format", "format-after-command", "non-int-horizon", "non-int-horizon-eq",
        "stray-positional",
    ],
)
def test_usage_errors_exit_2_with_one_usage_and_one_error_line(machine_files, capsys, argv, named):
    argv = [machine_files["A1"] if arg == "A1" else arg for arg in argv]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: mbca ") and error.startswith("mbca: error: ")
    assert named in error


def test_help_lists_every_command_and_flag(capsys):
    shown = ""
    for argv in (["--help"], ["classify", "-h"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        shown += captured.out
    assert "--format" in shown and "-h" in shown
    for name, (_, flags) in COMMANDS.items():
        assert name in shown
        for option in flags:
            assert option in shown
    with pytest.raises(SystemExit):
        main(["game", "--help"])
    assert "[--horizon HORIZON]" in capsys.readouterr().out


def test_equals_form_matches_spaced_form(machine_files, capsys):
    a1 = machine_files["A1"]
    assert main(["--format", "structured", "classify", "--machine", a1]) == 0
    spaced = capsys.readouterr().out
    assert main(["--format=structured", "classify", f"--machine={a1}"]) == 0
    assert capsys.readouterr().out == spaced
    assert main(["game", "--machine", a1, "--other", a1, "--horizon=50"]) == 0
    tournament = capsys.readouterr().out
    assert main(["game", "--machine", a1, "--other", a1, "--horizon", "50"]) == 0
    assert capsys.readouterr().out == tournament


def test_classify_imports_no_argument_parser():
    """A cold ``classify`` loads neither argparse nor gettext and locale, which
    argparse pulls in through its first translated string."""
    script = (
        "import sys, io, contextlib\n"
        "from mbca.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['--format', 'structured', 'classify', '--machine', 'machines/A1.mbca'])\n"
        "print(code, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])\n"
    )
    root = Path(mbca.__file__).resolve().parents[2]
    env = {"PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "0 []"


def test_a_component_past_sixteen_states_is_a_one_line_error(capsys, tmp_path):
    """A complete 17-state jump graph is one SCC past the candidate-set limit."""
    states = [f"r{i}" for i in range(17)]
    lines = ["mbca jump17", "alphabet " + " ".join(f"j{i}" for i in range(17))]
    lines += ["states " + " ".join(states), "initial r0", "accept { r0 }"]
    lines += [f"trans {q} j{i} {lv} {t} 0" for q in states for i, t in enumerate(states) for lv in "ZI"]
    path = tmp_path / "jump17.mbca"
    path.write_text("\n".join(lines) + "\n")
    assert main(["classify", "--machine", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: candidate enumeration beyond desk scale (> 16 states in one SCC)\n"
