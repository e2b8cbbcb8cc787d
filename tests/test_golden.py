"""Golden structured output of the CLI on the gallery box and ``machines/``.

``DIGESTS`` holds the sha256 of ``mbca --format structured classify`` for
every buildable gallery-box spec and every ``machines/*.mbca`` file, so a
refactor that changes one byte of any report fails here.  ``DEEP_DIGESTS``
does the same for m >= 3 canonical machines, whose loop enumeration covers
larger candidate sets, and for the m = 4 E specs, whose pump states sit deep
in the chain gadgets.  The section subcommands (``loops``, ``chains``,
``superchains``, ``invariants``) must print exactly their sections of that
document.  ``WITNESS_DIGEST`` pins the letters of every admissible loop's
witness word on the same machines, and ``PATH_DIGEST`` the ``path_to``
letters of the initial reach analysis of ``E_2^w*2``: the highest finite
value and the first tail values of each state.  ``TOURNAMENT_DIGEST`` pins
the plays and losses of a copycat defender in the default suite, for every
ordered pair of those machines over the same alphabet (56 tournaments).  The
output does not depend on ``PYTHONHASHSEED``.  When an output change is
intended, regenerate the tables with

    PYTHONPATH=src python tests/test_golden.py

and paste what it prints over them.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mbca import Configuration, emit_machine, loops, parse_machine, witness_word
from mbca.arena import copycat, validate_strategy
from mbca.loops import admissible
from mbca.reachability import analysis
from mbca.cli import main
from mbca.gallery import canonical, gallery_box, parse_class_spec

MACHINES = Path(__file__).resolve().parent.parent / "machines"

# subcommand -> the keys of the classify document it prints
SECTIONS = {
    "loops": ("loops",),
    "chains": ("chains",),
    "superchains": ("superchains",),
    "invariants": ("invariants", "coarse_class"),
}

DIGESTS = {
    "C_1^1": "fe8728fc54f66b2c897a10bef9ba4527152c50749f4648fdc87d1c36c3df45f3",
    "C_1^2": "fdc7da049cfebdfd3da719510a6258c04d2f7c93f3ca94b3a851871869f18f82",
    "C_1^3": "e40a07d7ee7efa8e9b124af81cc9c820501042190e1dfb4a66b1a0e4a02d5132",
    "C_1^w*1+1": "094c709ef4a0c7d48247131f463beae1f79a62d6da787adecda377fc596070f7",
    "C_2^1": "b5e4d13cfeebb1bf554a353c0e5eea772a0a07ecd8ba9ed130cb3ae4354aac84",
    "C_2^2": "036db3e37be21fe95a7b03d7add676e97d2b444cbce36859d0a46420faa5687f",
    "C_2^3": "acc3becd66181937576fddc65b676b8b363651089e946901937f2538645ead52",
    "C_2^w*1": "388cb471aef10d46099822e4fba02fb1c696163579c3c8b77f360fd8c7c44b57",
    "C_2^w*1+1": "b1d6c7c4cebfeb08d7c17c2e5097019a262840c94a03d444d2bed048a6b1fd55",
    "C_2^w*2": "321294609e16d5d932f903f2e28efcbda988e21a4da4cba73adc3ed6bc635e07",
    "D_1^1": "761e4d7494427dcab4c2b932adba042ecb94acb9a4c706b255f2e176141f6e09",
    "D_1^2": "4fdd268449bcc630fceb8eba605082dbf866b30bf0115edd5248c5431380139e",
    "D_1^3": "b6c83eea026f412fa52ba7a9b2577384b5b874685286a4d34f14d6c4770145d1",
    "D_1^w*1+1": "69d81ea6877f5c24d61ec32dd571a049658fccb1ea54fdaf8678e48c819e6f1f",
    "D_2^1": "e8a26c73f10854e5aaae598e3ed35c168f5775447cc86578c3b90f7bb8038bb4",
    "D_2^2": "bce2dbffe13142726480c494bd7bc7246c6434d47cc73ed9dfdb016b21af6e3b",
    "D_2^3": "2c033dd76b4b55690b8d808d00339ecf738df3e091d14dea6820808c734fe89f",
    "D_2^w*1": "b7dc9bd8a2c3af1b1e11815f1655037ad3f8d6a57495bcab7aef4ec9620ff938",
    "D_2^w*1+1": "9578cc252d857e6322a8d2f20472d4c1d98118d5e89f5c85e94289bdb8b5720e",
    "D_2^w*2": "e5700f1415d8d52670c2e9989b6928a99140ab05cbc9a0649aa232496b90667d",
    "E_1^1 E": "fc9bbb9801a92467d4438d3d1eaa2b527453862eed5a86b28b144be1df090539",
    "E_1^2 E": "8fc0d07bbb1a518dd25cd80b3c9e7ce5d085057d1540da9fe6f23a2628ddd628",
    "E_1^3 E": "961b7bdc2b6c76371b02da6ae67c232bb8652769db9f9b2bc7612c8c0e802fb7",
    "E_1^w*1+1 E": "d5c74c6fa9433bbb4fd95c8715907c1f1a2d00c4ddf2eda7d26b04ca9bcb8c9d",
    "E_2^1 E": "3325f48d40b586770270f8fb7ae9211348ddcc4f0eaa507d65cba525f45f4bd3",
    "E_2^2 E": "487582b05ce6aabf3254d9a683256bb25dc0e4238e73fbf2c889636291241e60",
    "E_2^3 E": "740a7ab37b477d749167693079b35a221278ce6bd7c6f9fdc95c0458ed5ae65b",
    "E_2^w*1 E": "eabc80d57c4f89b3f3e2b28d5572734c414ab342456910daa10ba84b42f9e0b8",
    "E_2^w*1+1 E": "d099cece4ab4f4ebc64a44858c7557498893c2d18f30e49d14cacbe952ea754b",
    "E_2^w*2 E": "155931f7c1404ed647d527526414b007b3e447a79bb0a478c3b31fb6967f9a15",
    "A1": "28d047909606af1b149d37703edff17a7338b70c7f4b95e0189e7af05b5bc7e4",
    "ALL": "225a40539259f9c45b1ad47970ee4bcef5f9985f3b7b92797a7629ecead2a0cf",
    "G_OMEGA": "510eb322bbb503ad95e86ffe4ab5c369c29881bbd821f0feae30b8980339336b",
    "NONE": "4f736cd68cf85c34a94587d134d4d7805dacf522eeaa8663bc8d4b3b40da9e3f",
}

DEEP_DIGESTS = {
    "C_3^w*1": "a72b4eedbae77f5a38f245d5e6d9e9869da716e9eb64564937da3a977bfae2ef",
    "D_3^w*1+1": "f6a9efe4eb1f350735e725d89fc97940f5c481b57f948a38ef57fec972fda0a4",
    "C_3^w*2": "7ecb2711d7b97b6edac14049122d823f251413d1d60e5fb54dafcb62abf0c1aa",
    "C_4^w*1": "1f867c2e7c0da4beca570f07d75601715f1f7207d80bd8f4f1b8d8a9a9b15984",
    "E_4^w*1+2 E": "a3ca805ee666f40f855768313a7d2d1f1b3482a370abc26fce1ef2f66fdc9f07",
    "E_4^w*2 E": "dc1ac21ce30bdca996a9fc465438cca639930123f2362c610fa592c8c485564c",
}

WITNESS_DIGEST = "4d2c717ee9107fdd044aea14581624541eb05c657753620f5f0b49e858a3cde9"
PATH_DIGEST = "49937e4d79ab8b06f3527c4eb7b19185e10a1254ce6fd2be8585c3a927b40407"
TOURNAMENT_DIGEST = "e9237b7217fd76718b345266a0ba1d40b4b6a8a16fd79b9c03e563324fdc1af0"
PATH_MACHINE = "E_2^w*2 E"
TAIL_VALUES = 2


def _labels() -> list[str]:
    return [spec.render() for spec in gallery_box()] + sorted(
        p.stem for p in MACHINES.glob("*.mbca")
    )


def _machine_text(label: str) -> str:
    path = MACHINES / f"{label}.mbca"
    if path.exists():
        return path.read_text()
    return emit_machine(canonical(parse_class_spec(label)))


def _structured(*args: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["--format", "structured", *args]) == 0
    return out.getvalue()


def _digest(path: Path) -> str:
    return hashlib.sha256(_structured("classify", "--machine", str(path)).encode()).hexdigest()


def test_digest_table_covers_the_box_and_machine_files():
    assert sorted(DIGESTS) == sorted(_labels())


@pytest.mark.parametrize("label", sorted(DIGESTS) + sorted(DEEP_DIGESTS))
def test_structured_output_is_golden(label, tmp_path):
    path = tmp_path / "m.mbca"
    path.write_text(_machine_text(label))
    document = _structured("classify", "--machine", str(path))
    assert hashlib.sha256(document.encode()).hexdigest() == {**DIGESTS, **DEEP_DIGESTS}[label]
    report = json.loads(document)
    for command, keys in SECTIONS.items():
        want = {key: report[key] for key in keys}
        if command == "loops":
            want["raw_count"] = len(loops(parse_machine(path.read_text())))
        rendered = json.dumps(want, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
        assert _structured(command, "--machine", str(path)) == rendered, command


def _witness_digest() -> str:
    lines = []
    for label in _labels():
        machine = parse_machine(_machine_text(label))
        for d in loops(machine):
            if admissible(machine, d):
                word = witness_word(machine, d)
                key = (d.anchor, d.level, sorted(d.essential_set), d.delta_kind)
                lines.append(repr((label, key, word.prefix, word.period)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _path_digest() -> str:
    machine = parse_machine(_machine_text(PATH_MACHINE))
    ra = analysis(machine, machine.initial_configuration())
    lines = []
    for q in machine.states:
        sr = ra.reach_set.at(q)
        counters = [max(sr.finite)] if sr.finite else []
        if sr.tail is not None:
            t, g = sr.tail
            counters += [t + k * g for k in range(TAIL_VALUES)]
        for c in counters:
            lines.append(repr((q, c, ra.path_to(Configuration(q, c)))))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _tournament_digest() -> str:
    machines = [(label, parse_machine(_machine_text(label))) for label in _labels()]
    lines = []
    for left, a in machines:
        for right, b in machines:
            if a.alphabet == b.alphabet:
                report = validate_strategy(a, b, copycat(a.alphabet))
                lines.append(repr((left, right, report.plays, report.losses)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_witness_words_are_golden():
    assert _witness_digest() == WITNESS_DIGEST


def test_path_to_letters_are_golden():
    assert _path_digest() == PATH_DIGEST


def test_tournament_losses_are_golden():
    assert _tournament_digest() == TOURNAMENT_DIGEST


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for table, labels in (("DIGESTS", _labels()), ("DEEP_DIGESTS", list(DEEP_DIGESTS))):
            print(f"{table} = {{")
            for label in labels:
                path = Path(tmp) / "m.mbca"
                path.write_text(_machine_text(label))
                print(f'    "{label}": "{_digest(path)}",')
            print("}")
    print(f'WITNESS_DIGEST = "{_witness_digest()}"')
    print(f'PATH_DIGEST = "{_path_digest()}"')
    print(f'TOURNAMENT_DIGEST = "{_tournament_digest()}"')
