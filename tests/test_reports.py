"""Machine reports pinned byte for byte.

Every ``--format machine`` report below, and the ``protocols list`` table,
must match its fixture under ``fixtures/reports/`` exactly, exit code
included. The 16-bin ``verify`` report (137 kB) is pinned by its sha256
instead, and every report of ``tests/report_digest.py`` (text and machine,
stdout, stderr and exit code) by the three lines it prints. A change that
means to alter report bytes regenerates the fixtures, which also prints the
new sha256 for ``NBIN16_VERIFY_SHA256`` and the new ``REPORT_DIGEST``
lines, and says so:

    PYTHONPATH=src python tests/test_reports.py --regenerate
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import telesim
from telesim.cli import SCALE_ENV_VAR, ReportDocument, main
from telesim.protocols import PROTOCOLS, protocol_text

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE.parents[0] / "src" / "telesim" / "golden"
FIXTURES = HERE / "fixtures" / "reports"
GOLDENS = sorted(path.stem for path in GOLDEN_DIR.glob("*.tls"))
NBIN = 8

# (fixture name, command, source, limit scale or None, exit code); a source
# "nmode_delayed_telefilter_n8" is generated, every other one is a golden;
# the "protocols" command runs its subcommand "list" and has a .txt fixture
CASES = [
    (f"{command}_{name}", command, name, None, 0)
    for name in GOLDENS
    for command in ("run", "verify")
] + [
    (f"verify_nmode_delayed_telefilter_n{NBIN}", "verify",
     f"nmode_delayed_telefilter_n{NBIN}", None, 0),
    # precision runs out at scale 60 and the declared-limit check fails
    ("verify_delayed_telemirror_scale60", "verify", "delayed_telemirror", "60", 1),
    ("protocols_list", "protocols", "list", None, 0),
]
NBIN16_VERIFY_SHA256 = "8285049c881e4ab04472f229326f1fbd39e293f1eeef48a1e5144e72459001ae"
# what ``python tests/report_digest.py ROOT`` prints for this tree
REPORT_DIGEST = [
    "reports 270",
    "sha256 6888f55fff9b9da053192ac06644e872090056c6d37551b8a97600bd009cdeed",
    "protocols 10 sha256 781fcd12ef9a7de9f1ddb03fc7bc7f1a255d688a896820016876c9691d38a080",
]


def _fixture(name: str, command: str) -> Path:
    return FIXTURES / f"{name}.{'txt' if command == 'protocols' else 'json'}"


def _source(name: str, workdir: Path) -> Path:
    if name.startswith("nmode_delayed_telefilter_n"):
        path = workdir / f"{name}.tls"
        n = int(name.rpartition("_n")[2])
        path.write_text(protocol_text("nmode_delayed_telefilter", n=n), encoding="utf-8")
        return path
    return GOLDEN_DIR / f"{name}.tls"


def _report(command: str, source: str, scale: str | None, workdir: Path) -> tuple[int, str]:
    if command == "protocols":
        argv = [command, source]
    else:
        argv = [command, str(_source(source, workdir)), "--format", "machine"]
    saved = os.environ.pop(SCALE_ENV_VAR, None)
    if scale is not None:
        os.environ[SCALE_ENV_VAR] = scale
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.environ.pop(SCALE_ENV_VAR, None)
        if saved is not None:
            os.environ[SCALE_ENV_VAR] = saved
    return code, out.getvalue()


def test_every_golden_has_a_case():
    assert len(GOLDENS) == 9
    for name, command, *_ in CASES:
        assert _fixture(name, command).is_file(), name


@pytest.mark.parametrize(
    "fixture,command,source,scale,code", CASES, ids=[case[0] for case in CASES]
)
def test_machine_report_bytes_are_pinned(tmp_path, fixture, command, source, scale, code):
    got_code, text = _report(command, source, scale, tmp_path)
    assert got_code == code
    assert text.encode("utf-8") == _fixture(fixture, command).read_bytes()


def _nbin16_verify_sha256(workdir: Path) -> str:
    code, text = _report("verify", "nmode_delayed_telefilter_n16", None, workdir)
    assert code == 0
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_the_16_bin_verify_report_sha256_is_pinned(tmp_path):
    assert _nbin16_verify_sha256(tmp_path) == NBIN16_VERIFY_SHA256


def _digest_lines() -> list[str]:
    """The lines ``tests/report_digest.py ROOT`` prints, run in-process."""
    import report_digest

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert report_digest.main([str(HERE.parent)]) == 0
    return out.getvalue().splitlines()


def test_every_report_of_the_digest_tool_is_pinned(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts ROOT/src first
    assert _digest_lines() == REPORT_DIGEST


def test_the_digest_tool_hashes_each_report_of_one_golden(tmp_path, monkeypatch, capsys):
    """``tests/report_digest.py ROOT --each`` in-process, its sources cut to one
    golden: one line per report and per protocols command, each the sha256 of
    what the default digest reads of it; the default prints its three lines."""
    import report_digest

    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts ROOT/src first
    golden = GOLDEN_DIR / "delayed_telefilter.tls"
    label = "golden/delayed_telefilter.tls"
    monkeypatch.setattr(report_digest, "_sources", lambda *_: [(label, golden)])
    root = str(HERE.parent)
    assert report_digest.main([root, "--each"]) == 0
    lines = [line.rsplit(" ", 1) for line in capsys.readouterr().out.splitlines()]
    builders = [f"protocols build {name}" for name in PROTOCOLS]
    assert [name for name, _ in lines] == [
        f"{label}|{scale}|{command}|{fmt}"
        for scale in report_digest.SCALES
        for command in report_digest.COMMANDS
        for fmt in report_digest.FORMATS
    ] + ["protocols list"] + builders
    code, text = _report("verify", "delayed_telefilter", None, tmp_path)
    read = f"{label}|None|verify|machine|{code}\0{text}\0\0".encode()
    assert dict(lines)[f"{label}|None|verify|machine"] == hashlib.sha256(read).hexdigest()

    assert report_digest.main([root]) == 0
    first, second, third = capsys.readouterr().out.splitlines()
    assert first == "reports 18" and third.startswith("protocols 10 sha256 ")
    items = list(report_digest.reports(HERE.parent, telesim))
    assert second == f"sha256 {hashlib.sha256(b''.join(data for _, data in items)).hexdigest()}"
    assert [hashlib.sha256(data).hexdigest() for _, data in items] == [h for _, h in lines[:18]]


def test_the_digest_tool_names_the_report_fields_that_differ():
    """``--fields``' comparison of one report's bytes from two trees: the JSON
    paths of a machine report that differ, through dicts and lists of one length."""
    import report_digest

    def report(code, out, err=""):
        return f"label|{code}\0{out}\0{err}\0".encode()

    def machine(entries, detail):
        return json.dumps({"causality": {"dependencies": {"a": entries, "b": [["e1", 0]]}, "verdict": "causal"},
                           "checks": [{"check": "bogoliubov", "detail": detail}]})

    ours = report(0, machine([["e1", 0]], "max deviation 4.0e-162"))
    theirs = report(0, machine([["e1", 0], ["j2", 2]], "max deviation 7.1e-162"))
    assert report_digest.fields(ours, theirs) == ["causality.dependencies.a", "checks[0].detail"]
    assert report_digest.fields(ours, ours) == []
    assert report_digest.fields(report(1, "text"), report(2, "text!", "warning")) == ["exit code", "stdout", "stderr"]


def _spelled(value):
    """value with each non-finite float spelled as the string "nan", "inf" or "-inf"."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _spelled(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spelled(item) for item in value]
    return value


_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_the_machine_writer_writes_the_bytes_of_json_dumps(payload):
    # the reference is the writer it replaced: json.dumps of the spelled payload
    want = json.dumps(_spelled(payload), sort_keys=True, indent=2) + "\n"
    assert ReportDocument(payload, "machine").render() == want


def _regenerate(workdir: Path) -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for fixture, command, source, scale, code in CASES:
        got_code, text = _report(command, source, scale, workdir)
        if got_code != code:
            raise SystemExit(f"{fixture}: exit code {got_code}, expected {code}")
        _fixture(fixture, command).write_bytes(text.encode("utf-8"))
    print("NBIN16_VERIFY_SHA256 =", _nbin16_verify_sha256(workdir))
    print("REPORT_DIGEST =", _digest_lines())


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(__doc__)
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        _regenerate(Path(scratch))
