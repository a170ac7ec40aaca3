"""One sha256 over every report the file commands write, for byte-identity checks.

Usage: python tests/report_digest.py ROOT [--each | --fields OTHER_ROOT]

Imports telesim from ROOT/src and calls ``telesim.cli.main`` in-process for
``run``, ``verify`` and ``limits``, each in text and machine format, with
``TELESIM_LIMIT_SCALE`` unset, 60 and 100, on the 9 golden circuits,
``tests/fixtures/*.tls`` and ``nmode_delayed_telefilter`` at n = 8 and 16
(written by ``protocol_text`` to a temporary folder). The hash reads each
report's label, exit code, stdout and stderr, in a fixed order. Prints the
report count and the hex digest; two trees whose reports match bit for bit
print the same lines. A third line hashes, the same way, ``protocols list``
and ``protocols build NAME`` of every builder at its defaults. With
``--each`` it prints instead one ``label sha256`` line per report and per
``protocols`` command, the hash of what the digest reads of it, so a diff of
two trees' outputs names every report that differs. With ``--fields
OTHER_ROOT`` it also imports telesim from OTHER_ROOT/src and prints, for
each report whose bytes differ between the two trees, its label and the
JSON paths of the machine report that differ (``causality.dependencies.
orthogonal``, ``checks[0].detail``), or ``exit code``, ``stdout`` (a text
report) and ``stderr``. Takes about 8 s per tree.
pytest does not collect this file; ``tests/test_reports.py`` runs it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

COMMANDS = ("run", "verify", "limits")
FORMATS = ("text", "machine")
SCALES = (None, "60", "100")
SCALE_ENV_VAR = "TELESIM_LIMIT_SCALE"


def _sources(root: Path, telesim, folder: Path) -> list[tuple[str, Path]]:
    goldens = sorted((root / "src" / "telesim" / "golden").glob("*.tls"))
    fixtures = sorted((root / "tests" / "fixtures").glob("*.tls"))
    sources = [(f"golden/{p.name}", p) for p in goldens]
    sources += [(f"fixtures/{p.name}", p) for p in fixtures]
    for n in (8, 16):
        path = folder / f"nmode_delayed_telefilter_n{n}.tls"
        path.write_text(telesim.protocol_text("nmode_delayed_telefilter", n=n), encoding="utf-8")
        sources.append((f"nmode_delayed_telefilter n={n}", path))
    return sources


def _report(telesim, label: str, argv: list[str]) -> bytes:
    """What the digest reads of ``telesim argv``: label, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = telesim.cli.main(argv)
    return f"{label}|{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode()


def _from(root: Path, module) -> bool:
    return Path(module.__file__).resolve().is_relative_to((root / "src").resolve())


def _import(root: Path):
    if "telesim" in sys.modules and not _from(root, sys.modules["telesim"]):
        for name in [name for name in sys.modules if name.partition(".")[0] == "telesim"]:
            del sys.modules[name]  # another tree's (--fields)
    sys.path.insert(0, str(root / "src"))
    import telesim
    import telesim.cli

    if not _from(root, telesim):
        raise SystemExit(f"error: imported telesim from {telesim.__file__}")
    return telesim


def reports(root: Path, telesim):
    """(label, bytes) of each report of the file commands of the tree at root, in order."""
    saved = os.environ.pop(SCALE_ENV_VAR, None)
    try:
        with tempfile.TemporaryDirectory() as folder:
            for label, path in _sources(root, telesim, Path(folder)):
                for scale in SCALES:
                    if scale is None:
                        os.environ.pop(SCALE_ENV_VAR, None)
                    else:
                        os.environ[SCALE_ENV_VAR] = scale
                    for command in COMMANDS:
                        for fmt in FORMATS:
                            label_of = f"{label}|{scale}|{command}|{fmt}"
                            argv = [command, str(path), "--format", fmt]
                            yield label_of, _report(telesim, label_of, argv)
    finally:
        os.environ.pop(SCALE_ENV_VAR, None)
        if saved is not None:
            os.environ[SCALE_ENV_VAR] = saved


def protocol_reports(telesim):
    """(label, bytes) of ``protocols list`` and of ``protocols build NAME`` for every builder."""
    commands = [["protocols", "list"]]
    commands += [["protocols", "build", name] for name in telesim.PROTOCOLS]
    for argv in commands:
        label = " ".join(argv)
        yield label, _report(telesim, label, argv)


def digest(items) -> tuple[int, str]:
    """(number of reports, sha256 hex over their bytes in order) of (label, bytes) items."""
    total, count = hashlib.sha256(), 0
    for _, data in items:
        total.update(data)
        count += 1
    return count, total.hexdigest()


def _differing(a, b, path: str) -> list[str]:
    """The JSON paths below path at which a and b differ, through dicts and lists of one length."""
    if a == b:
        return []
    if isinstance(a, dict) and isinstance(b, dict):
        return [found for key in {**a, **b}
                for found in _differing(a.get(key), b.get(key), f"{path}.{key}" if path else key)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [found for i, (x, y) in enumerate(zip(a, b)) for found in _differing(x, y, f"{path}[{i}]")]
    return [path or "$"]


def fields(ours: bytes, theirs: bytes) -> list[str]:
    """What differs between two trees' bytes of one report (see :func:`_report`)."""
    (head, out, err, _), (other_head, other_out, other_err, _) = (d.decode().split("\0") for d in (ours, theirs))
    found = ["exit code"] if head != other_head else []
    try:
        found += _differing(json.loads(out), json.loads(other_out), "")
    except ValueError:
        found += ["stdout"] if out != other_out else []
    return found + (["stderr"] if err != other_err else [])


def main(argv: list[str]) -> int:
    if not argv or argv[1:] not in ([], ["--each"]) and (len(argv) != 3 or argv[1] != "--fields"):
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    telesim = _import(root)
    if argv[1:2] == ["--fields"]:
        ours = dict(itertools.chain(reports(root, telesim), protocol_reports(telesim)))
        other = Path(argv[2]).resolve()
        telesim = _import(other)
        for label, data in itertools.chain(reports(other, telesim), protocol_reports(telesim)):
            if ours.get(label) != data:
                print(label, " ".join(fields(ours[label], data)) if label in ours else "only in OTHER_ROOT")
        return 0
    if argv[1:]:
        for items in (reports(root, telesim), protocol_reports(telesim)):
            for label, data in items:
                print(label, hashlib.sha256(data).hexdigest())
        return 0
    count, hexdigest = digest(reports(root, telesim))
    print(f"reports {count}")
    print(f"sha256 {hexdigest}")
    count, hexdigest = digest(protocol_reports(telesim))
    print(f"protocols {count} sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
