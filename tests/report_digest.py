"""One sha256 over every report the file commands write, for byte-identity checks.

Usage: python tests/report_digest.py ROOT [--each]

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
two trees' outputs names every report that differs. Takes about 8 s.
pytest does not collect this file; ``tests/test_reports.py`` runs it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
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


def _import(root: Path):
    sys.path.insert(0, str(root / "src"))
    import telesim
    import telesim.cli

    if not Path(telesim.__file__).resolve().is_relative_to((root / "src").resolve()):
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


def main(argv: list[str]) -> int:
    if not argv or argv[1:] not in ([], ["--each"]):
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    telesim = _import(root)
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
