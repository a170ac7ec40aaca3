"""One sha256 over every report the file commands write, for byte-identity checks.

Usage: python tests/report_digest.py ROOT

Imports telesim from ROOT/src and calls ``telesim.cli.main`` in-process for
``run``, ``verify`` and ``limits``, each in text and machine format, with
``TELESIM_LIMIT_SCALE`` unset, 60 and 100, on the 9 golden circuits,
``tests/fixtures/*.tls`` and ``nmode_delayed_telefilter`` at n = 8 and 16
(written by ``protocol_text`` to a temporary folder). The hash reads each
report's label, exit code, stdout and stderr, in a fixed order. Prints the
report count and the hex digest; two trees whose reports match bit for bit
print the same lines. A third line hashes, the same way, ``protocols list``
and ``protocols build NAME`` of every builder at its defaults. Takes about
8 s. pytest does not collect this file.
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


def _update(total, telesim, label: str, argv: list[str]) -> None:
    """Feed label, exit code, stdout and stderr of ``telesim argv`` to total."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = telesim.cli.main(argv)
    total.update(f"{label}|{code}\0".encode())
    total.update(out.getvalue().encode() + b"\0")
    total.update(err.getvalue().encode() + b"\0")


def _import(root: Path):
    sys.path.insert(0, str(root / "src"))
    import telesim
    import telesim.cli

    if not Path(telesim.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"error: imported telesim from {telesim.__file__}")
    return telesim


def digest(root: Path, telesim) -> tuple[int, str]:
    """(number of reports, sha256 hex) of the file commands of the tree at root."""
    saved = os.environ.pop(SCALE_ENV_VAR, None)
    total, count = hashlib.sha256(), 0
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
                            _update(
                                total,
                                telesim,
                                f"{label}|{scale}|{command}|{fmt}",
                                [command, str(path), "--format", fmt],
                            )
                            count += 1
    finally:
        os.environ.pop(SCALE_ENV_VAR, None)
        if saved is not None:
            os.environ[SCALE_ENV_VAR] = saved
    return count, total.hexdigest()


def protocols_digest(telesim) -> tuple[int, str]:
    """(number of commands, sha256 hex) of ``protocols list`` and of
    ``protocols build NAME`` for every builder."""
    total = hashlib.sha256()
    commands = [["protocols", "list"]]
    commands += [["protocols", "build", name] for name in telesim.PROTOCOLS]
    for argv in commands:
        _update(total, telesim, " ".join(argv), argv)
    return len(commands), total.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    telesim = _import(root)
    count, hexdigest = digest(root, telesim)
    print(f"reports {count}")
    print(f"sha256 {hexdigest}")
    count, hexdigest = protocols_digest(telesim)
    print(f"protocols {count} sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
