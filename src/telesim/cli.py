"""Command line front end and report serialization.

The CLI parses arguments, loads circuit files and renders reports. The
library owns every rule: the analyses and checks (:mod:`telesim.verify`)
and the parameter names a circuit takes (:func:`circuit.require_declared`);
the CLI prints their ``ValueError`` as an error. run, verify and limits
never consult the protocol registry: a file's ``target`` and ``expect``
statements are its whole oracle. So :mod:`telesim.protocols` loads on first
use, inside the two protocols subcommands, and a process that runs,
verifies or pushes limits never compiles the builders.

Subcommands: run (the :func:`~telesim.verify.run_suite` analyses of a
circuit file), verify (the :func:`~telesim.verify.verify_suite` checks,
nonzero exit on any failure), protocols list / protocols build (the
registry's builders: list reads each signature and docstring summary, build
types ``--param`` values by the annotations and writes the circuit text
unevaluated), limits (the :func:`~telesim.verify.limit_suite` of the named
or declared scale parameters), the first three through one handler.
Reports come in two formats: text tables for reading and a machine form
whose bytes are deterministic, with sorted keys, 12 significant digits and
no negative zero, so golden files stay stable.

Exit codes: 0 success, 1 failed verification check, 2 usage, parse or
evaluation errors, including non-finite bindings, unnormalized targets,
circuits nested too deep to evaluate, bindings too large to evaluate and
memory running out.
TELESIM_LIMIT_SCALE overrides the stand-in value used for parameters
declared infinite; it must be finite and above zero.

:func:`main` pauses the cyclic garbage collector around each command and
restores the caller's setting on every exit; the library never touches it.
Refcounting alone frees what a command made: no session, table or tape
forms a reference cycle (tests/test_sessions.py checks run, verify, limits).
"""

from __future__ import annotations

import argparse
import functools
import gc
import inspect
import math
import os
import sys
import types
import typing
from json.encoder import encode_basestring_ascii

from . import __version__
from .circuit import CircuitError, ProtocolOutput, evaluate_circuit
from .coeff import CoefficientError, ParamEnv, Record
from .dsl import ParseError, parse_circuit
from .opalg import DISPLAY_THRESHOLD, prune_for_display, quadrature_variance
from .verify import CheckSuite, limit_suite, run_suite, verify_suite

TOOL_NAME = "telesim"
SCALE_ENV_VAR = "TELESIM_LIMIT_SCALE"


# ---------------------------------------------------------------------------
# report document


def _num(value: float) -> float:
    """Normalize a float for the machine format.

    Rounds to 12 significant digits and collapses negative zero, so the
    shortest-repr JSON encoding is byte-stable across runs.
    """
    if value != value or value in (float("inf"), float("-inf")):
        return value
    rounded = float(f"{value:.12g}")
    return 0.0 if rounded == 0 else rounded


def _component(x: float) -> float:
    return 0.0 if abs(x) <= DISPLAY_THRESHOLD else _num(x)


def _quad(c: complex, d: complex) -> list[float]:
    return [_component(c.real), _component(c.imag), _component(d.real), _component(d.imag)]


def _coefficient_map(table: dict) -> dict[str, list[float]]:
    """A displayed float table (see :func:`prune_for_display`) by mode name,
    in mode order, each entry rounded for the report."""
    return {
        mode.name: _quad(c, d)
        for mode, (c, d) in sorted(table.items(), key=lambda kv: kv[0].sort_key())
    }


class ReportDocument(Record):
    """Deterministic account of one evaluated circuit plus analyses."""

    payload: dict
    format: str

    def render(self) -> str:
        if self.format == "machine":
            return _machine_json(self.payload) + "\n"
        return _render_text(self.payload)


def _machine_json(value, newline: str = "\n") -> str:
    """value as machine-format JSON text; newline is the line break and
    indent of value's own line.

    The bytes equal ``json.dumps(value, sort_keys=True, indent=2)`` once
    each non-finite float in value is replaced by the string "nan", "inf"
    or "-inf", so the text is strict JSON. A non-empty object or array puts
    each item on its own line, two spaces deeper than its own line, with a
    comma after every item but the last, and its closing bracket on a line
    at its own depth; object items are sorted by key and written
    ``"key": value``. An empty one is ``{}`` or ``[]``. Keys and strings go
    through ``json.encoder.encode_basestring_ascii`` (ASCII, escaped),
    floats through ``float.__repr__``, ints through ``int.__repr__``, and
    None, True and False are null, true and false. Lists and tuples are
    arrays; keys must be strings. Each container is joined from its items'
    strings, so no list of every piece of the document is built.
    """
    if isinstance(value, float):
        text = float.__repr__(value)
        return text if math.isfinite(value) else f'"{text}"'
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{encode_basestring_ascii(key)}: {_machine_json(item, inner)}"
            for key, item in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_machine_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _base_payload(protocol: ProtocolOutput) -> dict:
    env = protocol.env
    session = protocol.evaluator()
    payload: dict = {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "protocol": protocol.name,
        "protocol_args": _plain_args(protocol.protocol_args),
        "parameters": {k: _num(float(v)) for k, v in sorted(env.values.items())},
        "limit_scale": _num(env.limit_scale),
        "limit_parameters": sorted(protocol.limit_params),
        "inputs": [
            {
                "name": m.name,
                "rail": m.rail,
                "bin": m.time_bin,
                "kind": m.kind.value,
            }
            for m in protocol.input_registry
        ],
        "flags": list(protocol.flags),
    }
    outputs = {}
    roles = [
        ("transmitted", protocol.transmitted),
        ("reflected", protocol.reflected),
        ("tap", protocol.taps),
    ]
    for role, ports in roles:
        for name, expr in ports.items():
            timing = protocol.port_bins[name]
            outputs[name] = {
                "role": role,
                "slot_bin": timing.slot_bin,
                "emission_bin": timing.emission_bin,
                "coefficients": _coefficient_map(prune_for_display(expr, session)),
            }
    payload["outputs"] = outputs
    payload["classical"] = {
        name: {
            "emission_bin": protocol.port_bins[name].emission_bin,
            "coefficients": _coefficient_map(prune_for_display(record, session)),
        }
        for name, record in protocol.classical.items()
    }
    payload["variances"] = {
        name: {
            "x": _num(quadrature_variance(expr, 0.0, session)),
            "p": _num(quadrature_variance(expr, math.pi / 2, session)),
        }
        for name, expr in protocol.all_ports().items()
    }
    return payload


def _plain_args(args: dict) -> dict:
    plain = {}
    for key, value in args.items():
        if isinstance(value, tuple):
            plain[key] = [_num(float(v)) for v in value]
        elif isinstance(value, float):
            plain[key] = _num(value)
        else:
            plain[key] = value
    return plain


def emit_report(output: ProtocolOutput, suite: CheckSuite, format: str = "text") -> ReportDocument:
    """Assemble the report document; identical inputs give identical bytes.

    Each report the suite holds gets its section, and a non-empty check list
    its own; selectivity is always present, null when the suite has none.
    """
    if format not in ("text", "machine"):
        raise ValueError(f"unknown report format {format!r}")
    payload = _base_payload(output)
    causality = suite.causality
    if causality is not None:
        payload["causality"] = {
            "verdict": causality.verdict,
            "mandatory_delay": causality.mandatory_delay,
            "violations": sorted(causality.violations),
            "dependencies": {
                name: sorted([mode.name, time_bin] for mode, time_bin in deps)
                for name, deps in causality.dependencies.items()
            },
        }
    selectivity = suite.selectivity
    payload["selectivity"] = None if selectivity is None else {
        "verdict": selectivity.verdict,
        "clean_port": selectivity.clean_port,
        "target_overlap": [
            _num(selectivity.target_overlap.real),
            _num(selectivity.target_overlap.imag),
        ],
        "orthogonal_leakage": _num(selectivity.orthogonal_leakage),
        "noise_variance_excess": {
            name: _num(v) for name, v in sorted(selectivity.noise_variance_excess.items())
        },
    }
    bog = suite.bogoliubov
    if bog is not None:
        payload["bogoliubov"] = {
            "passed": bog.passed,
            "max_deviation": _num(bog.max_deviation),
            "tol": _num(bog.tol),
            "failures": [
                [left, right, kind, _num(dev)] for left, right, kind, dev in bog.failures
            ],
        }
    if suite.limits is not None:
        payload["limits"] = {
            "parameters": list(suite.limits.params),
            "ports": {
                name: {
                    "converged": result.converged,
                    "divergent": result.divergent,
                    "max_difference": _num(result.max_difference),
                    "limit": _coefficient_map(result.limit),
                }
                for name, result in suite.limits.results.items()
            },
        }
    if suite.checks:
        payload["checks"] = [
            {"check": name, "passed": passed, "detail": detail}
            for name, passed, detail in suite.checks
        ]
    return ReportDocument(payload=payload, format=format)


# ---------------------------------------------------------------------------
# text rendering


def _fmt_complex(quad: list[float]) -> tuple[str, str]:
    def one(re, im):
        if im == 0:
            return f"{re:.10g}"
        return f"{re:.10g}{im:+.10g}i"

    return one(quad[0], quad[1]), one(quad[2], quad[3])


def _table(rows: list[list[str]], indent: str = "  ") -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return [
        indent + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]


def _render_text(payload: dict) -> str:
    lines: list[str] = []
    tool = payload["tool"]
    lines.append(f"{tool['name']} {tool['version']}")
    if payload.get("protocol"):
        args = payload.get("protocol_args") or {}
        argtext = ", ".join(f"{k}={args[k]}" for k in args)
        lines.append(f"protocol: {payload['protocol']}({argtext})")
    params = payload.get("parameters", {})
    if params:
        lines.append(
            "parameters: "
            + " ".join(f"{k}={params[k]:.10g}" for k in sorted(params))
        )
    lines.append(f"limit scale: {payload['limit_scale']:.10g}")
    if payload.get("flags"):
        for flag in payload["flags"]:
            lines.append(f"note: {flag}")

    lines.append("")
    lines.append("outputs")
    rows = [["port", "role", "slot", "emit", "mode", "a", "a^dag"]]
    for name, entry in payload["outputs"].items():
        # the port's columns fill its first row only
        head = [name, entry["role"], str(entry["slot_bin"]), str(entry["emission_bin"])]
        for mode, quad in (entry["coefficients"] or {"-": None}).items():
            rows.append(head + [mode, *(_fmt_complex(quad) if quad else ("0", "0"))])
            head = [""] * 4
    lines.extend(_table(rows))

    if payload.get("variances"):
        lines.append("")
        lines.append("variances")
        rows = [["port", "var X", "var P"]]
        for name in payload["variances"]:
            entry = payload["variances"][name]
            rows.append([name, f"{entry['x']:.10g}", f"{entry['p']:.10g}"])
        lines.extend(_table(rows))

    causality = payload.get("causality")
    if causality:
        lines.append("")
        lines.append(
            f"causality: {causality['verdict']}"
            f" (mandatory delay {causality['mandatory_delay']} bin)"
        )
        for name in causality["violations"]:
            lines.append(f"  violation: {name}")

    selectivity = payload.get("selectivity")
    if selectivity:
        overlap = selectivity["target_overlap"]
        lines.append("")
        lines.append(f"selectivity: {selectivity['verdict']}")
        lines.append(
            f"  clean port {selectivity['clean_port']},"
            f" overlap {overlap[0]:.10g}{overlap[1]:+.10g}i,"
            f" leakage {selectivity['orthogonal_leakage']:.3e}"
        )
        for name, excess in selectivity["noise_variance_excess"].items():
            lines.append(f"  noise excess {name}: {excess:.10g}")

    bog = payload.get("bogoliubov")
    if bog:
        lines.append("")
        lines.append(
            f"bogoliubov: {'pass' if bog['passed'] else 'FAIL'}"
            f" (max deviation {bog['max_deviation']:.3e}, tol {bog['tol']:.1e})"
        )
        for left, right, kind, dev in bog["failures"]:
            lines.append(f"  {kind} [{left}, {right}]: {dev:.3e}")

    limits = payload.get("limits")
    if limits:
        lines.append("")
        lines.append("limits: " + ", ".join(limits["parameters"]) + " -> infinity")
        rows = [["port", "status", "max drift", "limit"]]
        for name in limits["ports"]:
            entry = limits["ports"][name]
            status = (
                "divergent"
                if entry["divergent"]
                else ("converged" if entry["converged"] else "drifting")
            )
            terms = []
            for mode in entry["limit"]:
                quad = entry["limit"][mode]
                a, ad = _fmt_complex(quad)
                pieces = []
                if quad[0] or quad[1]:
                    pieces.append(f"{a} {mode}")
                if quad[2] or quad[3]:
                    pieces.append(f"{ad} {mode}^dag")
                terms.append(" + ".join(pieces) or "0")
            rows.append(
                [name, status, f"{entry['max_difference']:.3e}", "; ".join(terms) or "0"]
            )
        lines.extend(_table(rows))

    checks = payload.get("checks")
    if checks:
        lines.append("")
        lines.append("checks")
        for entry in checks:
            mark = "pass" if entry["passed"] else "FAIL"
            detail = f"  {entry['detail']}" if entry["detail"] else ""
            lines.append(f"  [{mark}] {entry['check']}{detail}")

    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command implementations


def _base_env(args) -> ParamEnv:
    scale = 20.0
    raw = os.environ.get(SCALE_ENV_VAR)
    if raw:
        # at or below zero, L and 2L are one binding or an invalid one
        scale = _finite(raw, f"{SCALE_ENV_VAR} must be a finite number above zero", floor=0.0)
    values = {}
    for item in getattr(args, "param", None) or []:
        key, _, raw_value = item.partition("=")
        if not _ or not key:
            raise _UsageError(f"--param expects NAME=VALUE, got {item!r}")
        values[key] = _finite(raw_value, f"parameter {key!r} needs a finite numeric value")
    return ParamEnv(values, scale)


def _finite(raw: str, message: str, floor: float = -math.inf) -> float:
    # a NaN binding fails every "> tol" test, so every check would pass
    try:
        value = float(raw)
    except ValueError:
        value = math.nan  # rejected below with the same message
    if not (math.isfinite(value) and value > floor):
        raise _UsageError(f"{message}, got {raw!r}")
    return value


class _UsageError(Exception):
    pass


def _load_protocol(path: str, env: ParamEnv) -> ProtocolOutput:
    try:
        with open(path, encoding="utf-8-sig") as handle:  # a leading byte-order mark is dropped
            text = handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    return evaluate_circuit(parse_circuit(text), env)


def _write_out(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {out_path}: {exc}")
    else:
        sys.stdout.write(text)


def _file_command(args) -> int:
    """run, verify and limits: load the file, build the command's suite and
    write its report; 1 if a check of the suite failed."""
    protocol = _load_protocol(args.file, _base_env(args))
    suite = (args.suite(protocol) if args.suite else
             CheckSuite(limits=limit_suite(protocol, args.name or ())))
    _write_out(emit_report(protocol, suite, args.format).render(), args.out)
    return 0 if suite.all_passed else 1


def _protocols_list_command(args) -> int:
    from . import protocols

    rows = [["name", "arguments", "summary"]]
    for name, builder in protocols.PROTOCOLS.items():
        pieces = []
        for arg in inspect.signature(builder).parameters.values():
            default = arg.default
            if isinstance(default, tuple):
                default = ",".join(f"{v:g}" for v in default)
            pieces.append(f"{arg.name}={default}")
        summary = (builder.__doc__ or "").partition("\n")[0]  # None under python -OO
        rows.append([name, " ".join(pieces) or "-", summary])
    sys.stdout.write("\n".join(_table(rows, indent="")) + "\n")
    return 0


def _parse_protocol_args(builder, items: list[str]) -> dict:
    """Each NAME=VALUE typed by the builder's annotation of NAME: int, float
    and str convert the text, a list or tuple (also ``| None``) is a
    comma-separated float list; every float must be finite."""
    params = inspect.signature(builder).parameters
    hints = typing.get_type_hints(builder)
    parsed: dict[str, object] = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep or key not in params:
            known = ", ".join(params) or "none"
            raise _UsageError(
                f"unknown protocol argument {key!r} (takes: {known})"
            )
        hint = hints[key]
        if isinstance(hint, types.UnionType):
            hint = typing.get_args(hint)[0]
        try:
            if typing.get_origin(hint) in (list, tuple):
                parsed[key] = tuple(float(v) for v in raw.split(",") if v)
            else:
                parsed[key] = hint(raw)
        except ValueError:
            raise _UsageError(f"bad value for {key!r}: {raw!r}")
        numbers = parsed[key] if isinstance(parsed[key], tuple) else (parsed[key],)
        if not all(math.isfinite(v) for v in numbers if isinstance(v, float)):
            raise _UsageError(f"parameter {key!r} needs a finite numeric value, got {raw!r}")
    return parsed


def _protocols_build_command(args) -> int:
    from . import protocols

    builder = protocols.PROTOCOLS.get(args.name)
    if builder is None:
        known = ", ".join(protocols.PROTOCOLS)
        raise _UsageError(f"unknown protocol {args.name!r} (known: {known})")
    overrides = _parse_protocol_args(builder, args.param or [])
    _write_out(protocols.protocol_text(args.name, **overrides), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache  # built once per process: parse_args leaves the parser as it was
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="simulate and audit teleportation-based mode filters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, with_params=True):
        if with_params:
            p.add_argument(
                "--param",
                action="append",
                metavar="NAME=VALUE",
                help="bind a circuit parameter (repeatable)",
            )
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.add_argument("--out", metavar="PATH", help="write the report to a file")

    for name, suite, summary in (
        ("run", run_suite, "evaluate a circuit file and report"),
        ("verify", verify_suite, "full analysis suite on a circuit file"),
    ):
        p_file = sub.add_parser(name, help=summary)
        p_file.add_argument("file")
        add_io(p_file)
        p_file.set_defaults(handler=_file_command, suite=suite)

    p_limits = sub.add_parser("limits", help="push scale parameters to their limit")
    p_limits.add_argument("file")
    p_limits.add_argument(
        "--param",
        dest="name",
        action="append",
        metavar="NAME",
        help="parameter to send to infinity (repeatable)",
    )
    add_io(p_limits, with_params=False)
    p_limits.set_defaults(handler=_file_command, param=None, suite=None)

    p_protocols = sub.add_parser("protocols", help="registry access")
    proto_sub = p_protocols.add_subparsers(dest="subcommand", required=True)
    p_list = proto_sub.add_parser("list", help="list known protocols")
    p_list.set_defaults(handler=_protocols_list_command)
    p_build = proto_sub.add_parser("build", help="emit a protocol as circuit text")
    p_build.add_argument("name")
    p_build.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="protocol argument override (repeatable)",
    )
    p_build.add_argument("--out", metavar="PATH")
    p_build.set_defaults(handler=_protocols_build_command)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command, with the cyclic GC paused, and return its exit code."""
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, CircuitError, CoefficientError, ValueError) as exc:
        # ValueError: an input the analyses cannot judge, such as a target
        # that is not normalized or a circuit with no quantum output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # a last guard: the parser caps nesting and runs are forward passes
        print(
            "error: circuit too deep to evaluate:"
            " coefficient nesting exceeds the interpreter's recursion limit",
            file=sys.stderr,
        )
        return 2
    except OverflowError as exc:
        # a binding or limit scale too large for the numbers to represent
        print(f"error: number out of range while evaluating: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory while evaluating the circuit", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
