"""Command line front end and report serialization.

Subcommands: run (evaluate a circuit file and report), verify (full check
suite, nonzero exit on any failure), protocols list / protocols build
(registry access), limits (push declared scale parameters). Reports come
in two formats: text tables for reading and a machine form whose bytes are
deterministic, with sorted keys, 12 significant digits and no negative
zero, so golden files stay stable.

Exit codes: 0 success, 1 failed verification check, 2 usage, parse or
evaluation errors, including circuits nested too deep to evaluate, bindings
too large to evaluate and memory running out.
TELESIM_LIMIT_SCALE overrides the stand-in value used for parameters
declared infinite.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from .circuit import CircuitError, ProtocolOutput
from .coeff import CoefficientError, ParamEnv
from .dsl import ParseError, parse_circuit, serialize_circuit
from .opalg import (
    DISPLAY_THRESHOLD,
    ModeEvaluator,
    prune_for_display,
    quadrature_variance,
    to_complex,
)
from .protocols import PROTOCOLS, build
from .verify import (
    BogoliubovReport,
    CovarianceRecord,
    DependencyReport,
    LimitResult,
    SelectivityReport,
    causality_report,
    check_bogoliubov,
    covariance_oracle,
    limit_coefficients,
    selectivity_report,
    signaling_test,
)

TOOL_NAME = "telesim"
TOOL_VERSION = "0.1.0"
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


def _coefficient_map(expr, session: ModeEvaluator) -> dict[str, list[float]]:
    table = prune_for_display(expr, session)
    return {
        mode.name: _quad(c, d)
        for mode, (c, d) in sorted(table.items(), key=lambda kv: kv[0].sort_key())
    }


@dataclass
class LimitSuite:
    """Per-port limit results for one set of scale parameters."""

    params: tuple[str, ...]
    results: dict[str, LimitResult]


@dataclass
class CheckSuite:
    """Named pass/fail outcomes; any failure makes verify exit nonzero."""

    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append((name, bool(passed), detail))

    @property
    def all_passed(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


@dataclass
class ReportDocument:
    """Deterministic account of one evaluated circuit plus analyses."""

    payload: dict
    format: str

    def render(self) -> str:
        if self.format == "machine":
            return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"
        return _render_text(self.payload)


def _base_payload(protocol: ProtocolOutput) -> dict:
    env = protocol.env
    session = protocol.evaluator()
    payload: dict = {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
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
                "coefficients": _coefficient_map(expr, session),
            }
    payload["outputs"] = outputs
    payload["classical"] = {
        name: {
            "emission_bin": protocol.port_bins[name].emission_bin,
            "coefficients": _coefficient_map(signal.expr, session),
        }
        for name, signal in protocol.classical.items()
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


def _fold_analysis(payload: dict, analysis) -> None:
    if isinstance(analysis, DependencyReport):
        payload["causality"] = {
            "verdict": analysis.verdict,
            "mandatory_delay": analysis.mandatory_delay,
            "violations": sorted(analysis.violations),
            "dependencies": {
                name: sorted([mode.name, time_bin] for mode, time_bin in deps)
                for name, deps in analysis.dependencies.items()
            },
        }
    elif isinstance(analysis, SelectivityReport):
        payload["selectivity"] = {
            "verdict": analysis.verdict,
            "clean_port": analysis.clean_port,
            "target_overlap": [
                _num(analysis.target_overlap.real),
                _num(analysis.target_overlap.imag),
            ],
            "orthogonal_leakage": _num(analysis.orthogonal_leakage),
            "noise_variance_excess": {
                name: _num(v)
                for name, v in sorted(analysis.noise_variance_excess.items())
            },
        }
    elif isinstance(analysis, BogoliubovReport):
        payload["bogoliubov"] = {
            "passed": analysis.passed,
            "max_deviation": _num(analysis.max_deviation),
            "tol": _num(analysis.tol),
            "failures": [
                [left, right, kind, _num(dev)]
                for left, right, kind, dev in analysis.failures
            ],
        }
    elif isinstance(analysis, LimitSuite):
        payload["limits"] = {
            "parameters": list(analysis.params),
            "ports": {
                name: {
                    "converged": result.converged,
                    "divergent": result.divergent,
                    "max_difference": _num(result.max_difference),
                    "limit": {
                        mode.name: _quad(c, d)
                        for mode, (c, d) in sorted(
                            result.limit.items(), key=lambda kv: kv[0].sort_key()
                        )
                    },
                }
                for name, result in analysis.results.items()
            },
        }
    elif isinstance(analysis, CovarianceRecord):
        payload["covariance"] = {
            name: {"x": _num(vx), "p": _num(vp)}
            for name, (vx, vp) in sorted(analysis.variances.items())
        }
    elif isinstance(analysis, CheckSuite):
        payload["checks"] = [
            {"check": name, "passed": passed, "detail": detail}
            for name, passed, detail in analysis.checks
        ]
    else:
        raise TypeError(f"cannot fold analysis {type(analysis).__name__}")


def emit_report(output: ProtocolOutput, analyses: list, format: str = "text") -> ReportDocument:
    """Assemble the report document; identical inputs give identical bytes."""
    if format not in ("text", "machine"):
        raise ValueError(f"unknown report format {format!r}")
    payload = _base_payload(output)
    payload.setdefault("selectivity", None)
    for analysis in analyses:
        _fold_analysis(payload, analysis)
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
    if not rows:
        return []
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
    for name in payload["outputs"]:
        entry = payload["outputs"][name]
        first = True
        coeffs = entry["coefficients"]
        if not coeffs:
            rows.append(
                [name, entry["role"], str(entry["slot_bin"]), str(entry["emission_bin"]), "-", "0", "0"]
            )
            continue
        for mode in coeffs:
            a, ad = _fmt_complex(coeffs[mode])
            rows.append(
                [
                    name if first else "",
                    entry["role"] if first else "",
                    str(entry["slot_bin"]) if first else "",
                    str(entry["emission_bin"]) if first else "",
                    mode,
                    a,
                    ad,
                ]
            )
            first = False
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
        try:
            scale = float(raw)
        except ValueError:
            raise _UsageError(f"{SCALE_ENV_VAR} must be a number, got {raw!r}")
    values = {}
    for item in getattr(args, "param", None) or []:
        key, _, raw_value = item.partition("=")
        if not _ or not key:
            raise _UsageError(f"--param expects NAME=VALUE, got {item!r}")
        try:
            values[key] = float(raw_value)
        except ValueError:
            raise _UsageError(f"parameter {key!r} needs a numeric value, got {raw_value!r}")
    return ParamEnv(values, scale)


class _UsageError(Exception):
    pass


def _load_protocol(path: str, env: ParamEnv) -> ProtocolOutput:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    from .circuit import evaluate_circuit

    ast = parse_circuit(text)
    _require_declared(ast, env.values)
    protocol = evaluate_circuit(ast, env)
    _attach_target(protocol)
    return protocol


def _require_declared(ast, names) -> None:
    declared = {p.name for p in ast.params}
    for name in names:
        if name not in declared:
            raise _UsageError(f"circuit declares no parameter {name!r}")


def _attach_target(protocol: ProtocolOutput) -> None:
    """Recover the declared target mode for registry protocols.

    A circuit file names its protocol but carries no target expression;
    rebuilding from the registry supplies one as long as the declaration
    matches. Files that diverge from their registry namesake simply get no
    selectivity verdict.
    """
    if protocol.target is not None or not protocol.name:
        return
    info = PROTOCOLS.get(protocol.name)
    if info is None:
        return
    try:
        rebuilt = info.build(**protocol.protocol_args)
    except (TypeError, ValueError):
        return
    if [m for m in rebuilt.input_registry] == [m for m in protocol.input_registry]:
        protocol.target = rebuilt.target
        protocol.expected_limit = rebuilt.expected_limit


def _declared_limit_gap(protocol: ProtocolOutput) -> float:
    """Largest coefficient distance from the declared limit forms.

    Evaluated at twice the limit scale so the comparison sits well inside
    convergence; ports the protocol declares no form for (those that
    legitimately diverge) are skipped.
    """
    evaluator = protocol.evaluator().bind(
        **{p: 2 * protocol.env.limit_scale for p in protocol.limit_params}
    )
    ports = protocol.all_ports()
    worst = 0.0
    for name, want in protocol.expected_limit.items():
        expr = ports.get(name)
        if expr is None:
            continue
        have = evaluator.table(expr)
        target = evaluator.table(want)
        for mode in have.keys() | target.keys():
            hc, hd = have.get(mode, (0, 0))
            tc, td = target.get(mode, (0, 0))
            worst = max(worst, abs(to_complex(hc - tc)), abs(to_complex(hd - td)))
    return worst


def _write_out(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _run_command(args) -> int:
    env = _base_env(args)
    protocol = _load_protocol(args.file, env)
    analyses: list = [causality_report(protocol)]
    if protocol.target is not None:
        analyses.append(selectivity_report(protocol))
    if protocol.limit_params:
        session = protocol.evaluator()
        analyses.append(
            LimitSuite(
                tuple(protocol.limit_params),
                {
                    name: limit_coefficients(expr, protocol.limit_params, session)
                    for name, expr in protocol.quantum_ports().items()
                },
            )
        )
    document = emit_report(protocol, analyses, args.format)
    _write_out(document.render(), args.out)
    return 0


def _verify_command(args) -> int:
    env = _base_env(args)
    protocol = _load_protocol(args.file, env)
    checks = CheckSuite()

    session = protocol.evaluator()
    bog = check_bogoliubov(protocol.quantum_ports(), session, tol=1e-10)
    checks.add(
        "bogoliubov canonical output set",
        bog.passed,
        f"max deviation {bog.max_deviation:.3e}",
    )

    causality = causality_report(protocol)
    checks.add(
        "causality",
        causality.verdict == "causal",
        f"verdict {causality.verdict}, delay {causality.mandatory_delay}",
    )

    bins = sorted({m.time_bin for m in protocol.input_registry})
    leak = max((signaling_test(protocol, b) for b in bins), default=0.0)
    checks.add("no early output carries later input", leak == 0.0, f"max weight {leak:.3e}")

    # pipeline equivalence is checked at a well-conditioned working point:
    # recovery chains cancel terms of order e^{2(r+s)}, which float64 cannot
    # resolve at the limit stand-in, and any finite value probes the same code
    probe = session.bind(
        **{
            p: min(protocol.env.values[p], 2.0)
            for p in protocol.limit_params
            if p in protocol.env.values
        }
    )
    cov = covariance_oracle(protocol.circuit, probe.env)
    worst = 0.0
    for name, expr in protocol.all_ports().items():
        for phase in (0.0, math.pi / 2):
            op_side = quadrature_variance(expr, phase, probe)
            cov_side = cov.variance(name, phase)
            scale = max(1.0, abs(op_side), abs(cov_side))
            worst = max(worst, abs(op_side - cov_side) / scale)
    checks.add(
        "covariance oracle matches operator variances",
        worst <= 1e-10,
        f"max relative gap {worst:.3e}",
    )

    limit_suite = None
    if protocol.limit_params:
        results = {
            name: limit_coefficients(expr, protocol.limit_params, session)
            for name, expr in protocol.quantum_ports().items()
        }
        limit_suite = LimitSuite(tuple(protocol.limit_params), results)
        if protocol.expected_limit:
            gap = _declared_limit_gap(protocol)
            checks.add(
                "declared limit forms reached",
                gap <= 1e-8,
                f"max coefficient gap {gap:.3e}",
            )

    analyses: list = [causality, bog, checks]
    if protocol.target is not None:
        analyses.insert(2, selectivity_report(protocol))
    if limit_suite is not None:
        analyses.append(limit_suite)
    document = emit_report(protocol, analyses, args.format)
    _write_out(document.render(), args.out)
    return 0 if checks.all_passed else 1


def _limits_command(args) -> int:
    env = _base_env(args)
    protocol = _load_protocol(args.file, env)
    params = args.name or protocol.limit_params
    if not params:
        raise _UsageError("no scale parameters given and none declared infinite")
    _require_declared(protocol.circuit, params)
    session = protocol.evaluator()
    suite = LimitSuite(
        tuple(params),
        {
            name: limit_coefficients(expr, list(params), session)
            for name, expr in protocol.quantum_ports().items()
        },
    )
    document = emit_report(protocol, [suite], args.format)
    _write_out(document.render(), args.out)
    return 0


def _protocols_list_command(args) -> int:
    rows = [["name", "arguments", "summary"]]
    for name, info in PROTOCOLS.items():
        pieces = []
        for spec in info.args:
            default = spec.default
            if isinstance(default, tuple):
                default = ",".join(f"{v:g}" for v in default)
            pieces.append(f"{spec.name}={default}")
        rows.append([name, " ".join(pieces) or "-", info.summary])
    sys.stdout.write("\n".join(_table(rows, indent="")) + "\n")
    return 0


def _parse_protocol_args(info, items: list[str]) -> dict:
    specs = {spec.name: spec for spec in info.args}
    parsed: dict[str, object] = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep or key not in specs:
            known = ", ".join(specs) or "none"
            raise _UsageError(
                f"unknown protocol argument {key!r} (takes: {known})"
            )
        spec = specs[key]
        try:
            if spec.kind == "int":
                parsed[key] = int(raw)
            elif spec.kind == "float":
                parsed[key] = float(raw)
            elif spec.kind == "float_list":
                parsed[key] = tuple(float(v) for v in raw.split(",") if v)
            else:
                parsed[key] = raw
        except ValueError:
            raise _UsageError(f"bad value for {key!r}: {raw!r}")
    return parsed


def _protocols_build_command(args) -> int:
    info = PROTOCOLS.get(args.name)
    if info is None:
        known = ", ".join(PROTOCOLS)
        raise _UsageError(f"unknown protocol {args.name!r} (known: {known})")
    overrides = _parse_protocol_args(info, args.param or [])
    try:
        protocol = build(args.name, **overrides)
    except ValueError as exc:
        raise _UsageError(str(exc))
    _write_out(serialize_circuit(protocol.circuit), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


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

    p_run = sub.add_parser("run", help="evaluate a circuit file and report")
    p_run.add_argument("file")
    add_io(p_run)
    p_run.set_defaults(handler=_run_command)

    p_verify = sub.add_parser("verify", help="full analysis suite on a circuit file")
    p_verify.add_argument("file")
    add_io(p_verify)
    p_verify.set_defaults(handler=_verify_command)

    p_limits = sub.add_parser("limits", help="push scale parameters to their limit")
    p_limits.add_argument("file")
    p_limits.add_argument(
        "--param",
        dest="name",
        action="append",
        metavar="NAME",
        help="parameter to send to infinity (repeatable)",
    )
    p_limits.add_argument("--format", choices=("text", "machine"), default="text")
    p_limits.add_argument("--out", metavar="PATH")
    p_limits.set_defaults(handler=_limits_command, param=None)

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
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (CircuitError, CoefficientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the scalar evaluator recurses once per level of coefficient nesting
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


if __name__ == "__main__":
    sys.exit(main())
