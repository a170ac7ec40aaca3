"""Textual circuit language: parser and canonical serializer.

One statement per line, `#` comments, define-before-use wires with
single assignment: ``protocol``, ``param`` and ``mode`` declarations,
elements, ``output``s, then ``target = TERMS`` (the mode of interest) and
``expect PORT = TERMS`` (the form a quantum output reaches as the infinite
parameters grow). The seven elements read, with ``r`` a measurement
record and every other wire a mode wire:

    (a, b) = split(t, r, alpha=EXPR, phi=EXPR)
    (a, b) = squeeze(x, y, gain=EXPR, phase=EXPR)
    (a, b) = unsqueeze(x, y, gain=EXPR)
    a = phase(x, phi=EXPR)
    r = homodyne(signal, resource, xphase=EXPR, pphase=EXPR)
    r = combine(TERMS)
    a = displace(resource, r, gain=EXPR[, bin=INT])

Parser and serializer read this wiring from :data:`telesim.circuit.ELEMENTS`.
Terms are comma-separated ``WEIGHT*NAME``: records for combine, declared
modes for target and expect, ``WEIGHT*MODE^dag`` for a creation operator.
The serializer emits a canonical spelling (spaces around + and -, tight *
and /, minimal parentheses), so a file produced by it re-parses to a
structurally equal program and re-serializes to identical bytes.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .circuit import (
    ELEMENTS,
    MODE,
    RECORD,
    CircuitAst,
    CombineStmt,
    DisplaceStmt,
    ExpectStmt,
    Loc,
    ModeDecl,
    OutputStmt,
    ParamDecl,
    ProtocolDecl,
    ROLES,
    Stmt,
    TargetStmt,
)
from .coeff import (
    Add,
    Call,
    CoefExpr,
    Div,
    FUNCTION_NAMES,
    ImagUnit,
    Mul,
    Neg,
    Num,
    Param,
    ParamEnv,
    PiConst,
    Sub,
    evaluate,
)
from .opalg import ModeKind

_MAX_DEPTH = 100

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()\[\],=*+\-/^])
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    """Syntax or resolution failure with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        kind = match.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, match.group(), line_no, match.start() + 1))
        pos = match.end()
    return tokens


class _LineParser:
    """Cursor over one statement's tokens."""

    def __init__(self, tokens: list[_Token], line_no: int, line_len: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line_no
        self.end_column = line_len + 1
        self.depth = 0
        self.names: list[str] = []  # each Param made, in source order

    def error(self, message: str) -> ParseError:
        column = self.tokens[self.pos].column if self.pos < len(self.tokens) else self.end_column
        return ParseError(message, self.line, column)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        # every caller has peeked a token first
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def at_punct(self, text: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "punct" and token.text == text

    def expect_punct(self, text: str) -> _Token:
        if not self.at_punct(text):
            raise self.error(f"expected {text!r}")
        return self.next()

    def expect_ident(self, what: str = "identifier") -> _Token:
        token = self.peek()
        if token is None or token.kind != "ident":
            raise self.error(f"expected {what}")
        return self.next()

    def expect_keyword(self, word: str) -> None:
        token = self.expect_ident(f"keyword {word!r}")
        if token.text != word:
            raise ParseError(f"expected keyword {word!r}", token.line, token.column)

    def expect_end(self) -> None:
        if self.peek() is not None:
            raise self.error("unexpected trailing input")

    def expect_int(self, what: str) -> int:
        token = self.peek()
        if token is None or token.kind != "number" or not token.text.isdigit():
            raise self.error(f"expected integer {what}")
        self.next()
        return int(token.text)

    def nested(self, parse) -> CoefExpr:
        """Parse what the '(' or unary '-' at the cursor opens: one nesting level."""
        if self.depth >= _MAX_DEPTH:
            raise self.error("expression too deeply nested")
        self.next()
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    # expression grammar: expr := term (('+'|'-') term)*
    #                     term := factor (('*'|'/') factor)*
    #                     factor := '-' factor | atom
    def parse_expr(self) -> CoefExpr:
        node = self.parse_term()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.next().text
            right = self.parse_term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def parse_term(self) -> CoefExpr:
        node = self.parse_factor()
        while self.at_punct("*") or self.at_punct("/"):
            op = self.next().text
            right = self.parse_factor()
            node = Mul(node, right) if op == "*" else Div(node, right)
        return node

    def parse_factor(self) -> CoefExpr:
        if self.at_punct("-"):
            return Neg(self.nested(self.parse_factor))
        return self.parse_atom()

    def parse_atom(self) -> CoefExpr:
        token = self.peek()
        if token is None:
            raise self.error("expected expression")
        if token.kind == "number":
            self.next()
            return Num(_number_value(token.text))
        if token.kind == "punct" and token.text == "(":
            inner = self.nested(self.parse_expr)
            self.expect_punct(")")
            return inner
        if token.kind == "ident":
            self.next()
            name = token.text
            if name == "pi":
                return PiConst()
            if name == "i":
                return ImagUnit()
            if name in FUNCTION_NAMES:
                if not self.at_punct("("):
                    raise ParseError(
                        f"function {name!r} requires an argument list", token.line, token.column
                    )
                arg = self.nested(self.parse_expr)
                self.expect_punct(")")
                return Call(name, arg)
            self.names.append(name)
            return Param(name)
        raise self.error("expected expression")


def _number_value(text: str) -> float:
    return int(text) if text.isdigit() else float(text)


class _CircuitParser:
    def __init__(self):
        self.statements: list[Stmt] = []
        self.params: set[str] = set()
        self.wires: dict[str, str] = {}  # name -> MODE | RECORD
        self.rail_bins: dict[str, int] = {}
        self.modes: set[str] = set()
        self.outputs: dict[str, str] = {}  # name -> kind of its wire
        self.expected: set[str] = set()
        self.protocol_seen = self.target_seen = False

    def parse(self, text: str) -> CircuitAst:
        for index, raw in enumerate(text.split("\n"), start=1):
            tokens = _tokenize_line(raw, index)
            if not tokens:
                continue
            line = _LineParser(tokens, index, len(raw))
            self.statements.append(self._statement(line))
        return CircuitAst(tuple(self.statements))

    _KEYWORDS = ("param", "mode", "output", "protocol", "target", "expect")
    _RESERVED = frozenset(("pi", "i", "infinity") + _KEYWORDS)

    def _fresh(self, token: _Token, what: str) -> str:
        name = token.text
        if name in self.params or name in self.wires:
            raise ParseError(f"{what} {name!r} already defined", token.line, token.column)
        if name in FUNCTION_NAMES or name in self._RESERVED:
            raise ParseError(f"name {name!r} is reserved", token.line, token.column)
        return name

    def _check_params(self, names: list[str], start: _Token) -> None:
        undeclared = sorted(set(names) - self.params)
        if undeclared:
            raise ParseError(f"undeclared parameter {undeclared[0]!r}", start.line, start.column)

    def _expr(self, line: _LineParser) -> CoefExpr:
        start, mark = line.peek(), len(line.names)
        expr = line.parse_expr()  # raises unless a token starts it
        self._check_params(line.names[mark:], start)
        return expr

    def _keyword_expr(self, line: _LineParser, key: str) -> CoefExpr:
        line.expect_punct(",")
        line.expect_keyword(key)
        line.expect_punct("=")
        return self._expr(line)

    def _wire_in(self, line: _LineParser, kind: str) -> str:
        token = line.expect_ident("wire name")
        declared = self.wires.get(token.text)
        if declared is None:
            raise ParseError(f"undefined wire {token.text!r}", token.line, token.column)
        if declared != kind:
            raise ParseError(f"wire {token.text!r} is not a {kind}", token.line, token.column)
        return token.text

    def _statement(self, line: _LineParser) -> Stmt:
        token = line.peek()
        loc = Loc(token.line, token.column)
        if token.kind == "ident" and token.text in self._KEYWORDS:
            line.next()
            handler = getattr(self, f"_parse_{token.text}")
            return handler(line, loc)
        return self._parse_assignment(line, loc)

    def _parse_param(self, line: _LineParser, loc: Loc) -> ParamDecl:
        name = self._fresh(line.expect_ident("parameter name"), "parameter")
        line.expect_punct("=")
        token = line.peek()
        if token is not None and token.kind == "ident" and token.text == "infinity":
            line.next()
            line.expect_end()
            self.params.add(name)
            return ParamDecl(loc, name, None, infinite=True)
        negative = False
        if line.at_punct("-"):
            line.next()
            negative = True
        num = line.peek()
        if num is None or num.kind != "number":
            raise line.error("expected a number or 'infinity'")
        line.next()
        line.expect_end()
        value = float(num.text)
        self.params.add(name)
        return ParamDecl(loc, name, -value if negative else value)

    def _parse_mode(self, line: _LineParser, loc: Loc) -> ModeDecl:
        kind_token = line.expect_ident("mode kind")
        try:
            kind = ModeKind(kind_token.text)
        except ValueError:
            raise ParseError(
                f"unknown mode kind {kind_token.text!r}", kind_token.line, kind_token.column
            ) from None
        name = self._fresh(line.expect_ident("mode name"), "mode")
        line.expect_keyword("rail")
        line.expect_punct("=")
        rail = line.expect_ident("rail name").text
        line.expect_keyword("bin")
        line.expect_punct("=")
        bin_token = line.peek()
        time_bin = line.expect_int("bin")
        line.expect_end()
        last = self.rail_bins.get(rail)
        if last is not None and time_bin < last:
            raise ParseError(
                f"bin {time_bin} breaks nondecreasing order on rail {rail!r}",
                bin_token.line,
                bin_token.column,
            )
        self.rail_bins[rail] = time_bin
        self.wires[name] = MODE
        self.modes.add(name)
        return ModeDecl(loc, kind, name, rail, time_bin)

    def _parse_output(self, line: _LineParser, loc: Loc) -> OutputStmt:
        name_token = line.expect_ident("output name")
        if name_token.text in self.outputs:
            raise ParseError(
                f"output {name_token.text!r} already declared", name_token.line, name_token.column
            )
        line.expect_punct("=")
        wire_token = line.expect_ident("wire name")
        if wire_token.text not in self.wires:
            raise ParseError(
                f"undefined wire {wire_token.text!r}", wire_token.line, wire_token.column
            )
        slot_bin = None
        role = None
        while line.peek() is not None:
            key = line.expect_ident("'bin' or 'role'")
            line.expect_punct("=")
            if key.text == "bin" and slot_bin is None:
                slot_bin = line.expect_int("bin")
            elif key.text == "role" and role is None:
                role_token = line.expect_ident("role")
                if role_token.text not in ROLES:
                    raise ParseError(
                        f"unknown role {role_token.text!r}", role_token.line, role_token.column
                    )
                role = role_token.text
            else:
                raise ParseError(f"unexpected clause {key.text!r}", key.line, key.column)
        self.outputs[name_token.text] = self.wires[wire_token.text]
        return OutputStmt(loc, name_token.text, wire_token.text, slot_bin, role)

    def _parse_protocol(self, line: _LineParser, loc: Loc) -> ProtocolDecl:
        if self.protocol_seen:
            raise ParseError("duplicate protocol declaration", loc.line, loc.column)
        self.protocol_seen = True
        name = line.expect_ident("protocol name").text
        line.expect_punct("(")
        args: list[tuple[str, object]] = []
        if not line.at_punct(")"):
            while True:
                key = line.expect_ident("argument name").text
                line.expect_punct("=")
                args.append((key, self._protocol_value(line)))
                if line.at_punct(","):
                    line.next()
                    continue
                break
        line.expect_punct(")")
        line.expect_end()
        return ProtocolDecl(loc, name, tuple(args))

    def _parse_target(self, line: _LineParser, loc: Loc) -> TargetStmt:
        if self.target_seen:
            raise ParseError("duplicate target declaration", loc.line, loc.column)
        self.target_seen = True
        line.expect_punct("=")
        terms = self._terms(line, "target")
        line.expect_end()
        return TargetStmt(loc, terms)

    def _parse_expect(self, line: _LineParser, loc: Loc) -> ExpectStmt:
        port = line.expect_ident("output name")
        if self.outputs.get(port.text) != MODE:
            raise ParseError(f"no quantum output {port.text!r} declared", port.line, port.column)
        if port.text in self.expected:
            raise ParseError(f"duplicate expect for {port.text!r}", port.line, port.column)
        self.expected.add(port.text)
        line.expect_punct("=")
        terms = self._terms(line, "expect")
        line.expect_end()
        return ExpectStmt(loc, port.text, terms)

    def _protocol_value(self, line: _LineParser):
        if line.at_punct("["):
            line.next()
            items = []
            if not line.at_punct("]"):
                while True:
                    items.append(self._protocol_number(line))
                    if line.at_punct(","):
                        line.next()
                        continue
                    break
            line.expect_punct("]")
            return tuple(items)
        token = line.peek()
        if token is not None and token.kind == "ident":
            following = line.tokens[line.pos + 1] if line.pos + 1 < len(line.tokens) else None
            bare = following is None or (
                following.kind == "punct" and following.text in (",", ")")
            )
            if bare and token.text not in ("pi", "i") and token.text not in self.params:
                line.next()
                return token.text
        return self._protocol_number(line)

    def _protocol_number(self, line: _LineParser) -> float:
        # protocol arguments are plain data, not expressions over params
        token = line.peek()
        expr = self._expr(line)
        try:
            value = evaluate(expr, ParamEnv({}))
        except Exception:
            value = None
        if value is None or value.imag != 0:
            where = token if token is not None else line.tokens[-1]
            raise ParseError(
                "protocol argument must be a real number", where.line, where.column
            )
        return value.real

    def _parse_assignment(self, line: _LineParser, loc: Loc) -> Stmt:
        """``(a, b) = ELEMENT(...)`` or ``a = ELEMENT(...)``, wired by its table entry."""
        if line.at_punct("("):
            line.next()
            targets = [line.expect_ident("wire name")]
            line.expect_punct(",")
            targets.append(line.expect_ident("wire name"))
            line.expect_punct(")")
        else:
            targets = [line.expect_ident("statement")]
        line.expect_punct("=")
        elem = line.expect_ident("element name")
        line.expect_punct("(")
        found = _ELEMENT_FORMS.get((elem.text, len(targets)))
        if found is None:
            what = "two-output element" if len(targets) == 2 else "element"
            raise ParseError(f"unknown {what} {elem.text!r}", elem.line, elem.column)
        stmt_type, element = found
        fields: dict[str, object] = {}
        for index, (name, kind) in enumerate(element.inputs):
            if index:
                line.expect_punct(",")
            fields[name] = self._wire_in(line, kind)
        for key in element.coefficients:
            fields[key] = self._keyword_expr(line, key)
        if stmt_type is CombineStmt:
            fields["terms"] = tuple(term[:2] for term in self._terms(line, "combine"))
        if stmt_type is DisplaceStmt and line.at_punct(","):
            line.next()
            line.expect_keyword("bin")
            line.expect_punct("=")
            fields["claimed_bin"] = line.expect_int("bin")
        line.expect_punct(")")
        line.expect_end()
        outs = [self._fresh(token, "wire") for token in targets]
        if len(set(outs)) < len(outs):
            raise ParseError(f"wire {outs[-1]!r} bound twice", targets[-1].line, targets[-1].column)
        for out, (name, kind) in zip(outs, element.outputs):
            self.wires[out] = kind
            fields[name] = out
        return stmt_type(loc, **fields)

    def _terms(self, line: _LineParser, what: str) -> tuple:
        terms = [self._term(line, what)]
        while line.at_punct(","):
            line.next()
            terms.append(self._term(line, what))
        return tuple(terms)

    def _term(self, line: _LineParser, what: str) -> tuple[CoefExpr, str, bool]:
        """WEIGHT*RECORD for combine; WEIGHT*MODE or WEIGHT*MODE^dag otherwise."""
        start, mark = line.peek(), len(line.names)
        expr = line.parse_expr()  # raises unless a token starts it
        noun = "RECORD" if what == "combine" else "MODE"
        if not isinstance(expr, Mul) or not isinstance(expr.right, Param):
            raise ParseError(f"{what} term must be WEIGHT*{noun}", start.line, start.column)
        name = expr.right.name
        if what == "combine" and self.wires.get(name) != RECORD:
            raise ParseError(f"wire {name!r} is not a measurement record", start.line, start.column)
        if what != "combine" and name not in self.modes:
            raise ParseError(f"{name!r} is not a declared mode", start.line, start.column)
        creation = what != "combine" and line.at_punct("^")
        if creation:
            line.next()
            line.expect_keyword("dag")
        # every name but the trailing NAME is the weight's
        self._check_params(line.names[mark:-1], start)
        return expr.left, name, creation


_ELEMENT_FORMS = {
    (element.keyword, len(element.outputs)): (stmt_type, element)
    for stmt_type, element in ELEMENTS.items()
}


def parse_circuit(text: str) -> CircuitAst:
    """Parse source text; raises ParseError with line/column on failure."""
    if not isinstance(text, str):
        raise ParseError("source must be text", 1, 1)
    return _CircuitParser().parse(text)


# ---------------------------------------------------------------------------
# canonical serialization

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_ATOM = 1, 2, 3, 4


def format_number(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError("cannot serialize a non-finite number")
    if value == 0:
        return "0"
    if float(value).is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def format_coef(expr: CoefExpr) -> str:
    return _format_expr(expr, 0)


def _format_expr(expr: CoefExpr, need: int) -> str:
    if isinstance(expr, Num):
        value = expr.value
        if value.imag != 0:
            raise ValueError("complex literals have no source form; build them from i")
        if value.real < 0:
            text = "-" + format_number(-value.real)
            return f"({text})" if need > _LEVEL_UNARY else text
        return format_number(value.real)
    if isinstance(expr, Param):
        return expr.name
    if isinstance(expr, PiConst):
        return "pi"
    if isinstance(expr, ImagUnit):
        return "i"
    if isinstance(expr, Call):
        return f"{expr.func}({_format_expr(expr.arg, 0)})"
    if isinstance(expr, Neg):
        text = "-" + _format_expr(expr.operand, _LEVEL_UNARY)
        return f"({text})" if need > _LEVEL_UNARY else text
    if isinstance(expr, (Add, Sub)):
        op = " + " if isinstance(expr, Add) else " - "
        text = _format_expr(expr.left, _LEVEL_ADD) + op + _format_expr(expr.right, _LEVEL_ADD + 1)
        return f"({text})" if need > _LEVEL_ADD else text
    if isinstance(expr, (Mul, Div)):
        op = "*" if isinstance(expr, Mul) else "/"
        text = _format_expr(expr.left, _LEVEL_MUL) + op + _format_expr(expr.right, _LEVEL_MUL + 1)
        return f"({text})" if need > _LEVEL_MUL else text
    raise ValueError(f"expression {type(expr).__name__} has no source form")


def _format_protocol_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return "[" + ", ".join(_format_protocol_value(item) for item in value) + "]"
    if isinstance(value, (int, float)):
        return format_number(float(value))
    raise ValueError(f"protocol argument {value!r} has no source form")


def _format_terms(terms) -> str:
    return ", ".join(
        f"{_format_expr(weight, _LEVEL_MUL)}*{name}" + ("^dag" if creation else "")
        for weight, name, creation in terms
    )


def serialize_statement(stmt: Stmt) -> str:
    if isinstance(stmt, ParamDecl):
        value = "infinity" if stmt.infinite else format_number(stmt.value)
        return f"param {stmt.name} = {value}"
    if isinstance(stmt, ModeDecl):
        return f"mode {stmt.kind.value} {stmt.name} rail={stmt.rail} bin={stmt.time_bin}"
    element = ELEMENTS.get(type(stmt))
    if element is not None:
        outs = ", ".join(getattr(stmt, name) for name, _ in element.outputs)
        args = [getattr(stmt, name) for name, _ in element.inputs]
        args += [f"{key}={format_coef(getattr(stmt, key))}" for key in element.coefficients]
        if isinstance(stmt, CombineStmt):
            args.append(_format_terms((weight, name, False) for weight, name in stmt.terms))
        if isinstance(stmt, DisplaceStmt) and stmt.claimed_bin is not None:
            args.append(f"bin={stmt.claimed_bin}")
        if len(element.outputs) > 1:
            outs = f"({outs})"
        return f"{outs} = {element.keyword}({', '.join(args)})"
    if isinstance(stmt, OutputStmt):
        text = f"output {stmt.name} = {stmt.wire}"
        if stmt.slot_bin is not None:
            text += f" bin={stmt.slot_bin}"
        if stmt.role is not None:
            text += f" role={stmt.role}"
        return text
    if isinstance(stmt, ProtocolDecl):
        args = ", ".join(f"{key}={_format_protocol_value(value)}" for key, value in stmt.args)
        return f"protocol {stmt.name}({args})"
    if isinstance(stmt, TargetStmt):
        return f"target = {_format_terms(stmt.terms)}"
    if isinstance(stmt, ExpectStmt):
        return f"expect {stmt.port} = {_format_terms(stmt.terms)}"
    raise ValueError(f"statement {type(stmt).__name__} has no source form")


def serialize_circuit(ast: CircuitAst) -> str:
    return "\n".join(serialize_statement(stmt) for stmt in ast.statements) + "\n"
