"""Closed-form scalar coefficients over named real parameters.

Expressions are small immutable trees (shared freely, so in practice DAGs)
built from complex constants, parameter references, the imaginary unit, pi,
arithmetic, and the handful of functions the circuits need. They evaluate
numerically under a :class:`ParamEnv`; no symbolic simplification happens
beyond cheap constant folding in the constructors. Nodes hold their fields
only: evaluation state lives on a :class:`Tape`, the nodes of one circuit
as instructions, which keeps the binding-invariant values its runs read.

Evaluation runs on a dedicated mpmath context with 160 decimal digits.
Limit checks substitute scales up to twice the default 20, which drives
intermediate magnitudes past anything float64 can cancel correctly. Each
run (:class:`Evaluator`) carries raw mpmath tuples and a value memo.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import mpmath
from mpmath.libmp import fzero, mpc_add, mpc_conjugate, mpc_div, mpc_is_infnan, mpc_mul
from mpmath.libmp import mpc_mul_mpf, mpc_neg, mpc_sub

MP = mpmath.mp.clone()
MP.dps = 160

_FUNCTIONS = {
    "cosh": MP.cosh,
    "sinh": MP.sinh,
    "tanh": MP.tanh,
    "sech": MP.sech,
    "exp": MP.exp,
    "sqrt": MP.sqrt,
    "ln": MP.ln,
    "arccosh": MP.acosh,
}

FUNCTION_NAMES = frozenset(_FUNCTIONS)


class CoefficientError(ValueError):
    """Raised for malformed expressions or bad evaluation requests."""


@dataclass(frozen=True)
class ParamEnv:
    """Binding of parameter names to real values.

    ``limit_scale`` is the stand-in value for parameters declared to tend to
    infinity; callers double it to confirm convergence.
    """

    values: dict[str, float]
    limit_scale: float = 20.0

    def bind(self, **overrides: float) -> "ParamEnv":
        merged = dict(self.values)
        merged.update(overrides)
        return ParamEnv(merged, self.limit_scale)


class CoefExpr:
    """Base class; subclasses are frozen dataclasses forming the tree.

    The operator sugar folds constants so machine-built expressions stay
    small. The parser bypasses it and calls node constructors directly,
    which preserves the exact shape of user-written source.
    """

    __slots__ = ()

    def __add__(self, other):
        return _fold_add(self, as_coef(other))

    def __radd__(self, other):
        return _fold_add(as_coef(other), self)

    def __sub__(self, other):
        return _fold_sub(self, as_coef(other))

    def __rsub__(self, other):
        return _fold_sub(as_coef(other), self)

    def __mul__(self, other):
        return _fold_mul(self, as_coef(other))

    def __rmul__(self, other):
        return _fold_mul(as_coef(other), self)

    def __truediv__(self, other):
        return _fold_div(self, as_coef(other))

    def __rtruediv__(self, other):
        return _fold_div(as_coef(other), self)

    def __neg__(self):
        return _fold_neg(self)


@dataclass(frozen=True)
class Num(CoefExpr):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))


@dataclass(frozen=True)
class Param(CoefExpr):
    name: str


@dataclass(frozen=True)
class PiConst(CoefExpr):
    pass


@dataclass(frozen=True)
class ImagUnit(CoefExpr):
    pass


@dataclass(frozen=True)
class Add(CoefExpr):
    left: CoefExpr
    right: CoefExpr


@dataclass(frozen=True)
class Sub(CoefExpr):
    left: CoefExpr
    right: CoefExpr


@dataclass(frozen=True)
class Mul(CoefExpr):
    left: CoefExpr
    right: CoefExpr


@dataclass(frozen=True)
class Div(CoefExpr):
    left: CoefExpr
    right: CoefExpr


@dataclass(frozen=True)
class Neg(CoefExpr):
    operand: CoefExpr


@dataclass(frozen=True)
class Conj(CoefExpr):
    # internal only: produced by dagger(), never by the parser
    operand: CoefExpr


@dataclass(frozen=True)
class Call(CoefExpr):
    func: str
    arg: CoefExpr

    def __post_init__(self):
        if self.func not in _FUNCTIONS:
            raise CoefficientError(f"unknown function {self.func!r}")


I = ImagUnit()
ZERO = Num(0)
ONE = Num(1)


def _is_num(expr, value=None) -> bool:
    if not isinstance(expr, Num):
        return False
    return value is None or expr.value == value


# literal arithmetic folds only when it is lossless in doubles; anything
# that would round must survive as a tree for the extended-precision pass


def _fold_add(a: "CoefExpr", b: "CoefExpr") -> "CoefExpr":
    if _is_num(a, 0):
        return b
    if _is_num(b, 0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        total = a.value + b.value
        if total - a.value == b.value and total - b.value == a.value:
            return Num(total)
    return Add(a, b)


def _fold_sub(a: "CoefExpr", b: "CoefExpr") -> "CoefExpr":
    if _is_num(b, 0):
        return a
    if _is_num(a, 0):
        return _fold_neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        total = a.value - b.value
        if a.value - total == b.value and total + b.value == a.value:
            return Num(total)
    return Sub(a, b)


def _fold_mul(a: "CoefExpr", b: "CoefExpr") -> "CoefExpr":
    if _is_num(a, 0) or _is_num(b, 0):
        return ZERO
    if _is_num(a, 1):
        return b
    if _is_num(b, 1):
        return a
    return Mul(a, b)


def _fold_div(a: "CoefExpr", b: "CoefExpr") -> "CoefExpr":
    if _is_num(b, 0):
        raise CoefficientError("division by zero")
    if _is_num(b, 1):
        return a
    if _is_num(a, 0):
        return ZERO
    return Div(a, b)


def _fold_neg(a: "CoefExpr") -> "CoefExpr":
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def as_coef(value) -> CoefExpr:
    if isinstance(value, CoefExpr):
        return value
    if isinstance(value, numbers.Number):
        return Num(value)
    raise CoefficientError(f"cannot treat {value!r} as a coefficient")


def conj(expr) -> CoefExpr:
    expr = as_coef(expr)
    if isinstance(expr, Num):
        return Num(expr.value.conjugate())
    if isinstance(expr, Conj):
        # keeps dagger an involution on the nose
        return expr.operand
    if isinstance(expr, Neg):
        return _fold_neg(conj(expr.operand))
    return Conj(expr)


def sqrt(expr) -> CoefExpr:
    return Call("sqrt", as_coef(expr))


def cosh(expr) -> CoefExpr:
    return Call("cosh", as_coef(expr))


def sinh(expr) -> CoefExpr:
    return Call("sinh", as_coef(expr))


def cis(phase) -> CoefExpr:
    """e^{i*phase} as an expression."""
    return Call("exp", Mul(I, as_coef(phase)))


_KERNELS = {Add: mpc_add, Sub: mpc_sub, Neg: mpc_neg, Conj: mpc_conjugate}


class Tape:
    """A circuit's coefficient nodes as instructions, operands first: node i
    (kept alive, so no recycled id serves a stale index), its operands'
    indices (-1 where it has fewer), and whether a Param reaches it. For
    each precision, ``stored`` keeps the invariant values later runs read:
    operands of dependent instructions, and invariant roots."""

    __slots__ = ("nodes", "index", "left", "right", "dependent", "stored")

    def __init__(self):
        self.nodes: list[CoefExpr] = []
        self.index: dict[int, int] = {}  # id(node) -> instruction
        self.left: list[int] = []
        self.right: list[int] = []
        self.dependent = bytearray()
        self.stored: dict[int, dict[int, tuple]] = {}  # precision -> instruction -> value


class Evaluator:
    """One run of a :class:`Tape` (by default a one-off tape) under one env.

    :meth:`eval` appends a root's nodes the tape lacks, computing each as it
    appends it, and otherwise runs only what this run lacks: after a
    circuit's first run at ``MP``'s precision, what a :class:`Param`
    reaches. :meth:`_eval` applies the ``mpmath.libmp`` kernels of ``MP.mpc``
    arithmetic, bit for bit, to raw ``_mpc_`` tuples; the value memo computes
    each distinct ``Num``, function argument and quotient once per run.
    Values join the store when :meth:`eval` returns, never when it raises.
    """

    def __init__(self, env: ParamEnv, tape: Tape | None = None):
        self.env = env
        self.tape = tape = Tape() if tape is None else tape
        self._nodes, self._left, self._right = tape.nodes, tape.left, tape.right
        self._prec, self._rnd = MP._prec_rounding
        self._stored = tape.stored.setdefault(self._prec, {})
        self._vals = dict(self._stored)  # instruction -> raw value in this run
        self._fresh: list[int] = []  # values to store once eval() returns
        self._by_input: dict = {}  # Num by value, Call by (func, argument), Div by operands

    def eval(self, expr: CoefExpr) -> mpmath.mpc:
        fresh = self._fresh
        fresh.clear()  # what a call that raised left
        i = self.tape.index.get(id(expr))
        i = self._append(expr) if i is None else i
        value = self._vals.get(i) or self._run(i)
        if not self.tape.dependent[i] and i not in self._stored:
            fresh.append(i)
        for k in fresh:
            self._stored[k] = self._vals[k]
        return MP.make_mpc(value)

    def _append(self, root: CoefExpr) -> int:
        """Append each node of root the tape lacks, operands first, computing it."""
        index, vals, dependent = self.tape.index, self._vals, self.tape.dependent
        nodes, left, right = self._nodes, self._left, self._right
        stack: list = [root]  # a node to expand, or (node, a, b) once its operands are on the tape
        while stack:
            node = stack.pop()
            if type(node) is tuple:
                node, a, b = node
                a, b = index[id(a)], -1 if b is None else index[id(b)]
            elif id(node) in index:
                if index[id(node)] not in vals:
                    self._run(index[id(node)])
                continue
            else:
                cls = type(node)
                if cls in (Add, Sub, Mul, Div):
                    # the first operand is pushed last, so it completes first
                    stack += ((node, node.left, node.right), node.right, node.left)
                    continue
                if cls in (Neg, Conj, Call):
                    kid = node.arg if cls is Call else node.operand
                    stack += ((node, kid, None), kid)
                    continue
                if cls not in (Num, Param, PiConst, ImagUnit):
                    raise CoefficientError(f"cannot evaluate {node!r}")
                a = b = -1
            i = len(nodes)
            index[id(node)] = i
            nodes.append(node)
            left.append(a)
            right.append(b)
            on = type(node) is Param or (a >= 0 and dependent[a]) or (b >= 0 and dependent[b])
            dependent.append(on)
            vals[i] = self._eval(i)
            if on:
                self._keep(i)
        return index[id(root)]

    def _keep(self, i: int) -> None:
        """Store the invariant operands of dependent instruction i."""
        for k in (self._left[i], self._right[i]):
            if k >= 0 and not self.tape.dependent[k] and k not in self._stored:
                self._fresh.append(k)

    def _run(self, root: int) -> tuple:
        """Value of instruction root, computing first what this run lacks of it."""
        vals, left, right, dependent = self._vals, self._left, self._right, self.tape.dependent
        stack = [root]  # an instruction to expand, or ~i once its operands are done
        while stack:
            i = stack.pop()
            if i < 0:
                vals[~i] = self._eval(~i)
                if dependent[~i]:
                    self._keep(~i)
            elif i not in vals:
                stack.append(~i)
                if right[i] >= 0 and right[i] not in vals:
                    stack.append(right[i])
                if left[i] >= 0 and left[i] not in vals:
                    stack.append(left[i])
        return vals[root]

    def _eval(self, i: int) -> tuple:
        """Raw value of instruction i, whose operands this run holds."""
        node, vals, prec, rnd = self._nodes[i], self._vals, self._prec, self._rnd
        cls, x, y = type(node), vals.get(self._left[i]), vals.get(self._right[i])
        if cls is Mul:
            # times a finite real, mpc_mul's cross terms are exact zeros (inf*0 is nan)
            if y[1] == fzero and not (mpc_is_infnan(x) or mpc_is_infnan(y)):
                return mpc_mul_mpf(x, y[0], prec, rnd)
            if x[1] == fzero and not (mpc_is_infnan(x) or mpc_is_infnan(y)):
                return mpc_mul_mpf(y, x[0], prec, rnd)
            return mpc_mul(x, y, prec, rnd)
        kernel = _KERNELS.get(cls)
        if kernel is not None:
            return kernel(x, prec, rnd) if y is None else kernel(x, y, prec, rnd)
        if cls is Param:
            try:
                return MP.mpc(self.env.values[node.name])._mpc_
            except KeyError:
                raise CoefficientError(f"unbound parameter {node.name!r}") from None
        if cls is PiConst or cls is ImagUnit:
            return (MP.mpc(MP.pi) if cls is PiConst else MP.mpc(0, 1))._mpc_
        # equal inputs give equal values: each distinct input is computed once
        key = node.value if cls is Num else (node.func, x) if cls is Call else (x, y)
        if cls is Div and y == (fzero, fzero):
            raise CoefficientError("division by zero")
        value = self._by_input.get(key)
        if value is None:
            if cls is Num:
                value = MP.mpc(key)._mpc_
            elif cls is Call:
                value = MP.mpc(_FUNCTIONS[key[0]](MP.make_mpc(x)))._mpc_
            else:
                value = mpc_div(x, y, prec, rnd)
            self._by_input[key] = value
        return value


def evaluate(expr: CoefExpr, env: ParamEnv) -> complex:
    """One-off evaluation through a run on a one-off tape, as a double.

    Analyses of an evaluated circuit read the tables of its per-binding
    sessions (``ProtocolOutput.evaluator()``), and its statement scalars go
    through runs of the circuit's tape. mpmath saturates out-of-range
    magnitudes to signed inf and underflows them to zero on the way out.
    """
    return complex(Evaluator(env).eval(expr))
