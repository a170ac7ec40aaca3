"""Closed-form scalar coefficients over named real parameters.

Expressions are small immutable trees (shared freely, so in practice DAGs)
built from complex constants, parameter references, the imaginary unit, pi,
arithmetic, and the handful of functions the circuits need. They evaluate
numerically under a :class:`ParamEnv`; no symbolic simplification happens
beyond cheap constant folding in the constructors. A node no parameter
reaches may hold its value outside its dataclass fields (see Evaluator).

Evaluation runs on a dedicated mpmath context with 160 decimal digits.
Limit checks substitute scales up to twice the default 20, which drives
intermediate magnitudes past anything float64 can cancel correctly. It
carries raw mpmath tuples, with an identity memo and a value memo.
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
    # a binding-invariant value an Evaluator stored on the node; not a field
    _value = None

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


class Evaluator:
    """Evaluates expressions under one env, memoizing shared subtrees.

    :meth:`eval` walks unmemoized nodes with a stack, operands first, and
    :meth:`_eval` computes each once from its operands' memo entries by the
    ``mpmath.libmp`` kernels that ``MP.mpc`` arithmetic calls, bit for bit.
    Values stay raw ``_mpc_`` tuples until :meth:`eval` wraps one. The memo
    keys on identity and keeps each keyed expression alive, so no recycled
    id serves a stale value; the value memo computes each distinct ``Num``,
    function argument and quotient once per binding. Entries mark nodes no
    :class:`Param` reaches as binding-invariant. Those another binding reads
    (operands of parameter-dependent nodes, values asked of :meth:`eval`
    from outside) keep their value on the node once :meth:`eval` returns,
    never after it raises; every later walk under any env takes it. A stored
    value is valid at ``MP``'s one precision only.
    """

    def __init__(self, env: ParamEnv):
        self.env = env
        self._prec, self._rnd = MP._prec_rounding
        self._memo: dict[int, tuple[CoefExpr, tuple, bool]] = {}
        self._values: dict = {}  # Num by value, Call by (func, argument), Div by operands

    def eval(self, expr: CoefExpr) -> mpmath.mpc:
        entry = self._memo.get(id(expr))
        if entry is None:
            entry, kept = self._walk(expr)
            for node, value, invariant in kept:
                if invariant:
                    object.__setattr__(node, "_value", value)
        if entry[2]:
            object.__setattr__(expr, "_value", entry[1])
        return MP.make_mpc(entry[1])

    def _walk(self, root: CoefExpr) -> tuple[tuple, list[tuple]]:
        memo, kept = self._memo, []  # kept: operands of parameter-dependent nodes
        # a node to expand, or a (node, operands) pair whose operands are done
        stack: list = [root]
        while stack:
            item = stack.pop()
            if type(item) is tuple:  # popped once, since a node expands once
                node, operands = item
                value = self._eval(node)
                first, last = memo[id(operands[0])], memo[id(operands[-1])]
                invariant = first[2] and last[2]
                if not invariant:
                    kept += (first, last)
                memo[id(node)] = (node, value, invariant)
                continue
            key = id(item)
            if key in memo:
                continue
            if item._value is not None:
                memo[key] = (item, item._value, True)
                continue
            cls = type(item)
            if cls in (Add, Sub, Mul, Div):
                left, right = item.left, item.right
                # the first operand is pushed last, so it completes first
                stack += ((item, (left, right)), right, left)
                continue
            kid = item.operand if cls in (Neg, Conj) else item.arg if cls is Call else None
            if kid is None:
                memo[key] = (item, self._eval(item), cls is not Param)
            else:
                stack += ((item, (kid,)), kid)
        return memo[id(root)], kept

    def _eval(self, expr: CoefExpr) -> tuple:
        """Raw value of one node whose operands are all memoized."""
        cls, memo, values, prec, rnd = type(expr), self._memo, self._values, self._prec, self._rnd
        if cls is Mul:
            a, b = memo[id(expr.left)][1], memo[id(expr.right)][1]
            # times a finite real, mpc_mul's cross terms are exact zeros (inf*0 is nan)
            if b[1] == fzero and not (mpc_is_infnan(a) or mpc_is_infnan(b)):
                return mpc_mul_mpf(a, b[0], prec, rnd)
            if a[1] == fzero and not (mpc_is_infnan(a) or mpc_is_infnan(b)):
                return mpc_mul_mpf(b, a[0], prec, rnd)
            return mpc_mul(a, b, prec, rnd)
        if cls is Add:
            return mpc_add(memo[id(expr.left)][1], memo[id(expr.right)][1], prec, rnd)
        if cls is Sub:
            return mpc_sub(memo[id(expr.left)][1], memo[id(expr.right)][1], prec, rnd)
        if cls is Neg:
            return mpc_neg(memo[id(expr.operand)][1], prec, rnd)
        if cls is Conj:
            return mpc_conjugate(memo[id(expr.operand)][1], prec, rnd)
        if cls is Param:
            try:
                return MP.mpc(self.env.values[expr.name])._mpc_
            except KeyError:
                raise CoefficientError(f"unbound parameter {expr.name!r}") from None
        if cls is PiConst:
            return MP.mpc(MP.pi)._mpc_
        if cls is ImagUnit:
            return MP.mpc(0, 1)._mpc_
        # equal inputs give equal values: each distinct input is computed once
        if cls is Num:
            key = expr.value
        elif cls is Call:
            key = (expr.func, memo[id(expr.arg)][1])
        elif cls is Div:
            key = (memo[id(expr.left)][1], memo[id(expr.right)][1])
            if key[1] == (fzero, fzero):
                raise CoefficientError("division by zero")
        else:
            raise CoefficientError(f"cannot evaluate {expr!r}")
        value = values.get(key)
        if value is None:
            if cls is Num:
                value = MP.mpc(key)._mpc_
            elif cls is Call:
                value = MP.mpc(_FUNCTIONS[key[0]](MP.make_mpc(key[1])))._mpc_
            else:
                value = mpc_div(*key, prec, rnd)
            values[key] = value
        return value


def evaluate(expr: CoefExpr, env: ParamEnv) -> complex:
    """One-off evaluation through a throwaway Evaluator, as a double.

    It still reads and stores binding-invariant values on the nodes. Analyses
    of an evaluated circuit read the tables of its per-binding sessions
    (``ProtocolOutput.evaluator()``). mpmath saturates out-of-range
    magnitudes to signed inf and underflows them to zero on the way out.
    """
    return complex(Evaluator(env).eval(expr))
