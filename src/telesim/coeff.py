"""Closed-form scalar coefficients over named real parameters.

Expressions are small immutable trees (shared freely, so in practice DAGs)
built from complex constants, parameter references, the imaginary unit, pi,
arithmetic, and the handful of functions the circuits need; no symbolic
simplification happens beyond cheap constant folding in the constructors.
Nodes hold their fields only. A :class:`Tape` numbers the nodes of one
evaluated circuit as instructions and keeps the binding-invariant values
its runs read; an :class:`Evaluator` is one run of a tape under one
binding. While ``evaluate_circuit`` runs, its tape is current and the
constructors intern on it (hash-consing as nodes are made), so a structure
is one node and each binding computes its value once.

Evaluation runs on a dedicated mpmath context, ``MP``, with 160 decimal
digits. A session's precision is ``MP``'s when the session is made; its
runs and derived sessions keep it. Limit checks substitute scales up to
twice the default 20, which drives intermediate magnitudes past anything
float64 can cancel correctly. Each run (:class:`Evaluator`) carries raw
mpmath tuples and a value memo.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import mpmath
from mpmath.libmp import fone, fzero, mpc_acosh, mpc_add, mpc_conjugate, mpc_cosh, mpc_div
from mpmath.libmp import mpc_exp, mpc_is_infnan, mpc_log, mpc_mpf_div, mpc_mul, mpc_mul_mpf
from mpmath.libmp import mpc_neg, mpc_pos, mpc_sinh, mpc_sqrt, mpc_sub, mpc_tanh, mpf_pi

MP = mpmath.mp.clone()
MP.dps = 160


def _mpc_sech(z: tuple, prec: int, rnd: str) -> tuple:
    # as MP.sech computes it: 1/cosh at 10 more bits, rounded once
    return mpc_pos(mpc_mpf_div(fone, mpc_cosh(z, prec + 10, rnd), prec + 10, rnd), prec, rnd)


# MP's functions as raw kernels on complex arguments, called at a run's precision
_FUNCTIONS = {
    "cosh": mpc_cosh, "sinh": mpc_sinh, "tanh": mpc_tanh, "sech": _mpc_sech,
    "exp": mpc_exp, "sqrt": mpc_sqrt, "ln": mpc_log, "arccosh": mpc_acosh,
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


def _intern(cls, head, a=None, b=None):
    """The node of class cls, structural head (its class, a Num's value or a
    Call's function) and operands a, b. While a tape is current, it is the
    tape's node of that key, made and numbered there if the tape has none."""
    tape = Tape.current
    if tape is not None:
        index = tape.index
        i = -1 if a is None else index.get(id(a))
        j = -1 if b is None else index.get(id(b))
        key = (head, tape.append(a) if i is None else i, tape.append(b) if j is None else j)
        k = tape.keys.get(key)
        if k is not None:
            return tape.nodes[k]
    node = (cls(head) if a is None else cls(a, b) if b is not None else
            cls(a) if head is cls else cls(head, a))
    if tape is not None:
        tape._add(node, key)
    return node


# literal arithmetic folds only when it is lossless in doubles; anything
# that would round must survive as a tree for the extended-precision pass.
# A zero operand is tested before a unit one.


def _fold_add(a: "CoefExpr", b: "CoefExpr") -> "CoefExpr":
    if type(a) is Num and a.value == 0:
        return b
    if type(b) is Num and b.value == 0:
        return a
    if type(a) is Num and type(b) is Num:
        total = a.value + b.value
        if total - a.value == b.value and total - b.value == a.value:
            return _intern(Num, total)
    return _intern(Add, Add, a, b)


def _fold_sub(a: "CoefExpr", b: "CoefExpr") -> "CoefExpr":
    if type(b) is Num and b.value == 0:
        return a
    if type(a) is Num and a.value == 0:
        return _fold_neg(b)
    if type(a) is Num and type(b) is Num:
        total = a.value - b.value
        if a.value - total == b.value and total + b.value == a.value:
            return _intern(Num, total)
    return _intern(Sub, Sub, a, b)


def _fold_mul(a: "CoefExpr", b: "CoefExpr") -> "CoefExpr":
    if (type(a) is Num and a.value == 0) or (type(b) is Num and b.value == 0):
        return ZERO
    if type(a) is Num and a.value == 1:
        return b
    if type(b) is Num and b.value == 1:
        return a
    return _intern(Mul, Mul, a, b)


def _fold_div(a: "CoefExpr", b: "CoefExpr") -> "CoefExpr":
    if type(b) is Num and b.value == 0:
        raise CoefficientError("division by zero")
    if type(b) is Num and b.value == 1:
        return a
    if type(a) is Num and a.value == 0:
        return ZERO
    return _intern(Div, Div, a, b)


def _fold_neg(a: "CoefExpr") -> "CoefExpr":
    if type(a) is Num:
        return _intern(Num, -a.value)
    if type(a) is Neg:
        return a.operand
    return _intern(Neg, Neg, a)


def as_coef(value) -> CoefExpr:
    if isinstance(value, CoefExpr):
        return value
    if isinstance(value, numbers.Number):
        return _intern(Num, complex(value))
    raise CoefficientError(f"cannot treat {value!r} as a coefficient")


def conj(expr) -> CoefExpr:
    expr = as_coef(expr)
    if type(expr) is Num:
        # a real value is its own conjugate: no new node for a fold to drop
        return expr if not expr.value.imag else _intern(Num, expr.value.conjugate())
    if type(expr) is Conj:
        # keeps dagger an involution on the nose
        return expr.operand
    if type(expr) is Neg:
        return _fold_neg(conj(expr.operand))
    return _intern(Conj, Conj, expr)


def sqrt(expr) -> CoefExpr:
    return _intern(Call, "sqrt", as_coef(expr))


def cosh(expr) -> CoefExpr:
    return _intern(Call, "cosh", as_coef(expr))


def sinh(expr) -> CoefExpr:
    return _intern(Call, "sinh", as_coef(expr))


def cis(phase) -> CoefExpr:
    """e^{i*phase} as an expression."""
    return _intern(Call, "exp", _intern(Mul, Mul, I, as_coef(phase)))


_KERNELS = {Add: mpc_add, Sub: mpc_sub, Neg: mpc_neg, Conj: mpc_conjugate}


class Tape:
    """A circuit's coefficient nodes as instructions, operands first: node i,
    its structural key ``ops[i]`` (head: class, ``Num`` value, ``Call``
    function or ``Param`` name; then the operands' indices, -1 where it has
    fewer) and whether a Param reaches it; joining computes nothing. While a
    tape is ``current`` (``evaluate_circuit`` makes its own so), the
    constructors above number each node as they make it, and return the
    tape's node for a key it holds. A foreign node (made by the parser, as a
    module constant or under no tape) joins when first read, through
    :meth:`append`; one whose key is taken maps to that instruction and
    stays in ``foreign``, so its id is never recycled. ``stored`` keeps, per
    precision, the invariant values later runs read: operands of dependent
    instructions, and invariant roots."""

    __slots__ = ("nodes", "ops", "index", "keys", "foreign", "dependent", "stored", "__weakref__")
    current: "Tape | None" = None  # the tape the constructors intern on

    def __init__(self):
        self.nodes: list[CoefExpr] = []
        self.ops: list[tuple] = []  # instruction -> structural key
        self.index: dict[int, int] = {}  # id(node) -> instruction
        self.keys: dict[tuple, int] = {}  # structural key -> instruction
        self.foreign: list[CoefExpr] = []  # foreign nodes mapped to another node's instruction
        self.dependent = bytearray()
        self.stored: dict[int, dict[int, tuple]] = {}  # precision -> instruction -> value

    def _add(self, node: CoefExpr, key: tuple) -> None:
        _, i, j = key
        self.keys[key] = self.index[id(node)] = len(self.nodes)
        self.nodes.append(node)
        self.ops.append(key)
        dep = self.dependent
        dep.append(type(node) is Param or (i >= 0 and dep[i]) or (j >= 0 and dep[j]))

    def own(self, node: CoefExpr) -> CoefExpr:
        """The instruction node of node, joining node first if it is foreign."""
        i = self.index.get(id(node))
        return self.nodes[self.append(node) if i is None else i]

    def append(self, root: CoefExpr) -> int:
        """Instruction of root, joining each node of root the tape lacks, operands first."""
        index = self.index
        stack: list = [root]  # a node to expand, or (node, a, b) once its operands are on the tape
        while stack:
            node = stack.pop()
            if type(node) is tuple:
                node, a, b = node
                a, b = index[id(a)], -1 if b is None else index[id(b)]
            elif id(node) in index:
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
            cls = type(node)
            # a Param's name and a Call's func differ in the operand: -1 for a Param
            key = (node.value if cls is Num else node.name if cls is Param else
                   node.func if cls is Call else cls, a, b)
            i = self.keys.get(key)
            if i is None:
                self._add(node, key)
            else:
                index[id(node)] = i
                self.foreign.append(node)
        return index[id(root)]


class Evaluator:
    """One run of a :class:`Tape` (by default a one-off tape) under one env.

    :meth:`eval` joins a foreign root to the tape, then runs only what this
    run lacks of it: after a circuit's first run at ``MP``'s precision, what
    a :class:`Param` reaches. :meth:`_eval` applies the ``mpmath.libmp``
    kernels of ``MP.mpc`` arithmetic and of ``MP``'s functions, bit for bit,
    to raw ``_mpc_`` tuples at the precision ``MP`` had when the run was
    made. Equal structure is one instruction already; the value memo computes
    each distinct function argument and quotient once per run, where unequal
    structure gives them. Values join the store when :meth:`_run` finishes,
    never when it raises: the invariant operands it computed, and through
    :meth:`eval` an invariant root.
    """

    def __init__(self, env: ParamEnv, tape: Tape | None = None):
        self.env = env
        self.tape = tape = Tape() if tape is None else tape
        self._nodes, self._ops = tape.nodes, tape.ops
        self._prec, self._rnd = MP._prec_rounding
        self._stored = tape.stored.setdefault(self._prec, {})
        self._vals = dict(self._stored)  # instruction -> raw value in this run
        self._by_input: dict = {}  # Call by (func, argument), Div by operands

    def eval(self, expr: CoefExpr) -> mpmath.mpc:
        tape = self.tape
        i = tape.index.get(id(expr))
        i = tape.append(expr) if i is None else i
        value = self._vals.get(i) or self._run(i)
        if not tape.dependent[i] and i not in self._stored:
            self._stored[i] = value
        return MP.make_mpc(value)

    def _run(self, root: int) -> tuple:
        """Value of instruction root, computing first what this run lacks of it."""
        vals, ops, dependent = self._vals, self._ops, self.tape.dependent
        stored = self._stored
        keep = []  # invariant operands of the dependent instructions computed, to store
        stack = [root]  # an instruction to expand, or ~i once its operands are done
        while stack:
            i = stack.pop()
            if i < 0:
                i = ~i
                vals[i] = self._eval(i)
                if dependent[i]:
                    for k in ops[i][1:]:
                        if k >= 0 and not dependent[k] and k not in stored:
                            keep.append(k)
            elif i not in vals:
                stack.append(~i)
                _, a, b = ops[i]
                if b >= 0 and b not in vals:
                    stack.append(b)
                if a >= 0 and a not in vals:
                    stack.append(a)
        for k in keep:
            stored[k] = vals[k]
        return vals[root]

    def _eval(self, i: int) -> tuple:
        """Raw value of instruction i, whose operands this run holds."""
        node, vals, prec, rnd = self._nodes[i], self._vals, self._prec, self._rnd
        _, a, b = self._ops[i]
        cls, x, y = type(node), vals.get(a), vals.get(b)
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
            return (mpf_pi(prec, rnd), fzero) if cls is PiConst else (fzero, fone)
        if cls is Num:
            return MP.mpc(node.value)._mpc_
        # equal values reached through unequal structure: each is computed once
        key = (node.func, x) if cls is Call else (x, y)
        if cls is Div and y == (fzero, fzero):
            raise CoefficientError("division by zero")
        value = self._by_input.get(key)
        if value is None:
            value = _FUNCTIONS[key[0]](x, prec, rnd) if cls is Call else mpc_div(x, y, prec, rnd)
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
