"""Closed-form scalar coefficients over named real parameters.

Expressions are small immutable trees (shared freely, so in practice DAGs)
built from complex constants, parameter references, the imaginary unit, pi,
arithmetic, and the handful of functions the circuits need; no symbolic
simplification happens beyond cheap constant folding in the constructors.
Nodes hold their fields only. A :class:`Tape` numbers the nodes of one
evaluated circuit as instructions, operands first, and keeps the
binding-invariant values its runs read; an :class:`Evaluator` is one run
of a tape under one binding, computing what its roots lack in forward
passes in tape order. While ``evaluate_circuit`` runs, its tape is current
and the constructors intern on it (hash-consing as nodes are made), so a
structure is one node and each binding computes its value once.

Evaluation runs on a dedicated mpmath context, ``MP``, with 160 decimal
digits. A session's precision is ``MP``'s when the session is made; its
runs and derived sessions keep it. Limit checks substitute scales up to
twice the default 20, which drives intermediate magnitudes past anything
float64 can cancel correctly. Values stay raw from tape to kernel: each
run (:class:`Evaluator`) carries and returns ``_mpc_`` tuples ``(re, im)``
of raw mpfs ``(sign, man, exp, bc)``, never an mpc, and keeps one value
memo, of its binding-invariant products; :func:`to_complex` makes a double.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import mpmath
from mpmath.libmp import fone, fzero, mpc_acosh, mpc_add, mpc_conjugate, mpc_cosh, mpc_div, mpc_exp
from mpmath.libmp import mpc_is_infnan, mpc_log, mpc_mpf_div, mpc_mul, mpc_mul_mpf, mpc_neg
from mpmath.libmp import mpc_pos, mpc_sinh, mpc_sqrt, mpc_sub, mpc_tanh, mpc_to_complex, mpf_pi

MP = mpmath.mp.clone()
MP.dps = 160


def to_complex(value: tuple) -> complex:
    """The double of a raw ``_mpc_`` value, each part rounded at ``MP``'s
    rounding, as ``complex()`` of its mpc converts; out-of-range parts
    saturate to signed inf or underflow to zero."""
    return mpc_to_complex(value, False, MP._prec_rounding[1])


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
        return fold_add(self, as_coef(other))

    def __radd__(self, other):
        return fold_add(as_coef(other), self)

    def __sub__(self, other):
        return _fold_sub(self, as_coef(other))

    def __rsub__(self, other):
        return _fold_sub(as_coef(other), self)

    def __mul__(self, other):
        return fold_mul(self, as_coef(other))

    def __rmul__(self, other):
        return fold_mul(as_coef(other), self)

    def __truediv__(self, other):
        return _fold_div(self, as_coef(other))

    def __rtruediv__(self, other):
        return _fold_div(as_coef(other), self)

    def __neg__(self):
        return _fold_neg(self)


@dataclass(frozen=True)
class Num(CoefExpr):
    """A complex constant."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))


@dataclass(frozen=True)
class Param(CoefExpr):
    """The value the binding gives the named real parameter."""

    name: str


@dataclass(frozen=True)
class PiConst(CoefExpr):
    """The constant pi, at the run's precision."""


@dataclass(frozen=True)
class ImagUnit(CoefExpr):
    """The imaginary unit i."""


@dataclass(frozen=True)
class Add(CoefExpr):
    """The sum left + right."""

    left: CoefExpr
    right: CoefExpr


@dataclass(frozen=True)
class Sub(CoefExpr):
    """The difference left - right."""

    left: CoefExpr
    right: CoefExpr


@dataclass(frozen=True)
class Mul(CoefExpr):
    """The product left * right."""

    left: CoefExpr
    right: CoefExpr


@dataclass(frozen=True)
class Div(CoefExpr):
    """The quotient left / right."""

    left: CoefExpr
    right: CoefExpr


@dataclass(frozen=True)
class Neg(CoefExpr):
    """The negation -operand."""

    operand: CoefExpr


@dataclass(frozen=True)
class Conj(CoefExpr):
    """The complex conjugate of operand; made by dagger(), never by the parser."""

    operand: CoefExpr


@dataclass(frozen=True)
class Call(CoefExpr):
    """The function named func (one of FUNCTION_NAMES) applied to arg."""

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
    if tape is None:
        return (cls(head) if a is None else cls(a, b) if b is not None else
                cls(a) if head is cls else cls(head, a))
    index = tape.index
    i = -1 if a is None else index.get(id(a))
    if i is None:
        i = tape.append(a)
    j = -1 if b is None else index.get(id(b))
    if j is None:
        j = tape.append(b)
    key = (head, i, j)
    nodes = tape.nodes
    k = tape.keys.get(key)
    if k is not None:
        return nodes[k]
    node = cls(head) if i < 0 else cls(a, b) if j >= 0 else cls(a) if head is cls else cls(head, a)
    tape.keys[key] = index[id(node)] = len(nodes)
    nodes.append(node)
    tape.ops.append(key)
    dep = tape.dependent  # no Param is made here: the parser makes them, and append numbers them
    dep.append(i >= 0 and (dep[i] or j >= 0 and dep[j]))
    return node


# literal arithmetic folds only when it is lossless in doubles; anything
# that would round must survive as a tree for the extended-precision pass.
# A zero operand is tested before a unit one.


def fold_add(a: "CoefExpr", b: "CoefExpr") -> "CoefExpr":
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


def fold_mul(a: "CoefExpr", b: "CoefExpr") -> "CoefExpr":
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


def _mul(x: tuple, y: tuple, prec: int, rnd: str) -> tuple:
    """mpc_mul(x, y), bit for bit: times a finite real, its cross terms are
    exact zeros (inf*0 is nan), so each part rounds one product."""
    if y[1] == fzero and not (mpc_is_infnan(x) or mpc_is_infnan(y)):
        return mpc_mul_mpf(x, y[0], prec, rnd)
    if x[1] == fzero and not (mpc_is_infnan(x) or mpc_is_infnan(y)):
        return mpc_mul_mpf(y, x[0], prec, rnd)
    return mpc_mul(x, y, prec, rnd)


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
            if i is None:  # numbered as _intern numbers what it makes; a Param is dependent
                self.keys[key] = index[id(node)] = len(self.nodes)
                self.nodes.append(node)
                self.ops.append(key)
                dep = self.dependent
                dep.append(cls is Param or a >= 0 and (dep[a] or b >= 0 and dep[b]))
            else:
                index[id(node)] = i
                self.foreign.append(node)
        return index[id(root)]


class Evaluator:
    """One run of a :class:`Tape` (by default a one-off tape) under one env.

    :meth:`eval` and, for many roots at once, :meth:`eval_all` join foreign
    roots to the tape and return their raw ``_mpc_`` tuples. Both go
    through one pass (:meth:`_run`) over only what this run lacks of them:
    after a circuit's first run at ``MP``'s precision, what a :class:`Param`
    reaches. :meth:`_eval` runs a pass forward in tape order, applying the
    ``mpmath.libmp`` kernels of ``MP.mpc`` arithmetic and of ``MP``'s
    functions, bit for bit, at the precision ``MP`` had when the run was
    made; a failing pass raises its first failure in tape order. Equal
    structure is one instruction already; a value memo computes each
    distinct invariant product once per run, where unequal structure gives
    it. Values join the store when a pass finishes, never when it raises:
    the invariant operands of the dependent instructions it computed, and
    its invariant roots.
    """

    def __init__(self, env: ParamEnv, tape: Tape | None = None):
        self.env = env
        self.tape = tape = Tape() if tape is None else tape
        self._prec, self._rnd = MP._prec_rounding
        self._stored = tape.stored.setdefault(self._prec, {})
        self._vals = dict(self._stored)  # instruction -> raw value in this run
        self._products: dict[tuple, tuple] = {}  # binding-invariant Mul by operand values

    def eval(self, expr: CoefExpr) -> tuple:
        """The raw ``_mpc_`` tuple (re, im) of expr at the run's precision, unwrapped."""
        return self._run([self.tape.index.get(id(expr)) or self.tape.append(expr)])[0]

    def eval_all(self, exprs) -> list[tuple]:
        """The raw value of each of exprs, from one pass."""
        index, append = self.tape.index, self.tape.append
        return self._run([index.get(id(expr)) or append(expr) for expr in exprs])

    def _run(self, roots: list[int]) -> list[tuple]:
        """Values of instructions roots, computing first what this run lacks of them."""
        vals, ops, dependent, stored = self._vals, self.tape.ops, self.tape.dependent, self._stored
        seen = {i for i in roots if i not in vals}
        if seen:
            order = list(seen)
            for i in order:  # grows as it goes: what the roots reach and the run lacks
                _, a, b = ops[i]
                if a >= 0 and a not in vals and a not in seen:
                    seen.add(a)
                    order.append(a)
                if b >= 0 and b not in vals and b not in seen:
                    seen.add(b)
                    order.append(b)
            order.sort()  # operands are numbered before what reads them
            self._eval(order)
            stored.update((k, vals[k]) for i in order if dependent[i]
                          for k in ops[i][1:] if k >= 0 and not dependent[k] and k not in stored)
        for i in roots:
            if not dependent[i] and i not in stored:
                stored[i] = vals[i]
        return [vals[i] for i in roots]

    def _eval(self, order: list[int]) -> None:
        """The raw value of each instruction of order, in order, into the run's
        values; each one's operands come before it in order or are values already."""
        ops, dependent, vals, env = self.tape.ops, self.tape.dependent, self._vals, self.env.values
        products, prec, rnd, mul = self._products, self._prec, self._rnd, _mul
        for i in order:
            head, a, b = ops[i]  # the class, a Num's value, a Param's name or a Call's function
            if head is Mul:
                x, y = vals[a], vals[b]
                if dependent[i]:  # its operands rarely repeat: hashing them costs more
                    value = mul(x, y, prec, rnd)
                else:  # equal invariant operands come from unequal structure (7/8 * 6/7 is 3/4)
                    value = products.get((x, y))
                    if value is None:
                        value = products[x, y] = mul(x, y, prec, rnd)
            elif head is Add:
                value = mpc_add(vals[a], vals[b], prec, rnd)
            elif head is Conj or head is Neg:
                value = (mpc_conjugate if head is Conj else mpc_neg)(vals[a], prec, rnd)
            elif type(head) is str and a >= 0:  # a Call's function
                value = _FUNCTIONS[head](vals[a], prec, rnd)
            elif type(head) is str:  # a Param's name
                if head not in env:
                    raise CoefficientError(f"unbound parameter {head!r}")
                value = MP.mpc(env[head])._mpc_
            elif head is Div:
                if vals[b] == (fzero, fzero):
                    raise CoefficientError("division by zero")
                value = mpc_div(vals[a], vals[b], prec, rnd)
            elif head is Sub:
                value = mpc_sub(vals[a], vals[b], prec, rnd)
            elif head is PiConst or head is ImagUnit:
                value = (mpf_pi(prec, rnd), fzero) if head is PiConst else (fzero, fone)
            else:  # a Num's value
                value = MP.mpc(head)._mpc_
            vals[i] = value


def evaluate(expr: CoefExpr, env: ParamEnv) -> complex:
    """One-off evaluation through a run on a one-off tape, as a double.

    Analyses of an evaluated circuit read the tables of its per-binding
    sessions (``ProtocolOutput.evaluator()``), and its statement scalars go
    through runs of the circuit's tape. Out-of-range magnitudes saturate to
    signed inf and underflow to zero on the way out (:func:`to_complex`).
    """
    return to_complex(Evaluator(env).eval(expr))
