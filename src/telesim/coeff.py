"""Closed-form scalar coefficients over named real parameters.

Expressions are small immutable trees (shared freely, so in practice DAGs)
built from complex constants, parameter references, pi, arithmetic, and
the handful of functions the circuits need; the constructors fold only
exact identities (a zero or unit operand, negation), never a literal sum.
Nodes hold their fields only. A :class:`Tape` numbers the nodes of one
evaluated circuit as instructions, operands first, and keeps the
binding-invariant values its runs read; an :class:`Evaluator` is one run
of a tape under one binding, computing what its roots lack in forward
passes in tape order; a circuit's statement scalars (``circuit.Scalars``)
and its numeric sessions (``opalg.ModeEvaluator``) make the runs. While
``evaluate_circuit`` runs, its tape is current and the constructors intern
on it (hash-consing as nodes are made), so a structure is one node and
each binding computes its value once.

While a tape builds, an invariant instruction is valued and bounded as it
is numbered (:meth:`Tape.number`) in the build's run, the interpreter's,
unless it or an operand fails; a sum within its error radius r of 0
(:func:`_ball`) folds to ``ZERO``: its exact value is within 2r of 0, so a
fold moves a coefficient by at most twice its error. No dependent sum folds.

Evaluation runs on a dedicated mpmath context, ``MP``, with 160 decimal
digits. A session's precision is ``MP``'s when the session is made; its
runs and derived sessions keep it. Limit checks substitute scales up to
twice the default 20, which drives intermediate magnitudes past anything
float64 can cancel correctly. Values stay raw from tape to kernel: each
run (:class:`Evaluator`) carries and returns ``_mpc_`` tuples ``(re, im)``
of raw mpfs ``(sign, man, exp, bc)``, never an mpc, keeps two memos and
takes real kernels on real values; :func:`to_complex` makes a double, in
one correctly rounded step where that is the double ``complex()`` gives.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from itertools import compress
from math import inf, ldexp, log2

import mpmath
from mpmath.libmp import fone, fzero, mpc_acosh, mpc_add, mpc_conjugate, mpc_cosh, mpc_div, mpc_exp
from mpmath.libmp import mpc_is_infnan, mpc_log, mpc_mpf_div, mpc_mul, mpc_mul_mpf, mpc_neg
from mpmath.libmp import mpc_pos, mpc_sinh, mpc_sqrt, mpc_sub, mpc_tanh, mpf_cosh_sinh, mpf_pi, to_float

MP = mpmath.mp.clone()
MP.dps = 160


def to_complex(value: tuple, rnd: str | None = None) -> complex:
    """The double of a raw ``_mpc_`` value, each part rounded at rnd (by
    default ``MP``'s rounding), as ``complex()`` of its mpc converts;
    out-of-range parts saturate to signed inf or underflow to zero."""
    rnd = rnd or MP._prec_rounding[1]
    return complex(_to_double(value[0], rnd), _to_double(value[1], rnd))


def _to_double(part: tuple, rnd: str) -> float:
    """``to_float(part, False, rnd)``: at rounding "n", a normal double is ``float(man)``
    (rounded to nearest, ties to even) times 2^exp, exact, and an exact zero 0.0."""
    sign, man, exp, bc = part
    if 0 < bc < 1024 and -1021 <= exp + bc <= 1023 and rnd == "n":
        return ldexp(-float(man) if sign else float(man), exp)
    return 0.0 if part == fzero else to_float(part, False, rnd)


def _mpc_sech(z: tuple, prec: int, rnd: str) -> tuple:
    # as MP.sech computes it: 1/cosh at 10 more bits, rounded once
    return mpc_pos(mpc_mpf_div(fone, mpc_cosh(z, prec + 10, rnd), prec + 10, rnd), prec, rnd)


# MP's functions as raw kernels on complex arguments, called at a run's precision
_FUNCTIONS = {
    "cosh": mpc_cosh, "sinh": mpc_sinh, "tanh": mpc_tanh, "sech": _mpc_sech,
    "exp": mpc_exp, "sqrt": mpc_sqrt, "ln": mpc_log, "arccosh": mpc_acosh,
}

FUNCTION_NAMES = frozenset(_FUNCTIONS)

_HYPERBOLIC = {"cosh": 0, "sinh": 1}  # the part of mpf_cosh_sinh each one is


class CoefficientError(ValueError):
    """Raised for malformed expressions or bad evaluation requests."""


_set = object.__setattr__


class Record:
    """Base of every telesim dataclass, mutable and unhashable; see :class:`Frozen`.

    A subclass, unless declared with ``base=True``, is made a dataclass that
    only records its fields, and takes these methods, written once, so an
    import compiles none. As the stdlib's, ``__init__`` binds the init fields
    by position or keyword, applies defaults and factories (also an init=False
    field's), sets each field in order (instance dicts stay key-shared) and
    runs ``__post_init__``; ``repr`` is ``Qualname(a=..., b=...)`` over the
    repr fields, with no guard for a record that contains itself; ``==``
    compares the compare fields of two instances of one class. ``fields``,
    ``replace``, ``__match_args__`` and docstrings are the stdlib's. The
    coefficient nodes, made by the thousand, have an ``__init__`` per shape:
    the generic one, binding keywords and defaults, takes twice as long.
    """

    def __init_subclass__(cls, base: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        if base:
            return
        every = fields(dataclass(cls, init=False, repr=False, eq=False))
        defaults = {f.name: f.default_factory if f.default is MISSING else lambda value=f.default: value
                    for f in every if (f.default, f.default_factory) != (MISSING, MISSING)}
        # the init fields and their number, the defaults, and the init=False
        # fields with a factory and __post_init__ if the class has either
        names = tuple(f.name for f in every if f.init)
        later = tuple(f.name for f in every if not f.init and f.default_factory is not MISSING)
        post_init = getattr(cls, "__post_init__", None)
        cls._init = (names, len(names), defaults, (later, post_init) if later or post_init is not None else ())
        # the compared, the hashed and the shown fields
        cls._plan = (tuple(f.name for f in every if f.compare),
                     tuple(f.name for f in every if (f.compare if f.hash is None else f.hash)),
                     tuple(f.name for f in every if f.repr))

    def __init__(self, *args, **kwargs):
        names, arity, defaults, finish = self._init
        given = len(args)
        if given > arity:
            raise TypeError(f"{type(self).__qualname__}() takes {arity} fields, not {given}")
        for name, value in zip(names, args):
            _set(self, name, value)
        if kwargs or given < arity:
            for name in names[given:]:
                if name in kwargs:
                    _set(self, name, kwargs.pop(name))
                elif name in defaults:
                    _set(self, name, defaults[name]())
                else:
                    raise TypeError(f"{type(self).__qualname__}() missing the field {name!r}")
            if kwargs:
                raise TypeError(f"{type(self).__qualname__}() has no field {next(iter(kwargs))!r}")
        if finish:
            later, post_init = finish
            for name in later:
                _set(self, name, defaults[name]())
            if post_init is not None:
                post_init(self)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._plan[2])
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        compared = self._plan[0]
        return [getattr(self, name) for name in compared] == [getattr(other, name) for name in compared]


class Frozen(Record, base=True):
    """A :class:`Record` that is hashable, as ``hash`` of the tuple of its
    ``hash`` fields (its ``compare`` fields unless a field says otherwise),
    and raises ``FrozenInstanceError`` on setting or deleting an attribute."""

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self._plan[1]))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class ParamEnv(Frozen):
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


class CoefExpr(Frozen, base=True):
    """Base class; subclasses are frozen dataclasses forming the tree.

    The operator sugar folds constants so machine-built expressions stay
    small. The parser bypasses it and calls node constructors directly,
    which preserves the exact shape of user-written source.
    """

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


def _binary(self, left: CoefExpr, right: CoefExpr):
    _set(self, "left", left)
    _set(self, "right", right)


def _unary(self, operand: CoefExpr):
    _set(self, "operand", operand)


class Num(CoefExpr):
    """A complex constant."""

    value: complex

    def __init__(self, value: complex):
        _set(self, "value", complex(value))


class Param(CoefExpr):
    """The value the binding gives the named real parameter."""

    name: str

    def __init__(self, name: str):
        _set(self, "name", name)


class PiConst(CoefExpr):
    """The constant pi, at the run's precision."""


class Add(CoefExpr):
    """The sum left + right."""

    left: CoefExpr
    right: CoefExpr
    __init__ = _binary


class Sub(CoefExpr):
    """The difference left - right."""

    left: CoefExpr
    right: CoefExpr
    __init__ = _binary


class Mul(CoefExpr):
    """The product left * right."""

    left: CoefExpr
    right: CoefExpr
    __init__ = _binary


class Div(CoefExpr):
    """The quotient left / right."""

    left: CoefExpr
    right: CoefExpr
    __init__ = _binary


class Neg(CoefExpr):
    """The negation -operand."""

    operand: CoefExpr
    __init__ = _unary


class Conj(CoefExpr):
    """The complex conjugate of operand; made by dagger(), never by the parser."""

    operand: CoefExpr
    __init__ = _unary


class Call(CoefExpr):
    """The function named func (one of FUNCTION_NAMES) applied to arg."""

    func: str
    arg: CoefExpr

    def __init__(self, func: str, arg: CoefExpr):
        if func not in _FUNCTIONS:
            raise CoefficientError(f"unknown function {func!r}")
        _set(self, "func", func)
        _set(self, "arg", arg)


I = Num(1j)
ZERO = Num(0)
ONE = Num(1)


def _intern(cls, head, a=None, b=None):
    """The node of class cls, structural head (its class, a Num's value or a
    Call's function) and operands a, b. While a tape is current, it is the
    tape's node of that key, made and numbered there (:meth:`Tape.number`) if
    the tape has none; while it builds, a new sum with |v| <= r in the ball
    (l, r) numbering gave it is ``ZERO`` and numbers nothing. A sum without a
    ball (dependent, or it or an operand failed) is always made."""
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
    k = tape.keys.get(key)
    if k is not None:
        return tape.nodes[k]
    node = cls(head) if i < 0 else cls(a, b) if j >= 0 else cls(a) if head is cls else cls(head, a)
    k = tape.number(node, key)
    if head is Add or head is Sub:
        l, r = tape.balls.get(k, (inf, inf))
        if l <= r < inf:  # |v| <= r: the exact value is within 2r of 0
            del tape.keys[key], index[id(node)], tape.nodes[k], tape.ops[k], tape.dependent[k]
            del tape.run._vals[k], tape.balls[k]
            return ZERO
    return node


# the constructors fold only what is exact at any precision: a zero or unit
# operand (a zero tested first), a literal's negation and a double negation.
# A literal sum is a node like any other, which the build values once.


def fold_add(a: "CoefExpr", b: "CoefExpr") -> "CoefExpr":
    if type(a) is Num and a.value == 0:
        return b
    if type(b) is Num and b.value == 0:
        return a
    return _intern(Add, Add, a, b)


def _fold_sub(a: "CoefExpr", b: "CoefExpr") -> "CoefExpr":
    if type(b) is Num and b.value == 0:
        return a
    if type(a) is Num and a.value == 0:
        return _fold_neg(b)
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
    exact zeros (inf*0 is nan), so each part rounds one product; of two
    finite reals, the imaginary part is exactly fzero."""
    if y[1] == fzero and not (mpc_is_infnan(x) or mpc_is_infnan(y)):
        return mpc_mul_mpf(x, y[0], prec, rnd)
    if x[1] == fzero and not (mpc_is_infnan(x) or mpc_is_infnan(y)):
        return mpc_mul_mpf(y, x[0], prec, rnd)
    return mpc_mul(x, y, prec, rnd)


_LOG2E = 1 / math.log(2)


def _plus(a: float, b: float, c: float = -inf, d: float = -inf) -> float:
    """A bound on log2(2^a + 2^b + 2^c + 2^d), as log2(1 + t) <= t log2 e."""
    top = max(a, b, c, d)
    if top == inf or top == -inf:
        return top
    return top + (2.0 ** (a - top) + 2.0 ** (b - top) + 2.0 ** (c - top) + 2.0 ** (d - top) - 1) * _LOG2E


def _slope(func: str, z: complex, rz: float) -> float:
    """log2 of a bound on |f'| over the disc |w - z| <= r = 2^rz; inf if the disc meets a
    pole, a branch point or mpmath's cut, (-inf, 0] for sqrt and ln, (-inf, 1] for arccosh."""
    try:
        r = 2.0 ** max(rz, -1000)
        if func in ("sqrt", "ln", "arccosh"):  # |f'| = 1/(2 |w|^(1/2)), 1/|w|, 1/|w^2 - 1|^(1/2)
            if z.real - r <= (func == "arccosh") and abs(z.imag) <= r:
                return inf
            return -log2({"sqrt": 4 * (abs(z) - r), "ln": (abs(z) - r) ** 2,
                          "arccosh": (abs(z - 1) - r) * (abs(z + 1) - r)}[func]) / 2
        if func in ("tanh", "sech"):  # |f'| <= cosh Re w / |cosh w|^2, with |cosh w|^2 >= low
            low = math.sinh(max(abs(z.real) - r, 0)) ** 2 + math.cos(z.imag) ** 2 - r
            return (abs(z.real) + r) * _LOG2E - log2(low) if low > 0 else inf
        return ((z.real if func == "exp" else abs(z.real)) + r) * _LOG2E  # |f'| <= e^(Re w or |Re w|)
    except (ArithmeticError, ValueError):
        return inf


def _log2abs(z: tuple) -> float:
    """log2 |z| of a raw mpc; -inf for 0, inf for inf or nan."""
    (_, m, e, _), (_, n, f, _) = z
    x, y = e + log2(m) if m else inf if e else -inf, f + log2(n) if n else inf if f else -inf
    if x < y:
        x, y = y, x
    return x if y == -inf or x == inf else x + log2(1 + 2.0 ** (2 * (y - x))) / 2


def _ball(i: int, ops: list, vals: dict, balls: dict, prec: int) -> tuple:
    """The ball (l, r) of instruction i, invariant and valued at precision
    prec, from its operands' balls: l is log2 |v| for its value v, and r
    log2 of a bound on its error (J. van der Hoeven, *Ball arithmetic*, 2010):
    rx + ry for a sum, |x| ry + |y| rx + rx ry for a product, the quotient
    rule, or r sup|f'| on the ball for a function, plus v's rounding, below
    2^(1-prec) |v| as each part rounds once (a quotient's after ten guard
    bits), which also covers l's rounding in doubles; 2^8 times that for a
    function, as mpmath states no bound; a Num or pi has its rounding only.
    Inf, nan, or a divisor's ball within half its magnitude of 0 has r = inf."""
    head, a, b = ops[i]
    (lx, rx), (ly, ry), ulp = balls.get(a, (-inf, -inf)), balls.get(b, (-inf, -inf)), 1 - prec
    if head is Mul:
        l = lx + ly
        return l, inf if rx == inf or ry == inf else _plus(lx + ry, ly + rx, rx + ry, l + ulp)
    if head is Neg or head is Conj:  # exact on a value of at most prec bits
        return lx, rx
    l = _log2abs(vals[i])
    if rx == inf or ry == inf or l == inf:
        return l, inf
    if head is Add or head is Sub:
        return l, _plus(rx, ry, l + ulp)
    if head is Div:  # |y| - ry >= |y| / 2 when ry <= log2 |y| - 1
        low = _log2abs(vals[b])
        return l, inf if ry > low - 1 else _plus(_plus(lx + ry, ly + rx) + 1 - 2 * low, l + ulp)
    if type(head) is str:  # a Call's function
        slope = rx + _slope(head, to_complex(vals[a]), rx) if rx > -inf else -inf
        return l, _plus(slope, l + ulp + 8, l + ulp)
    return l, l + ulp  # a Num's value or pi


class Tape:
    """A circuit's coefficient nodes as instructions, operands first: node i,
    its structural key ``ops[i]`` (head: class, ``Num`` value, ``Call``
    function or ``Param`` name; then the operands' indices, -1 where it has
    fewer) and whether a Param reaches it. While a tape is ``current``
    (``evaluate_circuit`` makes its own so), the constructors above number
    each node as they make it, and return the tape's node for a key it
    holds. A foreign node (made by the parser, as a module constant or under
    no tape) joins when first read, through :meth:`append`; one whose key is
    taken maps to that instruction and stays in ``foreign``, so its id is
    never recycled. ``stored`` keeps, per precision, the invariant values
    later runs read: operands of dependent instructions, and invariant
    roots. Between :meth:`open` and :meth:`close` it builds in one run, the
    interpreter's: :meth:`number`, the one place an instruction is numbered,
    values an invariant one in ``run`` and bounds it in ``balls`` unless it
    or an operand fails, and :func:`_intern` folds a sum within its error
    radius r of 0; outside a build, joining computes nothing. The values the
    store keeps come from that run, at its precision."""

    __slots__ = ("nodes", "ops", "index", "keys", "foreign", "dependent", "stored", "covered", "run", "balls",
                 "__weakref__")
    current: "Tape | None" = None  # the tape the constructors intern on

    def __init__(self):
        self.nodes: list[CoefExpr] = []
        self.ops: list[tuple] = []  # instruction -> structural key
        self.index: dict[int, int] = {}  # id(node) -> instruction
        self.keys: dict[tuple, int] = {}  # structural key -> instruction
        self.foreign: list[CoefExpr] = []  # foreign nodes mapped to another node's instruction
        self.dependent = bytearray()
        self.stored: dict[int, dict[int, tuple]] = {}  # precision -> instruction -> value
        self.covered: dict[int, int] = {}  # precision -> instructions numbered when close stored at it
        self.run: Evaluator | None = None  # while it builds, its run and each value's ball (l, r)
        self.balls: dict[int, tuple] = {}

    def open(self, run: "Evaluator") -> "Tape | None":
        """Make this tape current and building in run, a run of it; returns the tape current before."""
        outer, Tape.current = Tape.current, self
        self.run = run
        return outer

    def close(self, outer: "Tape | None", roots=()) -> None:
        """End the build, outer current again; the store at its precision keeps its
        values of roots (joined if foreign) and of invariant operands of dependent instructions."""
        Tape.current, index, dep, run = outer, self.index, self.dependent, self.run
        keep = [k for k in (index[id(c)] if id(c) in index else self.append(c) for c in roots) if not dep[k]]
        keep += [k for _, a, b in compress(self.ops, dep) for k in (a, b) if k >= 0 and not dep[k]]
        self.run, self.balls, self.covered[run._prec] = None, {}, len(self.nodes)
        run._stored.update((k, run._vals[k]) for k in keep if k in run._vals)

    def number(self, node: CoefExpr, key: tuple) -> int:
        """Number node, new, as instruction key; while the tape builds, an invariant
        one gets its value and ball (:func:`_ball`) unless its kernel raises or an
        operand has no value, so a run raises at it in tape order."""
        _, a, b = key
        dep, run = self.dependent, self.run
        self.keys[key] = self.index[id(node)] = k = len(self.nodes)
        self.nodes.append(node)
        self.ops.append(key)
        dep.append(type(node) is Param or a >= 0 and (dep[a] or b >= 0 and dep[b]))
        if run is not None and not dep[k] and (a < 0 or a in run._vals) and (b < 0 or b in run._vals):
            try:
                run._eval((k,))
            except (ArithmeticError, ValueError):
                return k
            self.balls[k] = _ball(k, self.ops, run._vals, self.balls, run._prec)
        return k

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
                if cls not in (Num, Param, PiConst):
                    raise CoefficientError(f"cannot evaluate {node!r}")
                a = b = -1
            cls = type(node)
            # a Param's name and a Call's func differ in the operand: -1 for a Param
            key = (node.value if cls is Num else node.name if cls is Param else
                   node.func if cls is Call else cls, a, b)
            i = self.keys.get(key)
            if i is None:
                self.number(node, key)
            else:
                index[id(node)] = i
                self.foreign.append(node)
        return index[id(root)]


class Evaluator:
    """One run of a :class:`Tape` (by default a one-off tape) under one env.

    :meth:`eval` and, for many roots at once, :meth:`eval_all` join foreign
    roots to the tape and return their raw ``_mpc_`` tuples. Both go
    through one pass (:meth:`_run`) over only what this run lacks of them:
    after the run its tape built in (at ``MP``'s precision), what a
    :class:`Param` reaches. :meth:`_eval` runs a pass forward in tape order,
    applying the ``mpmath.libmp`` kernels of ``MP.mpc`` arithmetic and of
    ``MP``'s functions, bit for bit, at the precision ``MP`` had when the run
    was made, or on reals the real kernels they reduce to (:func:`_mul`;
    cosh and sinh of a real x are ``mpf_cosh_sinh(x)``, whose cosh ignores
    the sign ``mpc_cosh`` gives x); a failing pass raises its first failure
    in tape order. Its two memos compute each distinct invariant product
    once, where unequal structure gives it, and one ``mpf_cosh_sinh`` per
    real operand, by its instruction. Values join the store when a pass
    finishes, never when it raises: its invariant roots, and the invariant
    operands of the dependent instructions it computed, which at the
    build's precision it looks for only past the instructions numbered when
    :meth:`Tape.close` stored theirs. The run a tape builds in
    (:meth:`Tape.open`) values each invariant instruction as
    :meth:`Tape.number` numbers it.
    """

    def __init__(self, env: ParamEnv, tape: Tape | None = None):
        self.env = env
        self.tape = tape = Tape() if tape is None else tape
        self._prec, self._rnd = MP._prec_rounding
        self._stored = tape.stored.setdefault(self._prec, {})
        self._vals = dict(self._stored)  # instruction -> raw value in this run
        self._products: dict[tuple, tuple] = {}  # binding-invariant Mul by operand values
        self._hyperbolic: dict[int, tuple] = {}  # real operand's instruction -> its mpf_cosh_sinh

    def eval(self, expr: CoefExpr) -> tuple:
        """The raw ``_mpc_`` tuple (re, im) of expr at the run's precision, unwrapped."""
        tape = self.tape
        i = tape.index.get(id(expr))
        if i is None:
            i = tape.append(expr)
        value = self._vals.get(i)
        if value is not None and (tape.dependent[i] or i in self._stored):
            return value  # a hit: a pass would compute and store nothing
        return self._run([i])[0]

    def eval_all(self, exprs) -> list[tuple]:
        """The raw value of each of exprs, from one pass."""
        index, append = self.tape.index, self.tape.append
        return self._run([append(expr) if (i := index.get(id(expr))) is None else i for expr in exprs])

    def _run(self, roots: list[int]) -> list[tuple]:
        """Values of instructions roots, computing first what this run lacks of them."""
        vals, ops, dependent, stored = self._vals, self.tape.ops, self.tape.dependent, self._stored
        seen = {i for i in roots if i not in vals}
        order = list(seen)
        for i in order:  # grows as it goes: what roots reach that this run lacks
            _, a, b = ops[i]
            if a >= 0 and a not in vals and a not in seen:
                seen.add(a)
                order.append(a)
            if b >= 0 and b not in vals and b not in seen:
                seen.add(b)
                order.append(b)
        if order:
            order.sort()  # operands are numbered before what reads them
            self._eval(order)
            fresh = order[bisect_left(order, self.tape.covered.get(self._prec, 0)):]
            stored.update((k, vals[k]) for i in fresh if dependent[i]
                          for k in ops[i][1:] if k >= 0 and not dependent[k] and k not in stored)
        for i in roots:
            if not dependent[i] and i not in stored:
                stored[i] = vals[i]
        return [vals[i] for i in roots]

    def _eval(self, order: list[int]) -> None:
        """The raw value of each instruction of order, in order, into the run's
        values; each one's operands come before it in order or are values already."""
        ops, dependent, vals, env = self.tape.ops, self.tape.dependent, self._vals, self.env.values
        products, hyperbolic, prec, rnd, mul = self._products, self._hyperbolic, self._prec, self._rnd, _mul
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
                x, part = vals[a], _HYPERBOLIC.get(head)
                if part is not None and x[1] == fzero:  # cosh and sinh of a real x share one call
                    if a not in hyperbolic:
                        hyperbolic[a] = mpf_cosh_sinh(x[0], prec, rnd)
                    value = (hyperbolic[a][part], fzero)
                else:
                    value = _FUNCTIONS[head](x, prec, rnd)
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
            elif head is PiConst:
                value = (mpf_pi(prec, rnd), fzero)
            else:  # a Num's value
                value = MP.mpc(head)._mpc_
            vals[i] = value

