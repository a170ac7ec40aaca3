"""Bosonic mode algebra: labeled input modes and linear forms over them.

A :class:`ModeExpr` is a finitely supported map from input-mode labels to
coefficient pairs ``(c, d)`` meaning a contribution ``c*a + d*a_dagger``.
Everything a circuit produces stays in this form, so commutators and
quadrature variances reduce to sums over the table. Expressions compare by
identity: a :class:`ModeEvaluator` caches the numeric table of each
expression object it is given.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

from mpmath.libmp import fnan, from_float, from_man_exp, fzero, mpc_exp

from .coeff import (
    MP,
    ONE,
    CoefExpr,
    Evaluator,
    ParamEnv,
    Tape,
    ZERO,
    as_coef,
    conj,
)


class ModeKind(Enum):
    VACUUM = "vacuum"
    ENTANGLEMENT_SEED = "entanglement_seed"
    SIGNAL = "signal"


@dataclass(frozen=True)
class ModeId:
    """Label of one constituent input mode of a circuit."""

    name: str
    rail: str
    time_bin: int = 0
    kind: ModeKind = ModeKind.VACUUM

    def __post_init__(self):
        if self.time_bin < 0:
            raise ValueError(f"time_bin must be >= 0, got {self.time_bin}")
        # the generated hash, computed once: tables look modes up constantly
        object.__setattr__(self, "_hash", hash((self.name, self.rail, self.time_bin, self.kind)))

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.time_bin, self.rail, self.name)


CoefPair = tuple[CoefExpr, CoefExpr]


class ModeExpr:
    """Linear combination sum_i (c_i * a_i + d_i * a_i^dagger), with the tape
    of the circuit that made it, if any (see :class:`ModeEvaluator`)."""

    __slots__ = ("terms", "tape")

    def __init__(self, terms: dict[ModeId, CoefPair] | None = None):
        self.terms = dict(terms) if terms else {}
        self.tape: Tape | None = None

    def __repr__(self):
        if not self.terms:
            return "ModeExpr(0)"
        parts = [m.name for m in sorted(self.terms, key=ModeId.sort_key)]
        return f"ModeExpr(over {', '.join(parts)})"


def input_mode(mode_id: ModeId) -> ModeExpr:
    return ModeExpr({mode_id: (ONE, ZERO)})


def dagger(expr: ModeExpr) -> ModeExpr:
    return ModeExpr(
        {m: (conj(d), conj(c)) for m, (c, d) in expr.terms.items()}
    )


def lin_comb(weighted: list[tuple[object, ModeExpr]]) -> ModeExpr:
    """Coefficient-wise linear combination of mode expressions."""
    out: dict[ModeId, CoefPair] = {}
    for weight, expr in weighted:
        w = as_coef(weight)
        for mode, (c, d) in expr.terms.items():
            prev = out.get(mode)
            if prev is None:
                out[mode] = (w * c, w * d)
            else:
                out[mode] = (prev[0] + w * c, prev[1] + w * d)
    return ModeExpr(out)


NumericTerms = dict[ModeId, tuple]

GUARD_BITS = 64
# a larger entry raises OverflowError: its integer grows with its exponent
MAX_MAGNITUDE_BITS = 1 << 16

# coefficients at or below this magnitude are dropped from displayed tables
DISPLAY_THRESHOLD = 1e-14


def _binding_key(env: ParamEnv) -> tuple:
    # evaluation reads the values only; the limit scale never enters it
    return tuple(sorted(env.values.items()))


class ModeEvaluator:
    """Numeric session: mode expressions evaluated under one binding.

    Coefficient tables are keyed by the expression object itself
    (expressions compare by identity), so every analysis that draws from
    the same session reuses them. Sessions form a tree owned from the top:
    :meth:`bind` returns this session when the overrides change no value,
    otherwise the session it made for that set of values, once. No session
    refers to the one that made it, so a finished analysis frees them all
    without the cyclic GC. A session evaluates coefficients by one run
    (:class:`Evaluator`) per tape: its expressions' circuit's, or its own.
    A session given ``roots`` (an evaluated protocol's ports, records and
    forms) tables them all on creation, then drops its runs; it hands them
    to every session it binds. A session without roots tables lazily and
    keeps its runs, as does the one :func:`session_for` keeps for the last
    bare :class:`ParamEnv` given. Its precision is ``MP``'s when it is made;
    its runs and the sessions it binds keep it.

    The kernels below hold each entry x, converted once per session, as
    x~ = trunc(x 2^P), P = working bits + GUARD_BITS, sum exact integer
    products and round once. As |x - x~| < 2^-P and |x~| <= |x|, each part
    of a product moves by at most 2^-P (|x|_1 + |y|_1), |z|_1 = |Re z| +
    |Im z|. One walk gives both commutators of a pair; a variance reads
    three sums per table, made once per session. An inf or nan entry makes
    every kernel reading its table give nan.
    """

    def __init__(self, env: ParamEnv, roots: tuple[ModeExpr, ...] = ()):
        self.env = env
        # the working precision, read here only: runs, kernels and bound sessions keep it
        self._prec, self._rnd = MP._prec_rounding
        self._bits = self._prec + GUARD_BITS
        self._runs: dict[Tape | None, Evaluator] = {}
        self._tables: dict[ModeExpr, NumericTerms] = {}
        self._fixed_tables: dict[ModeExpr, dict | None] = {}
        self._variance_sums: dict[ModeExpr, tuple[int, int, int] | None] = {}
        self._roots = tuple(roots)
        self._derived: dict[tuple, ModeEvaluator] = {}
        for expr in self._roots:
            self.table(expr)
        self._runs = {}

    def bind(self, **overrides: float) -> "ModeEvaluator":
        """This session if the overrides change no value, else its session
        for the binding with them applied."""
        env = self.env.bind(**overrides)
        key = _binding_key(env)
        if key == _binding_key(self.env):
            return self
        session = self._derived.get(key)
        if session is None:
            with MP.workprec(self._prec):
                session = self._derived[key] = ModeEvaluator(env, self._roots)
        return session

    def table(self, expr: ModeExpr) -> NumericTerms:
        cached = self._tables.get(expr)
        if cached is not None:
            return cached
        run = self._runs.get(expr.tape)
        if run is None:
            with MP.workprec(self._prec):
                run = self._runs[expr.tape] = Evaluator(self.env, expr.tape)
        ev = run.eval
        result = {m: (ev(c), ev(d)) for m, (c, d) in expr.terms.items()}
        self._tables[expr] = result
        return result

    def _fixed(self, expr: ModeExpr) -> dict | None:
        if expr not in self._fixed_tables:
            self._fixed_tables[expr] = _fixed_table(self.table(expr), self._bits)
        return self._fixed_tables[expr]

    def commutators(self, left: ModeExpr, right: ModeExpr):
        """([left, right], [left, right^dagger]) from one walk over the modes
        in both tables: sums of c*f - d*e and of c*conj(e) - d*conj(f).

        Before its one rounding each part lies within 2^-P sum(|c|_1 +
        |d|_1 + |e|_1 + |f|_1) of the exact sum; on multiples of 2^-P it is
        it. The second is bit-equal to the first of ``(left, dagger(right))``:
        truncation commutes with conjugation.
        """
        re, im, cross_re, cross_im = self._commutator_parts(left, right)
        return MP.make_mpc((re, im)), MP.make_mpc((cross_re, cross_im))

    def _commutator_parts(self, left: ModeExpr, right: ModeExpr) -> tuple:
        """The raw mpf parts (re, im, cross re, cross im) of :meth:`commutators`."""
        lt, rt = self._fixed(left), self._fixed(right)
        if lt is None or rt is None:
            return (fnan,) * 4
        re = im = cross_re = cross_im = 0
        for mode, (cr, ci, dr, di) in lt.items():
            other = rt.get(mode)
            if other is not None:
                er, ei, fr, fi = other
                re += cr * fr - ci * fi - dr * er + di * ei
                im += cr * fi + ci * fr - dr * ei - di * er
                cross_re += cr * er + ci * ei - dr * fr - di * fi
                cross_im += ci * er - cr * ei + dr * fi - di * fr
        exp, prec, rnd = -2 * self._bits, self._prec, self._rnd
        return (from_man_exp(re, exp, prec, rnd), from_man_exp(im, exp, prec, rnd),
                from_man_exp(cross_re, exp, prec, rnd), from_man_exp(cross_im, exp, prec, rnd))

    def variance(self, expr: ModeExpr, phase: float):
        """Sum over the table of |a|^2, a = e^{-i phase} c + e^{i phase} conj(d).

        With w = e^{-i phase} truncated too, each part of every a lies within
        delta = 2^-P (2|w|_1 + |c|_1 + |d|_1) of its exact value, and the sum
        before its one rounding within sum(2 delta (|a|_1 + delta)), formed
        from the table's three phase-free sums (:meth:`_sums`).
        """
        sums = self._sums(expr)
        if sums is None or not math.isfinite(phase):
            return MP.make_mpf(fnan)
        wr, wi = _phase_factor(phase, self._prec)
        s1, s2, s3 = sums
        total = wr * wr * s1 + wi * wi * s2 + 2 * wr * wi * s3
        return MP.make_mpf(from_man_exp(total, -4 * self._bits, self._prec, self._rnd))

    def _sums(self, expr: ModeExpr) -> tuple[int, int, int] | None:
        """sum(A^2 + C^2), sum(B^2 + D^2), sum(CD - AB) of the fixed table, or
        None if it is not finite: A, B, C, D = cr + dr, ci + di, ci - di, cr - dr
        are the parts of a = w c + conj(w d) = (wr A - wi B) + i (wr C + wi D)."""
        if expr not in self._variance_sums:
            table, sums = self._fixed(expr), None
            if table is not None:
                s1 = s2 = s3 = 0
                for cr, ci, dr, di in table.values():
                    a, b, c, d = cr + dr, ci + di, ci - di, cr - dr
                    s1 += a * a + c * c
                    s2 += b * b + d * d
                    s3 += c * d - a * b
                sums = s1, s2, s3
            self._variance_sums[expr] = sums
        return self._variance_sums[expr]


def _fixed_table(table: NumericTerms, bits: int) -> dict | None:
    """(cr, ci, dr, di) of each entry in fixed point, or None if one is inf or nan."""
    out = {}
    for mode, (c, d) in table.items():
        cr, ci, dr, di = parts = c._mpc_ + d._mpc_
        for _, man, exp, _ in parts:
            # inf and nan are the raw mpfs with a zero mantissa and a nonzero exponent
            if not man and exp:
                return None
        out[mode] = (_to_fixed(cr, bits), _to_fixed(ci, bits), _to_fixed(dr, bits), _to_fixed(di, bits))
    return out


def _to_fixed(value: tuple, bits: int) -> int:
    """trunc(value * 2^bits) of a finite raw mpf."""
    sign, man, exp, bc = value
    if man and exp + bc > MAX_MAGNITUDE_BITS:
        raise OverflowError(f"coefficient beyond 2^{MAX_MAGNITUDE_BITS}, the exact sums' range")
    fixed = man << (exp + bits) if exp + bits >= 0 else man >> -(exp + bits)
    return -fixed if sign else fixed


@functools.lru_cache(maxsize=64)
def _phase_factor(phase: float, prec: int) -> tuple[int, int]:
    """e^{-i phase} at prec bits, in fixed point at 2^-(prec + GUARD_BITS),
    made once per phase and precision."""
    w = mpc_exp((fzero, from_float(-phase)), prec, "n")
    return _to_fixed(w[0], prec + GUARD_BITS), _to_fixed(w[1], prec + GUARD_BITS)


# what the env-taking functions accept: a bare binding or a session
Binding = ParamEnv | ModeEvaluator

# (env, session) of the last bare ParamEnv given to session_for. One slot, so
# a pass over many bindings keeps one set of runs alive, not one per binding.
_last_bare: tuple[ParamEnv, ModeEvaluator] | None = None


def session_for(binding: Binding) -> ModeEvaluator:
    """The session to evaluate in: binding itself, or the session of a bare env.

    A bare env gets the session made for the last bare env given here when
    it is that same object, otherwise a new session that replaces it. So
    calls that keep passing one env share its tables and runs; every env
    reads the parameter-free values stored on the circuit's tape. The match
    is by identity: equal values with another limit scale are another
    binding to the analyses that read the scale. A kept session keeps the
    precision it was made with, even if ``MP``'s has changed since.
    """
    global _last_bare
    if isinstance(binding, ModeEvaluator):
        return binding
    last = _last_bare
    if last is not None and last[0] is binding:
        return last[1]
    session = ModeEvaluator(binding)
    _last_bare = (binding, session)
    return session


def quadrature_variance(expr: ModeExpr, phase: float, env: Binding) -> float:
    """Vacuum variance of X(phase) = e^{-i phase} A + e^{i phase} A^dagger.

    Every constituent mode is treated as an independent vacuum input, so a
    single proper passive mode gives exactly 1.
    """
    return float(session_for(env).variance(expr, phase))


def prune_for_display(expr: ModeExpr, env: Binding):
    """Numeric coefficient table with negligible entries dropped.

    Display convenience only; expression semantics never depend on it.
    """
    table = {}
    for mode, (c, d) in session_for(env).table(expr).items():
        cc, dc = complex(c), complex(d)
        if _magnitude(cc) <= DISPLAY_THRESHOLD and _magnitude(dc) <= DISPLAY_THRESHOLD:
            continue
        table[mode] = (cc, dc)
    return table


def _magnitude(z: complex) -> float:
    """abs(z), or nan if a part is nan: CPython's abs() then obeys a stale errno."""
    return math.nan if cmath.isnan(z) else abs(z)
