"""Bosonic mode algebra: labeled input modes and linear forms over them.

A :class:`ModeExpr` is a finitely supported map from input-mode labels to
coefficient pairs ``(c, d)`` meaning a contribution ``c*a + d*a_dagger``.
Everything a circuit produces stays in this form, so commutators and
quadrature variances reduce to sums over the table. Expressions compare by
identity: a :class:`ModeEvaluator` caches the numeric table of each
expression object it is given.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

from mpmath.libmp import mpc_add, mpc_conjugate, mpc_mul, mpc_sub, mpf_add, mpf_mul

from .coeff import (
    MP,
    ONE,
    CoefExpr,
    Evaluator,
    ParamEnv,
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

    def sort_key(self):
        return (self.time_bin, self.rail, self.name)


CoefPair = tuple[CoefExpr, CoefExpr]


class ModeExpr:
    """Linear combination sum_i (c_i * a_i + d_i * a_i^dagger)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[ModeId, CoefPair] | None = None):
        self.terms = dict(terms) if terms else {}

    def __add__(self, other):
        if not isinstance(other, ModeExpr):
            return NotImplemented
        return lin_comb([(1, self), (1, other)])

    def __sub__(self, other):
        if not isinstance(other, ModeExpr):
            return NotImplemented
        return lin_comb([(1, self), (-1, other)])

    def __neg__(self):
        return lin_comb([(-1, self)])

    def __rmul__(self, coefficient):
        return lin_comb([(coefficient, self)])

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

# coefficients at or below this magnitude are dropped from displayed tables
DISPLAY_THRESHOLD = 1e-14


def _binding_key(env: ParamEnv) -> tuple:
    # evaluation reads the values only; the limit scale never enters it
    return tuple(sorted(env.values.items()))


class ModeEvaluator:
    """Numeric session: mode expressions evaluated under one binding.

    Coefficient tables, and the vacuum variances read from them, are keyed
    by the expression object itself (expressions compare by identity), so
    every analysis that draws from the same session reuses them.
    :meth:`bind` returns the session of a derived binding from the same
    family, one session per distinct set of values; a family shares only
    its sessions and their tables. A session given ``roots`` (an evaluated
    protocol's ports and records), like every session bound from it,
    tables them all on creation through one scalar :class:`Evaluator`, then
    drops its per-node memo. A session without roots tables lazily and
    keeps its memo. So does the session, a family of its own, that
    :func:`session_for` keeps for the last bare :class:`ParamEnv` it was
    given. Parameter-free values come from the nodes (see :class:`Evaluator`).
    """

    def __init__(self, env: ParamEnv, roots: tuple[ModeExpr, ...] = ()):
        self.env = env
        self._coef: Evaluator | None = None
        self._tables: dict[ModeExpr, NumericTerms] = {}
        self._variances: dict[tuple[ModeExpr, float], object] = {}
        self._roots = tuple(roots)
        # made on the first bind(): the family refers back to this session,
        # and a session that never binds should be freed without the cyclic GC
        self._family: dict[tuple, ModeEvaluator] | None = None
        self._table_roots()

    def _table_roots(self) -> None:
        for expr in self._roots:
            self.table(expr)
        self._coef = None

    def bind(self, **overrides: float) -> "ModeEvaluator":
        """The family's session for this binding with overrides applied."""
        if self._family is None:
            self._family = {_binding_key(self.env): self}
        env = self.env.bind(**overrides)
        key = _binding_key(env)
        session = self._family.get(key)
        if session is None:
            session = ModeEvaluator(env)
            session._family = self._family
            session._roots = self._roots
            session._table_roots()
            self._family[key] = session
        return session

    def table(self, expr: ModeExpr) -> NumericTerms:
        cached = self._tables.get(expr)
        if cached is not None:
            return cached
        if self._coef is None:
            self._coef = Evaluator(self.env)
        ev = self._coef.eval
        result = {m: (ev(c), ev(d)) for m, (c, d) in expr.terms.items()}
        self._tables[expr] = result
        return result

    # Sums on raw mpmath tuples, bit-identical to mpc arithmetic in the same
    # order; skipping a zero term is exact, as adding zero rounds to itself.

    def commutator(self, left: ModeExpr, right: ModeExpr):
        """[left, right] = sum of c*f - d*e over modes in both tables."""
        prec, rnd = MP._prec_rounding
        lt, rt = self.table(left), self.table(right)
        total = _ZERO
        for mode, (c, d) in lt.items():
            other = rt.get(mode)
            if other is None:
                continue
            e, f = other
            cf = _mul(c._mpc_, f._mpc_, prec, rnd)
            de = _mul(d._mpc_, e._mpc_, prec, rnd)
            if cf is not _ZERO or de is not _ZERO:
                total = mpc_add(total, mpc_sub(cf, de, prec, rnd), prec, rnd)
        return MP.make_mpc(total)

    def cross_commutator(self, left: ModeExpr, right: ModeExpr):
        """[left, right^dagger], read off both tables without building a dagger.

        Exactly ``commutator(left, dagger(right))``: conjugation and negation
        are exact, and the sum runs in the same order.
        """
        prec, rnd = MP._prec_rounding
        lt, rt = self.table(left), self.table(right)
        total = _ZERO
        for mode, (c, d) in lt.items():
            other = rt.get(mode)
            if other is None:
                continue
            e, f = other
            ce = _mul(c._mpc_, mpc_conjugate(e._mpc_, prec, rnd), prec, rnd)
            df = _mul(d._mpc_, mpc_conjugate(f._mpc_, prec, rnd), prec, rnd)
            if ce is not _ZERO or df is not _ZERO:
                total = mpc_add(total, mpc_sub(ce, df, prec, rnd), prec, rnd)
        return MP.make_mpc(total)

    def variance(self, expr: ModeExpr, phase: float):
        """Sum over the table of |e^{-i phase} c + e^{i phase} conj(d)|^2."""
        table = self.table(expr)
        key = (expr, phase)
        if key not in self._variances:
            prec, rnd = MP._prec_rounding
            fwd, bwd = _phase_factors(phase)
            total = _ZERO[0]
            for c, d in table.values():
                fc = _mul(fwd, c._mpc_, prec, rnd)
                bd = _mul(bwd, mpc_conjugate(d._mpc_, prec, rnd), prec, rnd)
                if fc is _ZERO and bd is _ZERO:
                    continue
                re, im = mpc_add(fc, bd, prec, rnd)
                squares = mpf_mul(re, re, prec, rnd), mpf_mul(im, im, prec, rnd)
                total = mpf_add(total, mpf_add(*squares, prec, rnd), prec, rnd)
            self._variances[key] = MP.make_mpf(total)
        return self._variances[key]


_ZERO = MP.mpc(0)._mpc_


@functools.lru_cache(maxsize=64)
def _phase_factors(phase: float) -> tuple[tuple, tuple]:
    """Raw e^{-i phase} and e^{i phase} at ``MP``'s one precision, made once
    per phase. ROADMAP item 3's per-binding precision must key them by the
    precision too, or a 240-digit session would read 160-digit factors."""
    return MP.exp(MP.mpc(0, -phase))._mpc_, MP.exp(MP.mpc(0, phase))._mpc_


def _mul(a: tuple, b: tuple, prec: int, rnd: str) -> tuple:
    """mpc_mul(a, b), or _ZERO itself when a factor is zero and the other finite
    (inf and nan are the mpfs with a zero mantissa and a nonzero exponent)."""
    if (a == _ZERO or b == _ZERO) and all(man or not exp for _, man, exp, _ in a + b):
        return _ZERO
    return mpc_mul(a, b, prec, rnd)


# what the env-taking functions accept: a bare binding or a session
Binding = ParamEnv | ModeEvaluator

# (env, session) of the last bare ParamEnv given to session_for. One slot, so
# a pass over many bindings keeps one scalar memo alive, not one per binding.
_last_bare: tuple[ParamEnv, ModeEvaluator] | None = None


def session_for(binding: Binding) -> ModeEvaluator:
    """The session to evaluate in: binding itself, or the session of a bare env.

    A bare env gets the session made for the last bare env given here when
    it is that same object, otherwise a new session that replaces it. So
    calls that keep passing one env share its tables and scalar memo; every
    env reads the parameter-free values stored on the nodes. The match is by
    identity: equal values with another limit scale are another binding to
    the analyses that read the scale.
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
        if abs(cc) <= DISPLAY_THRESHOLD and abs(dc) <= DISPLAY_THRESHOLD:
            continue
        table[mode] = (cc, dc)
    return table
