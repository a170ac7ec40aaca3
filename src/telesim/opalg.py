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
import contextlib
import functools
import math
from enum import Enum
from itertools import islice

from mpmath.libmp import from_float, from_man_exp, fzero, mpc_exp, to_float

from .coeff import (
    MP,
    ONE,
    CoefExpr,
    Evaluator,
    Frozen,
    ParamEnv,
    Tape,
    ZERO,
    as_coef,
    conj,
    fold_add,
    fold_mul,
    to_complex,
)


class ModeKind(Enum):
    VACUUM = "vacuum"
    ENTANGLEMENT_SEED = "entanglement_seed"
    SIGNAL = "signal"


class ModeId(Frozen):
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
    current when it was made: its circuit's, while ``evaluate_circuit`` runs
    (see :class:`ModeEvaluator`)."""

    __slots__ = ("terms", "tape")

    def __init__(self, terms: dict[ModeId, CoefPair] | None = None):
        self.terms = dict(terms) if terms else {}
        self.tape = Tape.current

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
    """Coefficient-wise linear combination of mode expressions, without modes
    whose pair is (``ZERO``, ``ZERO``). A building tape makes ``ZERO`` of an
    invariant sum whose value lies within its error radius r of 0 (``ZERO`` is
    then within 2r of its exact value), never of a sum a Param reaches."""
    out: dict[ModeId, CoefPair] = {}
    for weight, expr in weighted:
        w = as_coef(weight)
        for mode, (c, d) in expr.terms.items():
            prev = out.get(mode)
            if prev is None:
                pair = out[mode] = (fold_mul(w, c), fold_mul(w, d))
            else:
                pair = out[mode] = (fold_add(prev[0], fold_mul(w, c)), fold_add(prev[1], fold_mul(w, d)))
            if pair[0] is ZERO and pair[1] is ZERO:
                del out[mode]
    return ModeExpr(out)


NumericTerms = dict[ModeId, tuple]  # mode -> (c, d), each a raw _mpc_ tuple

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

    A table maps each mode to (c, d), the raw ``_mpc_`` tuples the run
    gives (:meth:`coeff.Evaluator.eval`), never wrapped in an mpc; the
    kernels read them as they are and :meth:`floats` is their double view.
    Coefficient tables are keyed by the expression object itself
    (expressions compare by identity), so every analysis that draws from
    the same session reuses them, and each table's float view (:meth:`floats`)
    and fixed-point form, made once per session. Sessions form a tree owned
    from the top: :meth:`bind` returns this session when the overrides change
    no value, otherwise the session it made for that set of values, once. No
    session refers to the one that made it, so a finished analysis frees them
    all without the cyclic GC. A session evaluates coefficients by one run
    (:class:`Evaluator`) per tape: its expressions' circuit's, or its own.
    A session given ``roots`` (an evaluated protocol's ports, records and
    forms) tables them all on creation, from one pass per tape
    (:meth:`Evaluator.eval_all`) sliced into tables, then drops its runs; it
    hands the roots, and the caches of the top session, to every session it
    binds. The top session (given roots, no caches) records, after that
    pass, the reached modes of each root: those whose c or d a
    :class:`Param` reaches, as the tape marks them. A bound session takes
    each root entry of the other modes, with its fixed-point and float
    forms, from those caches; it evaluates the reached ones in its one
    pass, and converts them. A session without roots tables lazily, one
    pass per table or per tape of a :meth:`tabled` call, and keeps its
    runs, as does the one :func:`session_for` keeps for the last bare
    :class:`ParamEnv` given. Its precision is ``MP``'s when it is made; its
    runs and the sessions it binds keep it.

    The kernels below hold each entry x, converted once per session, as
    x~ = trunc(x 2^P), P = working bits + GUARD_BITS, sum exact integer
    products and return the double each sum has rounded to working bits (:func:`_rounded`).
    As |x - x~| < 2^-P and |x~| <= |x|, each part of a product moves by at
    most 2^-P (|x|_1 + |y|_1), |z|_1 = |Re z| + |Im z|. One walk over the
    modes of a list of tables gives both commutators of every pair
    (:meth:`commutator_pairs`); a variance reads three sums per table, each
    session's own walk of its whole fixed table. An inf or nan entry makes
    every kernel reading its table give nan.
    """

    def __init__(self, env: ParamEnv, roots: tuple[ModeExpr, ...] = (), shared: tuple | None = None):
        self.env = env
        # the working precision, read here only: runs, kernels and bound sessions keep it
        self._prec, self._rnd = MP._prec_rounding
        self._bits = self._prec + GUARD_BITS
        self._runs: dict[Tape | None, Evaluator] = {}
        # the slots of _caches; _reached: per root, the modes a parameter reaches
        self._caches = ({}, {}, {}, {})
        self._tables, self._fixed_tables, self._floats, self._reached = self._caches
        self._variance_sums: dict[ModeExpr, tuple | None] = {}
        self._shared = shared  # in a bound session, the caches of the top session it was bound from
        self._roots = tuple(roots)
        self._derived: dict[tuple, ModeEvaluator] = {}
        wanted = [(expr, expr.terms if shared is None else shared[3][expr]) for expr in self._roots]
        for expr, made in self._evaluated(wanted).items():
            if shared is None:  # the pass joined each entry to its run's tape
                index, dep = self._runs[expr.tape].tape.index, self._runs[expr.tape].tape.dependent
                self._reached[expr] = [m for m, (c, d) in expr.terms.items()
                                       if dep[index[id(c)]] or dep[index[id(d)]]]
            else:
                made = {**shared[0][expr], **made} if made else shared[0][expr]
            self._tables[expr] = made
        self._runs = {}

    def bind(self, **overrides: float) -> "ModeEvaluator":
        """This session if the overrides change no value, else its session
        for the binding with them applied."""
        env = self.env.bind(**overrides)
        key = _binding_key(env)
        if key == _binding_key(self.env):
            return self
        if key not in self._derived:
            with MP.workprec(self._prec):
                self._derived[key] = ModeEvaluator(env, self._roots, self._shared or self._caches)
        return self._derived[key]

    def table(self, expr: ModeExpr) -> NumericTerms:
        """Each mode of expr with its raw coefficients (c, d), made once per session."""
        cached = self._tables.get(expr)
        if cached is None:
            cached = self._tables[expr] = self._evaluated([(expr, expr.terms)])[expr]
        return cached

    def tabled(self, exprs) -> None:
        """Make the table of each of exprs this session lacks, from one pass per tape."""
        self._tables.update(self._evaluated([(e, e.terms) for e in exprs if e not in self._tables]))

    def _evaluated(self, wanted: list) -> dict[ModeExpr, NumericTerms]:
        """For each (expr, modes) of wanted, the table of those modes of expr,
        from one pass of this session's run of each tape."""
        tapes: dict[Tape | None, list] = {}
        for expr, modes in wanted:
            tapes.setdefault(expr.tape, []).append((expr, modes))
        made = {}
        for tape, exprs in tapes.items():
            coefs = [coef for expr, modes in exprs for m in modes for coef in expr.terms[m]]
            values = iter(self._run_of(tape).eval_all(coefs))
            pairs = zip(values, values)
            made.update((expr, dict(zip(modes, islice(pairs, len(modes))))) for expr, modes in exprs)
        return made

    def _run_of(self, tape: Tape | None) -> Evaluator:
        run = self._runs.get(tape)
        if run is None:
            with MP.workprec(self._prec):
                run = self._runs[tape] = Evaluator(self.env, tape)
        return run

    def floats(self, expr: ModeExpr) -> dict:
        """The double view of :meth:`table`, as ``complex()`` converts, made once per session."""
        views = self._floats
        return views[expr] if expr in views else self._converted(2, expr, _float_table, self._rnd)

    def _fixed(self, expr: ModeExpr) -> dict | None:
        fixed = self._fixed_tables
        return fixed[expr] if expr in fixed else self._converted(1, expr, _fixed_table, self._bits)

    def _converted(self, slot: int, expr: ModeExpr, convert, arg):
        """convert(table(expr), arg), kept in cache slot; for a root in a bound session, the
        top session's (made there first) with the entries a parameter reaches converted here."""
        table, shared = self.table(expr), self._shared
        modes = shared and shared[3].get(expr)
        if modes is not None and expr not in shared[slot]:
            with contextlib.suppress(OverflowError):  # from an entry this session may lack
                shared[slot][expr] = convert(shared[0][expr], arg)
        base = None if modes is None else shared[slot].get(expr)
        if base is None:  # unshared, or an inf, nan or too large entry there
            made = convert(table, arg)
        else:  # None if an entry a parameter reaches is inf or nan
            made = convert({m: table[m] for m in modes}, arg)
            made = made if made is None else {**base, **made} if made else base
        self._caches[slot][expr] = made
        return made

    def commutator_pairs(self, exprs) -> dict[tuple[int, int], tuple]:
        """For i <= j, the doubles (re, im, cross re, cross im) of [e_i, e_j]
        and [e_i, e_j^dagger], e = exprs, from one walk over the modes:
        sums over each mode in both tables of c*f - d*e and of c*conj(e) -
        d*conj(f), (c, d) from e_i's table, (e, f) from e_j's.

        Keyed (i, j) in that order: each diagonal pair, each pair sharing a
        mode and each pair with a table holding an inf or nan entry, whose
        parts are all nan. Any other pair is exactly (0.0, 0.0, 0.0, 0.0).
        Before its one rounding each part lies within 2^-P sum(|c|_1 +
        |d|_1 + |e|_1 + |f|_1) of the exact sum; on multiples of 2^-P it is
        it. The cross pair of (i, j) is bit-equal to the first of e_i with
        dagger(e_j): truncation commutes with conjugation.
        """
        tables = [self._fixed(expr) for expr in exprs]
        by_mode: dict[ModeId, list] = {}
        for i, table in enumerate(tables):
            for mode, entry in (table or {}).items():
                by_mode.setdefault(mode, []).append((i, *entry))
        sums = {(i, i): [0, 0, 0, 0] for i in range(len(tables))}
        for entries in by_mode.values():
            for k, (i, cr, ci, dr, di) in enumerate(entries):
                for j, er, ei, fr, fi in entries[k:]:
                    parts = sums.get((i, j))
                    if parts is None:
                        parts = sums[i, j] = [0, 0, 0, 0]
                    parts[0] += cr * fr - ci * fi - dr * er + di * ei
                    parts[1] += cr * fi + ci * fr - dr * ei - di * er
                    parts[2] += cr * er + ci * ei - dr * fr - di * fi
                    parts[3] += ci * er - cr * ei + dr * fi - di * fr
        exp, prec, rnd = -2 * self._bits, self._prec, self._rnd
        out = {pair: tuple(_rounded(s, exp, prec, rnd) if s else 0.0 for s in parts)
               for pair, parts in sums.items()}
        for i, table in enumerate(tables):
            if table is None:
                out.update(((min(i, j), max(i, j)), (math.nan,) * 4) for j in range(len(tables)))
        return dict(sorted(out.items()))

    def variance(self, expr: ModeExpr, phase: float) -> float:
        """The double of the sum over the table of |a|^2, a = e^{-i phase} c
        + e^{i phase} conj(d), rounded as :meth:`commutator_pairs` rounds.

        With w = e^{-i phase} truncated too, each part of every a lies within
        delta = 2^-P (2|w|_1 + |c|_1 + |d|_1) of its exact value, and the sum
        before its one rounding within sum(2 delta (|a|_1 + delta)), formed
        from the table's three phase-free sums (:meth:`_sums`).
        """
        sums = self._sums(expr)
        if sums is None or not math.isfinite(phase):
            return math.nan
        wr, wi = _phase_factor(phase, self._prec)
        s1, s2, s3 = sums
        total = wr * wr * s1 + wi * wi * s2 + 2 * wr * wi * s3
        return _rounded(total, -4 * self._bits, self._prec, self._rnd)

    def _sums(self, expr: ModeExpr) -> tuple[int, int, int] | None:
        """sum(A^2 + C^2), sum(B^2 + D^2), sum(CD - AB) of the fixed table, or
        None if it is not finite: A, B, C, D = cr + dr, ci + di, ci - di, cr - dr
        are the parts of a = w c + conj(w d) = (wr A - wi B) + i (wr C + wi D). Each
        session walks its own fixed table, once per expression."""
        sums = self._variance_sums
        if expr not in sums:
            table = self._fixed(expr)
            sums[expr] = None if table is None else _sum_parts(table.values())
        return sums[expr]


def _sum_parts(entries) -> tuple[int, int, int]:
    """The three sums of :meth:`ModeEvaluator._sums` over fixed-point entries."""
    s1 = s2 = s3 = 0
    for cr, ci, dr, di in entries:
        a, b, c, d = cr + dr, ci + di, ci - di, cr - dr
        s1 += a * a + c * c
        s2 += b * b + d * d
        s3 += c * d - a * b
    return s1, s2, s3


def _rounded(total: int, exp: int, prec: int, rnd: str) -> float:
    """``to_float(from_man_exp(total, exp, prec, rnd), False, rnd)`` in one correctly
    rounded step where that is the same double: for a nonzero total at rounding "n"
    whose double is normal, 54 < prec < 1024, ``float`` (to nearest, ties to even) of
    its leading prec bits, scaled; they round as total does unless their part below
    the double's last place is within one unit of half of it, the one place the
    prec-bit rounding can make a tie (S. A. Figueroa, *When is double rounding
    innocuous?*, 1995)."""
    n = abs(total).bit_length()
    shift = n - prec if n > prec else 0
    top = abs(total) >> shift
    if total and rnd == "n" and -1021 <= n + exp <= 1023 and 54 < prec < 1024 and (
            not shift or (top + 1 - (1 << (prec - 54))) & ((1 << (prec - 53)) - 1) > 2):
        return math.ldexp(-float(top) if total < 0 else float(top), exp + shift)
    return to_float(from_man_exp(total, exp, prec, rnd), False, rnd)


def _float_table(table: NumericTerms, rnd: str) -> dict:
    """The double of each entry at rounding rnd (:func:`coeff.to_complex`)."""
    return {m: (to_complex(c, rnd), to_complex(d, rnd)) for m, (c, d) in table.items()}


def _fixed_table(table: NumericTerms, bits: int) -> dict | None:
    """(cr, ci, dr, di) of each entry in fixed point, or None if one is inf or nan."""
    out = {}
    for mode, (c, d) in table.items():
        cr, ci, dr, di = parts = c + d
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
    single proper passive mode gives exactly 1: :meth:`ModeEvaluator.variance`.
    """
    return session_for(env).variance(expr, phase)


def prune_for_display(expr: ModeExpr, env: Binding):
    """The session's float view of expr (:meth:`ModeEvaluator.floats`) with
    negligible entries dropped: display only; no semantics depend on it."""
    return {
        mode: (c, d)
        for mode, (c, d) in session_for(env).floats(expr).items()
        if not (_magnitude(c) <= DISPLAY_THRESHOLD and _magnitude(d) <= DISPLAY_THRESHOLD)
    }


def _magnitude(z: complex) -> float:
    """abs(z), inf past the double range, or nan if a part is nan: CPython's
    abs() raises on the one and obeys a stale errno on the other."""
    try:
        return math.nan if cmath.isnan(z) else abs(z)
    except OverflowError:  # finite parts, modulus above about 1.8e308
        return math.inf
