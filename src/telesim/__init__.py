"""Heisenberg-picture toolkit for teleportation-based mode filters.

Circuits are lists of statements over symbolic scalar coefficients; every
wire carries an exact linear combination of input creation/annihilation
operators. The layers stack as coefficients -> operator algebra ->
elements -> circuits -> protocol builders, with an independent analysis
module and a text front end on top. Circuits (parse_circuit,
evaluate_circuit, build) are the validated entry point; the element algebra
in telesim.elements checks nothing and is not exported here. Numbers come
from a ModeEvaluator session: its tables, commutators and variances.
"""

from .circuit import (
    CircuitAst,
    CircuitError,
    Loc,
    PortTiming,
    ProtocolOutput,
    evaluate_circuit,
    merge_env,
)
from .coeff import CoefExpr, CoefficientError, ParamEnv, evaluate
from .dsl import ParseError, format_number, parse_circuit, serialize_circuit
from .opalg import (
    ModeEvaluator,
    ModeExpr,
    ModeId,
    ModeKind,
    dagger,
    input_mode,
    lin_comb,
    prune_for_display,
    quadrature_variance,
)
from .protocols import PROTOCOLS, build, protocol_text
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

__version__ = "0.1.0"
