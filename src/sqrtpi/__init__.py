"""Toolchain for the sqrt-Pi reversible-quantum combinator language.

Parse, type check, and exactly evaluate combinator terms into unitary
matrices over Z[1/2, w]; build standard gates and qubit circuits as terms;
decide circuit equivalence exactly; and apply a semantically validated
equational rule catalog as a rewrite system.
"""

from .exactnum import DyadicCyclotomic, omega_pow
from .lang import (
    BOOL,
    ONE_T,
    ZERO_T,
    Ann,
    Combinator,
    MetaVar,
    ParseError,
    Prim,
    Prod,
    ProdC,
    Seq,
    SqrtPiError,
    Sum,
    SumC,
    TypeCheckError,
    Typed,
    UnificationFailure,
    UnresolvedMetavariable,
    ValueType,
    dimension,
    invert,
    parse,
    parse_type,
    parse_type_pair,
    pretty,
    seq,
    typecheck,
    type_str,
)
from .semantics import (
    DimensionError,
    ExactMatrix,
    Verdict,
    adjoint,
    compose,
    direct_sum,
    equal_matrices,
    evaluate,
    kronecker,
    render,
)
from .gates import (
    GateError,
    GateMacro,
    ctrl,
    gate_macros,
    identity_at,
    mat,
    midswap,
    named_gate,
    nctrl,
    omega_term,
    phase_gate,
    scalar_mul,
)
from .circuits import (
    Circuit,
    CircuitError,
    CircuitGate,
    compile_circuit,
    parse_circuit,
    place,
    wire_type,
)
from .rewrite import (
    NoMatch,
    PathInvalid,
    RewriteRule,
    RewriteStep,
    RewriteTrace,
    apply_rule,
    catalog_text,
    check_equiv,
    load_catalog,
    replay,
    rule_db,
    rules_by_name,
    simplify,
    validate_rule,
)

__version__ = "0.1.0"
