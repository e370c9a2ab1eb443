"""Multiset rewriting with comprehension patterns.

A rule head can match a dynamically sized multiset of constraints; the
semantics forces each comprehension to absorb everything it subsumes.
The package provides the declarative rewriting semantics, an incremental
goal-stack engine with lazy/eager storage driven by a static monotonicity
analysis, and a differential harness that machine-checks every engine step
against the declarative relation.
"""

from .bundled import corpus_path, corpus_program, corpus_store
from .errors import (
    BudgetError,
    ChrcpError,
    NonGroundError,
    ParseError,
    RebindError,
    ScopeError,
    TermTypeError,
)
from .fuzz import generate_random
from .machine import (
    ExecutionState,
    OccurrenceProgram,
    annotate,
    initial_state,
    run_operational,
    step,
)
from .match import (
    MatchResult,
    enumerate_matches,
    matches_exactly,
    maximality_disabled,
    residual_non_match,
    subsumes,
)
from .monotone import (
    MonotonicityReport,
    is_monotone,
    predicate_report,
    residual_non_unifiable,
)
from .parse import (
    load_program,
    load_store,
    parse_program,
    parse_store,
    pretty_guard,
    pretty_pattern,
    pretty_program,
    pretty_rule,
    pretty_store,
    pretty_term,
)
from .rewrite import (
    MAX_STEPS,
    AbstractStep,
    abstract_steps,
    run_abstract,
    store_of,
    unfold_body,
)
from .rules import (
    Atom,
    Comprehension,
    Diagnostic,
    Program,
    Rule,
    canonical_store,
    check_program,
    normalize_program,
    normalize_rule,
)
from .soundness import (
    SoundnessReport,
    check_soundness,
    classify_step,
    correspondence,
)
from .terms import (
    Bind,
    Bool,
    Conj,
    ConjComp,
    GTrue,
    Guard,
    Inf,
    INFTY,
    Int,
    MSet,
    MSetUnion,
    PrimApp,
    Reduce,
    Rel,
    Substitution,
    Sym,
    Term,
    TermComp,
    TupleTerm,
    Var,
    eval_guard,
    mset,
    normalize,
    reduce_eval,
    substitute,
    tup,
)

__version__ = "0.1.0"
