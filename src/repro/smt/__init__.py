"""Quantifier-free SMT layer over booleans and fixed-width bitvectors.

This package provides the "solver input language" of the paper: the SVM
compiles lifted computations into a DAG of boolean and bitvector terms
(:mod:`repro.smt.terms`), which are then bit-blasted to CNF
(:mod:`repro.smt.bitblast`) and decided by the CDCL engine in
:mod:`repro.solver`. The :class:`repro.smt.solver.SmtSolver` facade offers
check-sat under assumptions, model extraction, and minimized unsat cores —
the three services the paper's queries (`solve`, `verify`, `debug`,
`synthesize`) need from Z3.
"""

from repro.smt.terms import (
    BOOL,
    BV,
    FALSE,
    TRUE,
    Term,
    bool_const,
    bool_var,
    bv_const,
    bv_var,
    mk_add,
    mk_and,
    mk_ashr,
    mk_bvand,
    mk_bvnot,
    mk_bvor,
    mk_bvxor,
    mk_eq,
    mk_iff,
    mk_implies,
    mk_ite,
    mk_lshr,
    mk_mul,
    mk_neg,
    mk_not,
    mk_or,
    mk_sdiv,
    mk_shl,
    mk_sle,
    mk_slt,
    mk_smod,
    mk_srem,
    mk_sub,
    mk_udiv,
    mk_ule,
    mk_ult,
    mk_urem,
    mk_xor,
    evaluate,
    substitute,
    term_size,
    to_sexpr,
)
from repro.smt.solver import SmtResult, SmtSolver, SolveOptions

__all__ = [
    "BOOL", "BV", "FALSE", "TRUE", "Term",
    "bool_const", "bool_var", "bv_const", "bv_var",
    "mk_add", "mk_and", "mk_ashr", "mk_bvand", "mk_bvnot", "mk_bvor",
    "mk_bvxor", "mk_eq", "mk_iff", "mk_implies", "mk_ite", "mk_lshr",
    "mk_mul", "mk_neg", "mk_not", "mk_or", "mk_sdiv", "mk_shl", "mk_sle",
    "mk_slt", "mk_smod", "mk_srem", "mk_sub", "mk_udiv", "mk_ule", "mk_ult",
    "mk_urem", "mk_xor",
    "evaluate", "substitute", "term_size", "to_sexpr",
    "SmtResult", "SmtSolver", "SolveOptions",
]
