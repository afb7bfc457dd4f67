"""Deductive languages: COL (str/inf), DATALOG¬, and the BK calculus.

See DESIGN.md Section 2.4.  The naive reference drivers every
production path is checked against live in :mod:`repro.deductive.oracle`.
"""

from .ast import (
    ColProgram,
    ConstD,
    DTerm,
    EqLit,
    FuncLit,
    FuncT,
    Literal,
    PredLit,
    Rule,
    SetD,
    TupD,
    VarD,
)
from .col import Interp, eval_term, match, rule_substitutions
from .stratify import dependency_edges, run_stratified, stratify
from .inflationary import run_inflationary
from .datalog import (
    DatalogProgram,
    non_reachable_datalog,
    run_datalog_inflationary,
    run_datalog_stratified,
    transitive_closure_datalog,
    unstratifiable_program,
)
from .bk import (
    BKAtom,
    BKProgram,
    BKRule,
    BKVar,
    chain_to_list_program,
    glb,
    join_attempt_program,
    leq,
    lub,
    match_leq,
    reduce_set,
    run_bk,
    subobjects,
)

__all__ = [
    "ColProgram", "ConstD", "DTerm", "EqLit", "FuncLit", "FuncT", "Literal",
    "PredLit", "Rule", "SetD", "TupD", "VarD",
    "Interp", "eval_term", "match", "rule_substitutions",
    "dependency_edges", "run_stratified", "stratify",
    "run_inflationary",
    "DatalogProgram", "non_reachable_datalog", "run_datalog_inflationary",
    "run_datalog_stratified", "transitive_closure_datalog",
    "unstratifiable_program",
    "BKAtom", "BKProgram", "BKRule", "BKVar", "chain_to_list_program",
    "glb", "join_attempt_program", "leq", "lub", "match_leq", "reduce_set",
    "run_bk", "subobjects",
]
