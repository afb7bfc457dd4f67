"""repro — executable reproduction of Hull & Su,
"Untyped Sets, Invention, and Computable Queries" (PODS 1989).

The package models the paper's full landscape: the complex-object data
model with types and relaxed types (untyped sets), the algebra with
``while``, the calculus with its four invention semantics, the
deductive languages COL (stratified / inflationary) and BK, generic
Turing machines, and the constructive theorem compilers connecting
them.  See README.md for a tour and DESIGN.md for the system inventory.
"""

from .budget import Budget
from .errors import (
    BudgetExceeded,
    EvaluationError,
    MachineError,
    ReproError,
    SchemaError,
    StratificationError,
    TypeCheckError,
    UNDEFINED,
    is_undefined,
)
from .model import (
    Atom,
    Database,
    OBJ,
    Permutation,
    RType,
    Schema,
    SetVal,
    Tup,
    U,
    Value,
    adom,
    obj,
    parse_type,
)
from .algebra import Program, ProgramBuilder, run_program, unnest_whiles
from .calculus import Query, evaluate_query, terminal_invention
from .deductive import BKProgram, ColProgram, run_bk, run_inflationary, run_stratified
from .gtm import GTM, gtm_query, run_gtm
from .core import (
    check_agreement,
    compile_gtm_to_alg,
    compile_gtm_to_calc,
    compile_gtm_to_col,
    implementations_for,
)
from .query import Session, connect, parse
from .query.explain import explain
from .query.planner import build_plan, execute_plan

# The operational surface, consolidated here by the observability
# redesign: the serving layer, durable storage, the statistics catalog,
# and the repro.obs entry points.
from . import obs
from .catalog import Catalog
from .obs import (
    MetricsRegistry,
    SlowQueryLog,
    SpanRecorder,
    disable_tracing,
    enable_tracing,
    get_recorder,
    get_registry,
    render_json,
    render_prometheus,
    span,
    tracing,
)
from .serve import QueryService, ServeClient
from .store import DurableDatabase, Store

__version__ = "1.0.0"

__all__ = [
    "Budget",
    "BudgetExceeded", "EvaluationError", "MachineError", "ReproError",
    "SchemaError", "StratificationError", "TypeCheckError", "UNDEFINED",
    "is_undefined",
    "Atom", "Database", "OBJ", "Permutation", "RType", "Schema", "SetVal",
    "Tup", "U", "Value", "adom", "obj", "parse_type",
    "Program", "ProgramBuilder", "run_program", "unnest_whiles",
    "Query", "evaluate_query", "terminal_invention",
    "BKProgram", "ColProgram", "run_bk", "run_inflationary",
    "run_stratified",
    "GTM", "gtm_query", "run_gtm",
    "check_agreement", "compile_gtm_to_alg", "compile_gtm_to_calc",
    "compile_gtm_to_col", "implementations_for",
    "Session", "connect", "parse", "explain", "build_plan", "execute_plan",
    "Catalog", "DurableDatabase", "QueryService", "ServeClient", "Store",
    "MetricsRegistry", "SlowQueryLog", "SpanRecorder", "obs",
    "disable_tracing", "enable_tracing", "get_recorder", "get_registry",
    "render_json", "render_prometheus", "span", "tracing",
    "__version__",
]
