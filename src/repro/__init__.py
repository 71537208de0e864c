"""repro — chase & backchase query optimization with universal plans.

A complete reproduction of:

    Alin Deutsch, Lucian Popa, Val Tannen.
    "Physical Data Independence, Constraints and Optimization with
    Universal Plans." VLDB 1999, pp. 459–470.

The public API re-exports the main entry points; see README.md for a
quickstart and ROADMAP.md's "Reference — subsystem notes" for the
architecture.

Typical usage — the :class:`Database` façade bundles schema, constraints,
physical design, instance, statistics and the cross-request plan cache::

    from repro import Database

    db = Database.from_workload("projdept")
    print(db.optimize(db.workload.query).report())

    prepared = db.prepare(db.workload.query)   # chase & backchase once
    result = prepared.run()                    # plan-cache hits after that

The lower layers (``Optimizer``, ``execute``, ``CachedSession``, ...)
remain importable for standalone use.
"""

from repro.backchase.backchase import BackchaseStats, minimal_subqueries
from repro.backchase.minimize import minimize, minimize_all
from repro.chase.chase import ChaseEngine, ChaseResult, chase
from repro.chase.containment import (
    implies,
    is_contained_in,
    is_equivalent,
    is_trivial,
)
from repro.constraints.checker import check_all, holds
from repro.constraints.epcd import EPCD
from repro.errors import ParameterBindingError, QuerySyntaxError, ReproError
from repro.exec.engine import execute, explain
from repro.model.instance import Instance
from repro.model.schema import Schema
from repro.model.types import (
    BOOL,
    FLOAT,
    INT,
    STRING,
    BaseType,
    DictType,
    OidType,
    SetType,
    StructType,
    dict_of,
    relation,
    set_of,
    struct,
)
from repro.model.values import DictValue, Oid, Row, row
from repro.model.ddl import DDLResult, parse_ddl
from repro.optimizer.cost import CostModel, estimate_cost
from repro.optimizer.optimizer import OptimizationResult, Optimizer, Plan
from repro.optimizer.statistics import Statistics
from repro.physical.asr import AccessSupportRelation, PathStep
from repro.physical.classes import ClassEncoding
from repro.physical.gmap import GMap
from repro.physical.hashtable import HashTable
from repro.physical.indexes import PrimaryIndex, SecondaryIndex
from repro.physical.joinindex import JoinIndex
from repro.physical.views import MaterializedView
from repro.query.ast import Binding, Eq, PathOutput, PCQuery, StructOutput
from repro.semcache import (
    CachedSession,
    CachedView,
    CacheStats,
    CostBenefitPolicy,
    SemanticCache,
    SessionResult,
)
from repro.api import (
    CacheConfig,
    Database,
    OptimizeContext,
    PlanCacheInfo,
    PreparedQuery,
    build_workload,
)
from repro.obs import (
    AnalyzeResult,
    MetricsRegistry,
    Observability,
    ObsConfig,
    QueryReport,
    SlowQueryLog,
    Tracer,
    analyze_query,
)
from repro.advisor import (
    AdvisorReport,
    DesignBudget,
    PhysicalDesignAdvisor,
    logical_database,
)
from repro.query.evaluator import evaluate
from repro.query.parser import parse_constraint, parse_path, parse_query
from repro.query.paths import (
    Attr,
    Const,
    Dom,
    Lookup,
    NFLookup,
    Param,
    Path,
    SName,
    Var,
)
from repro.query.printer import format_constraint, format_query
from repro.query.typing import typecheck_query

__version__ = "1.0.0"

__all__ = [
    "AccessSupportRelation",
    "AdvisorReport",
    "AnalyzeResult",
    "Attr",
    "CacheConfig",
    "Database",
    "DesignBudget",
    "MetricsRegistry",
    "Observability",
    "ObsConfig",
    "OptimizeContext",
    "PhysicalDesignAdvisor",
    "PlanCacheInfo",
    "PreparedQuery",
    "QueryReport",
    "SlowQueryLog",
    "Tracer",
    "analyze_query",
    "build_workload",
    "logical_database",
    "BOOL",
    "BaseType",
    "Binding",
    "ChaseEngine",
    "ChaseResult",
    "ClassEncoding",
    "Const",
    "CostModel",
    "DictType",
    "DictValue",
    "Dom",
    "EPCD",
    "Eq",
    "FLOAT",
    "GMap",
    "HashTable",
    "INT",
    "Instance",
    "JoinIndex",
    "Lookup",
    "MaterializedView",
    "NFLookup",
    "Oid",
    "OidType",
    "Param",
    "ParameterBindingError",
    "QuerySyntaxError",
    "OptimizationResult",
    "Optimizer",
    "Path",
    "PathOutput",
    "PathStep",
    "PCQuery",
    "Plan",
    "PrimaryIndex",
    "ReproError",
    "Row",
    "SName",
    "STRING",
    "Schema",
    "SecondaryIndex",
    "SetType",
    "Statistics",
    "StructOutput",
    "StructType",
    "Var",
    "DDLResult",
    "chase",
    "check_all",
    "dict_of",
    "parse_ddl",
    "estimate_cost",
    "evaluate",
    "execute",
    "explain",
    "format_constraint",
    "format_query",
    "holds",
    "implies",
    "is_contained_in",
    "is_equivalent",
    "is_trivial",
    "minimal_subqueries",
    "BackchaseStats",
    "CacheStats",
    "CachedSession",
    "CachedView",
    "CostBenefitPolicy",
    "SemanticCache",
    "SessionResult",
    "minimize",
    "minimize_all",
    "parse_constraint",
    "parse_path",
    "parse_query",
    "relation",
    "row",
    "set_of",
    "struct",
    "typecheck_query",
]
