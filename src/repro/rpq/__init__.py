"""Regular path query engine.

A regular path query (RPQ) asks for all endpoint pairs connected by a
path whose edge-label sequence matches a regular expression.  This
package provides:

* the path-expression parser (:mod:`repro.rpq.regex`),
* Thompson NFA / subset-construction DFA builders
  (:mod:`repro.rpq.automaton`),
* query objects — :class:`RPQuery` and the paper's :class:`KHopQuery`
  workload (:mod:`repro.rpq.query`),
* the logical planner that lowers queries into matrix-based execution
  plans (:mod:`repro.rpq.planner`),
* the cost-based planner that chooses expansion direction and bounds
  from frozen epoch statistics (:mod:`repro.rpq.cost_planner`),
* a reference evaluator used as the correctness oracle for every engine
  (:mod:`repro.rpq.evaluator`).
"""

from repro.rpq.regex import (
    ANY_LABEL,
    Concat,
    Label,
    RegexNode,
    RegexSyntaxError,
    Repeat,
    Union,
    khop_expression,
    parse_path_expression,
    reverse_expression,
)
from repro.rpq.automaton import (
    DFA,
    EPSILON,
    NFA,
    build_dfa,
    build_nfa,
    determinize,
    minimize_dfa,
)
from repro.rpq.cost_planner import (
    CostBasedPlanner,
    GraphCostStats,
    PlanDecision,
    accepting_edge_labels,
    epoch_of_view,
)
from repro.rpq.query import (
    BatchResult,
    Context,
    ContextSet,
    KHopQuery,
    RPQuery,
    make_batch_khop,
    random_source_batch,
)
from repro.rpq.planner import (
    ExpandStep,
    FixpointStep,
    LogicalPlan,
    ReduceStep,
    plan_khop,
    plan_query,
    plan_rpq,
)
from repro.rpq.evaluator import evaluate_khop, evaluate_rpq

__all__ = [
    "ANY_LABEL",
    "RegexNode",
    "Label",
    "Concat",
    "Union",
    "Repeat",
    "RegexSyntaxError",
    "parse_path_expression",
    "khop_expression",
    "reverse_expression",
    "NFA",
    "DFA",
    "EPSILON",
    "build_nfa",
    "build_dfa",
    "determinize",
    "minimize_dfa",
    "CostBasedPlanner",
    "GraphCostStats",
    "PlanDecision",
    "accepting_edge_labels",
    "epoch_of_view",
    "RPQuery",
    "KHopQuery",
    "BatchResult",
    "Context",
    "ContextSet",
    "make_batch_khop",
    "random_source_batch",
    "LogicalPlan",
    "ExpandStep",
    "FixpointStep",
    "ReduceStep",
    "plan_khop",
    "plan_rpq",
    "plan_query",
    "evaluate_khop",
    "evaluate_rpq",
]
