"""Source-to-source transformation engine: rewriting combinators, call-graph
analysis, argument threading, and the Transformation base classes."""

from repro.transform.argthread import OpRewriter, ThreadArgument
from repro.transform.callgraph import CallGraph
from repro.transform.optimize import PruneUnreachable, prune_unreachable
from repro.transform.rewrite import (
    body_calls,
    goal_indicator,
    goal_struct,
    map_body_goals,
    map_rules,
    strip_placement,
    with_placement,
)
from repro.transform.transformation import (
    FunctionTransformation,
    Identity,
    Transformation,
)

__all__ = [
    "Transformation",
    "Identity",
    "FunctionTransformation",
    "ThreadArgument",
    "OpRewriter",
    "CallGraph",
    "prune_unreachable",
    "PruneUnreachable",
    "goal_struct",
    "goal_indicator",
    "strip_placement",
    "with_placement",
    "map_body_goals",
    "map_rules",
    "body_calls",
]
