"""Query pipelines: the three query classes of the paper's evaluation,
staged per Figure 8 with per-stage cost accounting."""

from .containment import ContainmentResult, ContainmentSelection
from .costs import CostBreakdown
from .join import IntersectionJoin, JoinResult
from .nearest import NearestNeighborQuery, NearestResult
from .selection import IntersectionSelection, SelectionResult
from .within_distance import WithinDistanceJoin, WithinDistanceResult

__all__ = [
    "ContainmentResult",
    "ContainmentSelection",
    "CostBreakdown",
    "IntersectionJoin",
    "IntersectionSelection",
    "JoinResult",
    "NearestNeighborQuery",
    "NearestResult",
    "SelectionResult",
    "WithinDistanceJoin",
    "WithinDistanceResult",
]
