"""Search substrate: content model, super-peer indexes, flooding."""

from .content import ContentCatalog
from .flooding import FloodRouter, QueryOutcome
from .index import ContentDirectory
from .stats import QueryStats, QueryStatsSnapshot
from .workload import QueryWorkload

__all__ = [
    "ContentCatalog",
    "FloodRouter",
    "QueryOutcome",
    "ContentDirectory",
    "QueryStats",
    "QueryStatsSnapshot",
    "QueryWorkload",
]
