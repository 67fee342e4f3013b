"""Batch execution: candidate partitioning and parallel refinement.

The scale-out layer over the paper's pipelines.  MBR filtering produces a
candidate-pair list; this package shards it (:mod:`~repro.exec.partition`),
refines the shards on a pool of engine-owning worker processes
(:mod:`~repro.exec.parallel`), and folds results, refinement statistics and
GPU counters back into the same objects the serial path produces.
"""

from .parallel import (
    OPS,
    BatchReport,
    EngineSpec,
    ParallelExecutor,
    ShardResult,
)
from .partition import MIN_SHARD_SIZE, partition_items, shard_count_for

__all__ = [
    "BatchReport",
    "EngineSpec",
    "MIN_SHARD_SIZE",
    "OPS",
    "ParallelExecutor",
    "ShardResult",
    "partition_items",
    "shard_count_for",
]
