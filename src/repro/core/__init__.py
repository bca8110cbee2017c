"""Core: the H2P system facade and the trace-driven datacenter simulator.

* :mod:`repro.core.config` — simulation/scheme configuration, including
  the paper's two evaluated schemes (*TEG_Original*, *TEG_LoadBalance*);
* :mod:`repro.core.results` — result containers and scheme comparison;
* :mod:`repro.core.simulator` — the time-stepped cluster simulator that
  produces Fig. 14 / Fig. 15;
* :mod:`repro.core.engine` — the parallel batch execution layer (many
  (scheme x trace) runs through one API, vectorised);
* :mod:`repro.core.shard` — fleet-scale sharded execution: one huge
  trace split into circulation-block x time-window tiles, dispatched
  over the engine's executor and merged back bit-identically;
* :mod:`repro.core.h2p` — the top-level :class:`H2PSystem` facade a
  downstream user starts from.
"""

from .config import (SimulationConfig, teg_original,
                     teg_loadbalance, teg_static)
from .results import (
    ColumnarSteps,
    SafetyViolation,
    SimulationResult,
    StepRecord,
    SchemeComparison,
)
from .simulator import DatacenterSimulator
from .engine import (
    EXECUTION_MODES,
    BatchResult,
    BatchSimulationEngine,
    EngineMetrics,
    FailedJob,
    KernelTimings,
    SharedTraceRef,
    SimulationJob,
    compare_batch,
    reap_orphaned_segments,
    run_batch,
    simulate,
)
from .shard import (
    ShardOutcome,
    ShardSpec,
    audit_merged_result,
    merge_shard_outcomes,
    plan_shards,
    run_shard,
    simulate_sharded,
)
from .checkpoint import CheckpointStore, RunKey, run_key, trace_digest
from .cache import (ResultCache, ResultCacheStats, resolve_result_cache,
                    result_key, warm_keys)
from .h2p import H2PSystem
from .facility import FacilityModel, FacilityReport
from .seasonal import SeasonalStudy, MonthOutcome, annual_summary

__all__ = [
    "SimulationConfig",
    "teg_original",
    "teg_loadbalance",
    "teg_static",
    "SimulationResult",
    "StepRecord",
    "ColumnarSteps",
    "SafetyViolation",
    "SchemeComparison",
    "DatacenterSimulator",
    "BatchSimulationEngine",
    "BatchResult",
    "SimulationJob",
    "FailedJob",
    "EngineMetrics",
    "KernelTimings",
    "SharedTraceRef",
    "EXECUTION_MODES",
    "ShardSpec",
    "ShardOutcome",
    "plan_shards",
    "run_shard",
    "merge_shard_outcomes",
    "audit_merged_result",
    "simulate_sharded",
    "CheckpointStore",
    "RunKey",
    "run_key",
    "trace_digest",
    "ResultCache",
    "ResultCacheStats",
    "resolve_result_cache",
    "result_key",
    "warm_keys",
    "reap_orphaned_segments",
    "simulate",
    "run_batch",
    "compare_batch",
    "H2PSystem",
    "FacilityModel",
    "FacilityReport",
    "SeasonalStudy",
    "MonthOutcome",
    "annual_summary",
]
