"""repro.serve — multi-tenant async serving over the GPTPU stack.

The paper's runtime (§6.1) is batch-oriented: one caller fills the OPQ,
then syncs.  This package turns the same OPQ → Tensorizer → scheduler →
device pipeline into a continuously-fed service with admission control
and backpressure, multi-client GEMM coalescing, and fault-tolerant
dispatch with retries and circuit breakers.  See docs/serving.md.
"""

from repro.serve.admission import AdmissionController
from repro.serve.arrivals import (
    Arrival,
    ArrivalSchedule,
    build_schedule,
    lognormal_sizes,
    poisson_times,
)
from repro.serve.coalescer import coalesce, coalesce_key
from repro.serve.dispatcher import CircuitBreaker, DevicePool, DispatchWork
from repro.serve.loadgen import (
    LoadgenResult,
    LoadgenSpec,
    SustainedResult,
    SustainedSpec,
    run_loadgen,
    run_sustained,
)
from repro.serve.metrics import ServingMetrics
from repro.serve.request import ServeRequest
from repro.serve.server import ServeConfig, TpuServer, make_server
from repro.serve.slo import OverloadController, SloPolicy, SloTier, gold_silver_bronze

__all__ = [
    "AdmissionController",
    "Arrival",
    "ArrivalSchedule",
    "CircuitBreaker",
    "DevicePool",
    "DispatchWork",
    "LoadgenResult",
    "LoadgenSpec",
    "OverloadController",
    "ServeConfig",
    "ServeRequest",
    "ServingMetrics",
    "SloPolicy",
    "SloTier",
    "SustainedResult",
    "SustainedSpec",
    "TpuServer",
    "build_schedule",
    "coalesce",
    "coalesce_key",
    "gold_silver_bronze",
    "lognormal_sizes",
    "make_server",
    "poisson_times",
    "run_loadgen",
    "run_sustained",
]
