"""Workload generators: arrival schedules, key workloads and node profiles.

The paper's evaluation only needs the simplest workload (1024 consecutive
vnode creations on homogeneous nodes with uniform keys), but a usable
library also needs the workloads the introduction motivates: heterogeneous
cluster nodes (different hardware generations, specialized nodes), dynamic
enrollment changes and skewed key popularity.  All of those live here and
are exercised by the examples and the ablation experiments.
"""

from repro.workloads.arrivals import (
    ArrivalEvent,
    ChurnSchedule,
    ConsecutiveCreations,
    PoissonArrivals,
    StaggeredBatches,
)
from repro.workloads.keys import (
    KeyWorkload,
    id_keys,
    sequential_keys,
    uniform_keys,
    zipf_id_keys,
    zipf_keys,
)
from repro.workloads.heterogeneity import (
    CapacityProfile,
    NodeSpec,
    enrollment_from_capacity,
)
from repro.workloads.driver import build_cluster
from repro.workloads.churn import (
    ChurnEngine,
    ChurnEvent,
    ChurnReport,
    ChurnSpec,
    make_churn_trace,
    run_churn,
)

__all__ = [
    "ArrivalEvent",
    "ConsecutiveCreations",
    "StaggeredBatches",
    "PoissonArrivals",
    "ChurnSchedule",
    "KeyWorkload",
    "uniform_keys",
    "zipf_keys",
    "zipf_id_keys",
    "sequential_keys",
    "id_keys",
    "build_cluster",
    "ChurnSpec",
    "ChurnEvent",
    "ChurnEngine",
    "ChurnReport",
    "make_churn_trace",
    "run_churn",
    "NodeSpec",
    "CapacityProfile",
    "enrollment_from_capacity",
]
