"""Simulation engine: event kernel, fleet simulators, time model, recording.

Mirrors the paper's two evaluation modes: large simulated deployments
(:mod:`~repro.sim.fleet` for MF, :mod:`~repro.sim.dnn_fleet` for the DNN)
and the distributed SGX testbed (:mod:`~repro.core.cluster` executed for
real, then timed by :mod:`~repro.sim.distributed`).  Every execution path
registers its work (training epochs, transport ticks, fault schedules,
serving ticks) on the :mod:`~repro.sim.kernel` event kernel's priority
queue; the two fleet simulators share one epoch driver,
:mod:`~repro.sim.engine`.  All paths share the
:mod:`~repro.sim.time_model` cost model and produce
:class:`~repro.sim.recorder.RunResult` series; experiment presets matching
each figure/table live in :mod:`~repro.sim.experiments`.
"""

from repro.sim.centralized import run_centralized
from repro.sim.distributed import timeline_from_cluster
from repro.sim.dnn_fleet import DnnFleetSim
from repro.sim.fleet import MfFleetSim
from repro.sim.kernel import Event, EventKernel
from repro.sim.recorder import EpochRecord, RunResult
from repro.sim.time_model import DEFAULT_TIME_MODEL, LAN_TIME_MODEL, StageTimer, TimeModel

__all__ = [
    "DEFAULT_TIME_MODEL",
    "LAN_TIME_MODEL",
    "DnnFleetSim",
    "EpochRecord",
    "Event",
    "EventKernel",
    "MfFleetSim",
    "RunResult",
    "StageTimer",
    "TimeModel",
    "run_centralized",
    "timeline_from_cluster",
]
