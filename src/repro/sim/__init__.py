"""Discrete-event simulation substrate (kernel, processes, resources, RNG)."""

from .kernel import EventHandle, SimulationError, Simulator
from .params import FaultParams, NetParams, SimParams
from .process import Event, Future, Process, all_of
from .resources import CpuPool, CpuServer
from .rng import RngRegistry

__all__ = [
    "Simulator",
    "EventHandle",
    "SimulationError",
    "Future",
    "Process",
    "Event",
    "all_of",
    "CpuServer",
    "CpuPool",
    "RngRegistry",
    "SimParams",
    "NetParams",
    "FaultParams",
]
