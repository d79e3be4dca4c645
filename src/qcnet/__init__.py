"""Rate-region and scheduling analysis for replicated and coded storage
networks modeled as queued cross-bar networks."""

from .system import (
    KnowledgeState,
    Mode,
    ModeVerdict,
    PhysicalDrive,
    SizeGuardError,
    StorageSystem,
    SystemBuildError,
    SystemDescription,
    TrafficPattern,
    build_system,
    enumerate_valid_modes,
    parse_system_description,
    validate_mode,
)
from .conflict import ConflictGraph, Vertex, build_conflict_graph, mask_users, users_mask
from .classify import (  # the ``classify`` function stays in its module, which it would hide
    ClassificationReport,
    find_net,
    is_claw_free,
    is_perfect,
    is_quasi_line,
)
from .stableset import FlowIncidence, StableSetFamily, enumerate_stable_sets, flow_incidence
from .region import RateRegion, rate_region
from .geometry import GeometryError, exact_hull, exact_lp_feasible
from .coding import (
    CodedLayout,
    DofTracker,
    Generation,
    check_achievable_any,
    check_achievable_unicast,
    coded_transform,
    striped_layout,
    update_knowledge,
)
from .schedule import (
    FrameSchedule,
    MaxWeightPolicy,
    RateDecomposition,
    build_frame_schedule,
    decompose_rate,
)
from .sim import ArrivalProcess, SimulationTrace, simulate, stability_verdict

__all__ = [name for name in dir() if not name.startswith("_")]
