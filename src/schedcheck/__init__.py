"""Verification workbench for a preemptive async-task scheduler model."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    Action,
    ConfigurationError,
    KernelConfig,
    KernelState,
    TaskKind,
    TaskState,
    UsageError,
    initial_state,
    snapshot,
    symmetric_key,
)
from .monitor import (  # noqa: F401
    Event,
    MonitorRegistry,
    MonitorState,
    MonitorViolation,
    TransitionTable,
    default_table,
)
from .explorer import (  # noqa: F401
    ExplorationReport,
    Limits,
    ReplayError,
    ScheduleStep,
    Trace,
    enabled,
    explore,
    random_walk,
    replay,
)
