"""Fault-injection plane + resilience helpers (§V stress machinery).

See :mod:`repro.faults.plane` for the injection model and
:mod:`repro.faults.sites` for the canonical site registry.
"""

from .plane import (
    ERROR_CLASSES,
    PLANE,
    TRANSIENT_CLASSES,
    FaultPlane,
    FaultSpec,
    armed,
    configure_from_env,
    enable_chaos,
    is_transient,
    maybe_inject,
    suspended,
)
from .retry import with_retry
from .sites import SITES

__all__ = [
    "ERROR_CLASSES",
    "PLANE",
    "SITES",
    "TRANSIENT_CLASSES",
    "FaultPlane",
    "FaultSpec",
    "armed",
    "configure_from_env",
    "enable_chaos",
    "is_transient",
    "maybe_inject",
    "suspended",
    "with_retry",
]
