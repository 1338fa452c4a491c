"""The processor count that parallel work in the package follows."""

from __future__ import annotations

import os


def usable_cores() -> int:
    """CPUs this process may run on: its affinity mask, so `taskset`
    narrows it; 1 on platforms without one."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))
