"""Host CPU models: single-core FIFO execution and its cost model."""

from .core import CpuCore
from .costs import DEFAULT_COSTS, CpuCostModel

__all__ = ["CpuCore", "CpuCostModel", "DEFAULT_COSTS"]
