"""HATT: Hamiltonian-Adaptive Ternary Tree construction (the paper's core)."""

from .construction import (
    ARCH_WEIGHT_SCALE,
    DEFAULT_ARCH_WEIGHT,
    DEFAULT_MEMORY_BUDGET,
    HattConstruction,
    Selection,
    hatt_mapping,
)

__all__ = [
    "HattConstruction",
    "Selection",
    "hatt_mapping",
    "DEFAULT_MEMORY_BUDGET",
    "ARCH_WEIGHT_SCALE",
    "DEFAULT_ARCH_WEIGHT",
]
