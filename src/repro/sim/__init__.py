"""Simulation substrate: statevector engines, noise models, state preparation.

Two dense engines share the same amplitude convention: the single-state
:class:`Statevector` and the vectorized :class:`BatchedStatevector`, which
drives the noisy-trajectory engine (see :mod:`repro.sim.batched` for the
memory model).
"""

from .batched import BatchedStatevector
from .measurement import (
    EnergyEstimate,
    MeasurementGroup,
    basis_rotation_circuit,
    estimate_energy,
    qubitwise_commuting_groups,
    sample_bitstrings,
    sample_bitstrings_batched,
)
from .noise import NoiseModel, NoisyResult, ionq_forte_noise_model, noisy_expectations
from .state_prep import occupation_state_circuit, occupation_statevector
from .statevector import Statevector

__all__ = [
    "Statevector",
    "BatchedStatevector",
    "NoiseModel",
    "NoisyResult",
    "ionq_forte_noise_model",
    "noisy_expectations",
    "occupation_state_circuit",
    "occupation_statevector",
    "EnergyEstimate",
    "MeasurementGroup",
    "estimate_energy",
    "qubitwise_commuting_groups",
    "basis_rotation_circuit",
    "sample_bitstrings",
    "sample_bitstrings_batched",
]
