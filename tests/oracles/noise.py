"""Reference noisy-trajectory engine: one statevector per shot, gate by gate.

This is the loop :func:`repro.sim.noisy_expectations` ran before its batched
engine.  Each trajectory copies the initial state, applies the circuit one
gate at a time, and after every gate draws whether a uniformly random
non-identity Pauli error hits the gate's qubits; energies are summed one
Pauli string at a time (:func:`oracles.pauli.expectation`).

It draws from the seed in a different order than the batched engine, so the
two agree in distribution, not trajectory by trajectory.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.circuits import Circuit, Gate
from repro.paulis import QubitOperator
from repro.sim import NoiseModel, NoisyResult, Statevector

from .pauli import expectation

_ONE_QUBIT_PAULIS = ["x", "y", "z"]
_TWO_QUBIT_PAULIS = [
    p for p in itertools.product(["i", "x", "y", "z"], repeat=2) if p != ("i", "i")
]


def run_trajectory(
    circuit: Circuit, noise: NoiseModel, rng: np.random.Generator, initial: Statevector
) -> Statevector:
    """One noisy trajectory of ``circuit`` from ``initial``."""
    state = initial.copy()
    for gate in circuit.gates:
        state.apply(gate)
        if gate.is_two_qubit:
            if noise.p2 > 0 and rng.random() < noise.p2:
                err = _TWO_QUBIT_PAULIS[rng.integers(len(_TWO_QUBIT_PAULIS))]
                for name, q in zip(err, gate.qubits):
                    if name != "i":
                        state.apply(Gate(name, (q,)))
        elif noise.p1 > 0 and rng.random() < noise.p1:
            err = _ONE_QUBIT_PAULIS[rng.integers(3)]
            state.apply(Gate(err, gate.qubits))
    return state


def noisy_expectations(
    circuit: Circuit,
    observable: QubitOperator,
    noise: NoiseModel,
    shots: int = 1000,
    seed: int = 0,
    initial: Statevector | None = None,
    chunk: int | None = None,
) -> NoisyResult:
    """``shots`` trajectories, one energy each, plus the noiseless value.

    Same signature as :func:`repro.sim.noisy_expectations`, so it can stand
    in for the engine (e.g. under ``noisy_energy_experiment``); ``chunk`` is
    ignored, as the oracle holds one trajectory at a time.
    """
    noise.validate()
    if initial is None:
        initial = Statevector(circuit.n_qubits)
    rng = np.random.default_rng(seed)
    noiseless = expectation(initial.copy().apply_circuit(circuit), observable)
    energies = np.empty(shots)
    for s in range(shots):
        energies[s] = expectation(run_trajectory(circuit, noise, rng, initial), observable)
    return NoisyResult(energies=energies, noiseless=noiseless)
