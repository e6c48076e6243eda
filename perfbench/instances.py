"""Seeded inputs for every workload.

Everything here is pure Python and deterministic in the seed: the same seed
gives the same instance lists and request schedules, a different seed gives
different synthetic instances.  The program under test only ever sees the
generated spec strings.
"""

from __future__ import annotations

import random

#: Dense chemistry cases shared by ``compile-cold`` and ``serve-mix``.
CHEMISTRY = ("LiH_sto3g", "NH_sto3g", "BeH2_sto3g", "H2O_sto3g")

#: Small lattices whose seeded ``u`` variants form the ``serve-warm`` set.
WARM_GEOMETRIES = ("1x4", "2x2", "2x3", "3x3")
WARM_VARIANTS_PER_GEOMETRY = 64

#: ``serve-mix``: one request in ``MIX_BLOCK`` is a never-seen cold compile.
MIX_BLOCK = 10


def _rng(seed: int, stream: str) -> random.Random:
    # One independent stream per use, so adding a draw to one list never
    # shifts another.
    return random.Random(f"{stream}:{seed}")


def _distinct_seeds(rng: random.Random, count: int) -> list[int]:
    return rng.sample(range(1, 1_000_000), count)


def cold_instances(seed: int) -> list[str]:
    """The 12-instance ``compile-cold`` cycle.

    The order is fixed (only the SYK seeds move), so a run cut after the same
    request count holds the same mix of instance sizes on every seed.
    """
    rng = _rng(seed, "compile-cold")
    syk6 = _distinct_seeds(rng, 3)
    syk7 = _distinct_seeds(rng, 3)
    return [
        *CHEMISTRY,
        "neutrino:3x2F",
        "hubbard:4x4",
        *(f"random:syk:n=6,seed={s}" for s in syk6),
        *(f"random:syk:n=7,seed={s}" for s in syk7),
    ]


def warm_variants(seed: int) -> list[str]:
    """The 256 ``serve-warm`` specs: each geometry at 64 distinct seeded ``u``.

    ``u`` stays in [1, 8] with three decimals, so every variant has the same
    term structure (and Pauli weight) as its geometry but its own fingerprint.
    """
    rng = _rng(seed, "serve-warm")
    specs = []
    for geometry in WARM_GEOMETRIES:
        milli = rng.sample(range(1000, 8001), WARM_VARIANTS_PER_GEOMETRY)
        specs.extend(f"hubbard:{geometry},u={m / 1000:g}" for m in milli)
    return specs


def warm_schedule(seed: int, variants: int, count: int) -> list[int]:
    """Uniform seeded draws of variant indices for the closed loop."""
    rng = _rng(seed, "serve-warm-draws")
    return [rng.randrange(variants) for _ in range(count)]


def mix_warm_specs(seed: int) -> list[str]:
    """The 11 dense or structured specs ``serve-mix`` serves warm."""
    rng = _rng(seed, "serve-mix")
    return [
        *CHEMISTRY,
        "neutrino:3x2F",
        "neutrino:4x2F",
        "hubbard:4x4",
        *(f"random:syk:n=8,seed={s}" for s in _distinct_seeds(rng, 4)),
    ]


def mix_schedule(seed: int, count: int) -> list[str]:
    """``count`` serve-mix requests: per block of ``MIX_BLOCK``, one cold.

    The pattern — which warm spec each slot holds (dealt from reshuffled
    decks of the 11, so each is sent equally often) and where in its block
    the cold request sits — is the same for every seed, so runs differ only
    in the seeded instances and not in how many heavy requests they hold or
    how those collide.  Cold requests are ``random:syk:n=7`` instances with
    distinct seeded seeds, never sent twice.
    """
    warm = mix_warm_specs(seed)
    pattern = _rng(0, "serve-mix-pattern")
    n_blocks = -(-count // MIX_BLOCK)
    cold = iter(f"random:syk:n=7,seed={s}"
                for s in _distinct_seeds(_rng(seed, "serve-mix-cold"), n_blocks))
    deck: list[int] = []
    out: list[str] = []
    while len(out) < count:
        cold_at = pattern.randrange(MIX_BLOCK)
        for slot in range(MIX_BLOCK):
            if slot == cold_at:
                out.append(next(cold))
                continue
            if not deck:
                deck = list(range(len(warm)))
                pattern.shuffle(deck)
            out.append(warm[deck.pop()])
    return out[:count]
