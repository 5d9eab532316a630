"""Small random instances for the exact_small workload.

The draws follow the random-instance distribution of acceptance test 01
(2-5 beams, 2-5 slots, 1-2 reuse factors, two polarizations, explicit
restriction sets at density 0, 0.3 or 1), in the same order, so a seed
gives the same instances as that test's generator. The copy lives here so
the workload does not change when the test helpers do.
"""

from __future__ import annotations

import numpy as np

from freqplan.model import Beam, FrequencyGrid, ObjectiveWeights, RestrictionSets
from freqplan.scenario import ConstellationGeometry, Scenario

ENUMERATION_GUARD = 10**8  # keep every instance inside the brute-force oracle's guard


def random_instance(rng: np.random.Generator) -> tuple[Scenario, ObjectiveWeights]:
    n_bw = int(rng.integers(2, 6))
    n_fr = int(rng.integers(1, 3))
    n_p = 2
    n_b = int(rng.integers(2, 6))
    per_beam = n_fr * n_p * n_bw * n_bw
    while per_beam**n_b > ENUMERATION_GUARD:
        n_b -= 1
    beams = tuple(
        Beam(
            id=i + 1,
            lat=float(rng.uniform(-50, 50)),
            lon=float(rng.uniform(0, 360)),
            demand_bps=float(rng.uniform(1e6, 1e8)),
            min_slots=int(rng.integers(1, n_bw + 1)),
        )
        for i in range(n_b)
    )
    pairs = [(i + 1, j + 1) for i in range(n_b) for j in range(i + 1, n_b)]
    d_intra = float(rng.choice((0.0, 0.3, 1.0)))
    d_inter = float(rng.choice((0.0, 0.3, 1.0)))
    intra = [p for p in pairs if rng.random() < d_intra]
    inter = [p for p in pairs if rng.random() < d_inter]
    scenario = Scenario(
        grid=FrequencyGrid(n_bw=n_bw, n_fr=n_fr, n_p=n_p),
        beams=beams,
        geometry=ConstellationGeometry(n_s=2, altitude_km=8062.0),
        restrictions=RestrictionSets.of(intra=intra, inter=inter),
    )
    weights = ObjectiveWeights(
        beta1=1.0,
        beta2=float(rng.uniform(0, 0.3)),
        beta3=float(rng.uniform(0, 0.3)),
    )
    return scenario, weights
