"""Keyed random-number streams for reproducible simulation.

Every random draw in the simulator comes from a generator derived from
(seed, *path), where the path encodes what the stream is for and which
client/round it belongs to. No stream carries state from one draw site to
the next, so results do not depend on the order in which clients are
stepped, and a run resumed at round t draws exactly the numbers an
uninterrupted run would.
"""

from __future__ import annotations

import numpy as np

# Stream purpose tags; (seed, tag, *indices) names one independent stream.
DATA = 0
PARTITION = 1
SPLIT = 2
MODEL_INIT = 3
GUIDE_INIT = 4
PARTICIPATION = 5
EPOCH = 6
BATCH = 7
NOISE = 8


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator keyed by (seed, *path)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=path))
