"""Deterministic per-trial seed derivation.

Every stochastic routine in the package draws from a numpy PCG64 stream
seeded by ``SeedSequence([master_seed, trial])``.  The seed sequence
hashes the whole pair, so distinct (master_seed, trial) pairs give
distinct streams, trials are reproducible and independent of execution
order, and sweeping master seeds gives independent replicates.
"""

import numpy as np

GENERATOR_NAME = "pcg64(seedsequence([master_seed, trial]))"


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([master_seed, trial])
