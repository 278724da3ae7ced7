"""Seed derivation: portability and trial independence."""

from horoflow.seeding import GENERATOR_NAME, trial_rng


def test_trial_rng_streams_are_reproducible_and_distinct():
    a = trial_rng(7, 0).random(4)
    b = trial_rng(7, 0).random(4)
    c = trial_rng(7, 1).random(4)
    assert (a == b).all()
    assert (a != c).any()


def test_distinct_seed_trial_pairs_give_distinct_streams():
    # a seed derived from master_seed XOR trial would collapse this grid
    # to 64 streams: (s, t) and (s ^ t, 0) would coincide
    firsts = {trial_rng(s, t).random() for s in range(64) for t in range(64)}
    assert len(firsts) == 64 * 64


def test_generator_name_is_pinned():
    assert GENERATOR_NAME == "pcg64(seedsequence([master_seed, trial]))"
