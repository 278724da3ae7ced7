"""Golden digests: every experiment's data table, byte for byte.

Each experiment runs at criterion 11's small config with seed 5, and the
SHA-256 of its CSV must match the pinned value.  A refactor preserves
behaviour only if every digest still matches; a deliberate change of
output re-pins the digests and says why.  Most small configs are
deterministic (one-map walks, constant matrices), so a second table pins
configs whose trials draw from their streams: random matrix products,
walks on two maps, their state ratios, a tanh chain whose profile is not
0, a drift in two dimensions, and the metric suites in dimension 3; it
also pins a disk Mobius top exponent and a random-product QR spectrum.  The
digests hold for one floating-point build (pinned with numpy 2.4.6 and
scipy 1.17.1) and one choice of CPU kernels within it; another BLAS or
LAPACK may differ in the last bits.  Both libraries pick their kernels for
the CPU at run time, and the digests were pinned on an AVX512 host:
OpenBLAS's SkylakeX kernels and numpy's AVX512 dispatch.  The same build
on a CPU without AVX512 runs other kernels, and some digests differ there.

The operator-tau, state-ratio and hyperbolic-walk digests, golden and
stochastic, were re-pinned when the operator fold and the disk walk began
to form their products by pairwise reduction, which rounds differently
from the old step loop and is checked instead against 50-digit products
(``mp_log_gram_norms``, ``mp_walk_gaps`` and ``mp_state_ratios`` in
``tests/oracles.py``).  The tanh profile was re-pinned when layer weights
began to be normalized by their SVD norm instead of a power-iteration
estimate, and the two-dimensional drift when each layer began to draw one
bias per coordinate instead of one bias for all.  Golden top-exponent and
operator-tau and stochastic top-exponent-pm1_walk and
top-exponent-disk_mobius were re-pinned when the tail slope became a
closed-form least-squares fit summed with ``math.fsum`` instead of a LAPACK
solve, the summary began to centre the per-trial values on the first and
sum them exactly, and the disk distance became the conformal-factor form
``2 asinh(|z - w| / sqrt((1 - |z|^2)(1 - |w|^2)))``: translation's tail
slope is exactly 0, operator-tau's three equal values have a std error of
exactly 0, and only tail slopes move in the two top-exponent tables.
Golden metric-axioms and stochastic metric-axioms-dim3 were re-pinned when
the Thompson and Funk kernel began to take each pencil's log generalized
eigenvalues as 2 log of the singular values of L_P^-1 L_Q from one
stacked SVD, instead of a LAPACK ``sygvd`` call per pair, and is checked
against 40-digit eigenvalues (``mp_cone_log_eigs``): only the two cone
metrics' identity errors move, each to a fraction of its old value.  Both
were re-pinned again when the cone and stretch samplers began to draw each
block of points with whole-array generator calls (the normal factors of
all its matrices, then their scales; all amplitudes, then wave vectors,
then phases) instead of one point's parameters after another's: the
suites sample other cone and stretch points, so only those three rows
move, and the Euclidean, disk and Jacobian rows, whose block draws take
the stream in the one-point order, keep their bits.  Golden segal-sweep was
re-pinned when the Segal check stopped calling ``scipy.linalg.expm``: the
left side became exp of the top ``eigh`` eigenvalue of u+v, the right side
the top ``eigvalsh`` eigenvalue of exp(u/2) exp(v) exp(u/2) with factors
from ``expm_symmetric``, and path_gap compares that eigendecomposition's
exp(u+v) with a numpy Taylor scaling and squaring; all three are checked
against 50-digit exponentials (``mp_segal``), where each errs no more than
the scipy path (``scipy_segal_sweep``) did.  Golden filtration-probe was
re-pinned when growth rates stopped dividing by sqrt(w^T w) and summing a
log a step, and began to rescale by an exact power of two once a block and
take one log a checkpoint: e1 and e2 now read log 2 to the last bit, and
every rate errs no more than the old loop's against 50-digit products
(``mp_growth_rates``).
"""

import hashlib

import pytest

from horoflow.cli import EXIT_OK, run

from test_acceptance import _SMALL_CONFIGS

GOLDEN_SHA256 = {
    "filtration-probe":
        "f059ed65073fc2d8075080532da76e1da87c191f996bb8e92c22ef27f14258aa",
    "hyperbolic-walk":
        "ad24732ab4d030801735f1f8f1218d4fad2128521cc171a6d8dfb73b2e0199f2",
    "jacobian-cocycle":
        "1d44500b07e1202af6de70def54a84d2206644ee058ad8b44a306d2969b2eb80",
    "lipschitz-profile":
        "d8276ed9bc709909c861c105810e18b64f2af37dec0faf23ccb2033d3e9b46b7",
    "max-stretch":
        "405e58c4c44cc0b77090b1de27a9fa662575ca0518c56e63307ec858850c1eb8",
    "metric-axioms":
        "593d82927cb3be6af11ed73f7c822cefd842c63a16da24eb097d4ccd54669b0b",
    "operator-tau":
        "d00c427a5ae58491c10d74662c3119a193375a94d9f7ccddbd1f792af444f4fb",
    "oseledets-spectrum":
        "e6cbc89efa26f2af236bd4fa5caf360146beec7dc828830edd42a8eb469cd8b7",
    "resnet-drift":
        "d2aada1a55a1b6567865f265e7bd89d8881e5ec12dec74a061105cd2bc6736a7",
    "segal-sweep":
        "4365be6b5d05bc26cbd1ea437a54bf9b93f99c55d7ed6e7f18fe7bd8e0df6ed8",
    "state-ratio":
        "d7ec07b5ba0c40d72376477cea6d2d48c9a55a1e6e6a7cd31f5a76e651adb8aa",
    "top-exponent":
        "007a2709ed7487de0f85c30823123ffad2dd5cb1389a4ff6c8b66b29eb0f3093",
}


# label -> (experiment, config overrides, digest), seed 5 like the rest
STOCHASTIC_SHA256 = {
    "operator-tau-sl2_pair": (
        "operator-tau", {"preset": "sl2_pair", "n": 50, "trials": 4},
        "f721b4bc7498e6e76c76e319795cbfe9386bef382939ca913cf88e8fc70ed347"),
    "operator-tau-rotation": (
        "operator-tau", {"preset": "rotation", "n": 50, "trials": 2},
        "4b1e6e85ff96cd70a63bcc002ce772594c10da51e0557b44c17ee0a511de03a4"),
    "state-ratio-sl2_pair": (
        "state-ratio", {"preset": "sl2_pair", "N": 50, "checkpoints": [10, 30, 50]},
        "ff74ece075e6da1ef52307275c5ab6a473b675149ba3be2f94a0fe2136243443"),
    "top-exponent-pm1_walk": (
        "top-exponent", {"preset": "pm1_walk", "n": 50, "trials": 3},
        "b813e094fd8487766135a7de26a46abba9d32ac0f38a52383726b00f56379ec9"),
    "top-exponent-disk_mobius": (
        "top-exponent", {"preset": "disk_mobius", "n": 12, "trials": 2},
        "55675bdd56b5b73fc4375e94dfbf885462b7e35c2fe8a489b09588ece48d7e7f"),
    "oseledets-spectrum-sl2_pair": (
        "oseledets-spectrum", {"preset": "sl2_pair", "n": 2000},
        "bf8619407c578f6127ca19bc141d1eb9093c8ef94aecdeb28aa741259b9e0473"),
    "hyperbolic-walk-two_maps": (
        "hyperbolic-walk", {"n": 200, "trials": 2, "mobius_a2": "0.3+0.2j"},
        "826327a36db6300893bd35efd826c84af741aa97eb8ff6eb321ae090b86a897b"),
    "lipschitz-profile-tanh": (
        "lipschitz-profile", {"activation": "tanh", "depth": 5, "n_pairs": 20},
        "2405e78d194b7fd35aa8b1540b4a71b00eae0f2ca22afc816a4bc470ff5edde3"),
    "resnet-drift-tanh_d2": (
        "resnet-drift", {"d": 2, "activation": "tanh", "n": 50, "trials": 3},
        "047888ab3a6e65112d9e21393ae7aa9a9b8ba5d7553342c160cdb7d7f9e2282d"),
    "metric-axioms-dim3": (
        "metric-axioms", {"dim": 3, "samples": 200},
        "8bd042032cebf92c343dd54fa87829c147d76f5cd6052f28241b318b21bb3a00"),
}


def _digest(name, overrides, tmp_path):
    cfg = {"experiment": name, "seed": 5, "output_dir": str(tmp_path)}
    cfg.update(overrides)
    assert run(cfg) == EXIT_OK
    return hashlib.sha256((tmp_path / f"{name}-5.csv").read_bytes()).hexdigest()


def test_every_experiment_is_pinned():
    assert sorted(GOLDEN_SHA256) == sorted(_SMALL_CONFIGS)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_digest(name, tmp_path):
    assert _digest(name, _SMALL_CONFIGS[name], tmp_path) == GOLDEN_SHA256[name]


@pytest.mark.parametrize("label", sorted(STOCHASTIC_SHA256))
def test_stochastic_golden_digest(label, tmp_path):
    name, overrides, digest = STOCHASTIC_SHA256[label]
    assert _digest(name, overrides, tmp_path) == digest
