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
scipy 1.17.1); another BLAS or LAPACK may differ in the last bits.
"""

import hashlib

import pytest

from horoflow.cli import EXIT_OK, run

from test_acceptance import _SMALL_CONFIGS

GOLDEN_SHA256 = {
    "filtration-probe":
        "9d68033dd35457e7fa04a80c31b8d2e92c6ae82afb243b2327661b3f34d0abcd",
    "hyperbolic-walk":
        "116c70e9feffcf681a61956f3bf81abf4e719708a4940329f219571d927e1cbf",
    "jacobian-cocycle":
        "1d44500b07e1202af6de70def54a84d2206644ee058ad8b44a306d2969b2eb80",
    "lipschitz-profile":
        "d8276ed9bc709909c861c105810e18b64f2af37dec0faf23ccb2033d3e9b46b7",
    "max-stretch":
        "405e58c4c44cc0b77090b1de27a9fa662575ca0518c56e63307ec858850c1eb8",
    "metric-axioms":
        "63842dc9ccb29c009ef1a91821b6fb32aabca59576f166726923225015e89c3e",
    "operator-tau":
        "a267052b5fc970dd352f0e4d619e9103f1a7a6136c8f1b6b2bc7400e5205e19f",
    "oseledets-spectrum":
        "e6cbc89efa26f2af236bd4fa5caf360146beec7dc828830edd42a8eb469cd8b7",
    "resnet-drift":
        "d2aada1a55a1b6567865f265e7bd89d8881e5ec12dec74a061105cd2bc6736a7",
    "segal-sweep":
        "8b3fbce1d6a235d533aabc66c5087252244093dca8f1c107baa030353e444dd4",
    "state-ratio":
        "076f7bc2da0dc66abbf87d7ae12868c0ff48d2c6bf7b7d9f331fe54cf088c2fa",
    "top-exponent":
        "d3428a3bc408a9834da71424220bf960773f8a50e7b76b7ac5fca12e97b01ec1",
}


# label -> (experiment, config overrides, digest), seed 5 like the rest
STOCHASTIC_SHA256 = {
    "operator-tau-sl2_pair": (
        "operator-tau", {"preset": "sl2_pair", "n": 50, "trials": 4},
        "3c1145dc81e4b27eaab70c5608d625c8c45b9c6ee8e916cdf3baa14c485446f8"),
    "operator-tau-rotation": (
        "operator-tau", {"preset": "rotation", "n": 50, "trials": 2},
        "fe88382e01c3a4c479a07abb32f5036211ee037ab915bfdfbc6691375280340d"),
    "state-ratio-sl2_pair": (
        "state-ratio", {"preset": "sl2_pair", "N": 50, "checkpoints": [10, 30, 50]},
        "0c85e60213e3e822dd89353e2600eddc44ed5882f6c25a993949c24c9e5542d4"),
    "top-exponent-pm1_walk": (
        "top-exponent", {"preset": "pm1_walk", "n": 50, "trials": 3},
        "cb2bf258b2db119b9c6cadebe26bb803fba1e29c5a3704c5cb8bb7fc0d457376"),
    "top-exponent-disk_mobius": (
        "top-exponent", {"preset": "disk_mobius", "n": 12, "trials": 2},
        "409ed74d3a3019bd8d46e01c96ef33a93bbc04fa4a65b65850b2e6ec7291c2dc"),
    "oseledets-spectrum-sl2_pair": (
        "oseledets-spectrum", {"preset": "sl2_pair", "n": 2000},
        "bf8619407c578f6127ca19bc141d1eb9093c8ef94aecdeb28aa741259b9e0473"),
    "hyperbolic-walk-two_maps": (
        "hyperbolic-walk", {"n": 200, "trials": 2, "mobius_a2": "0.3+0.2j"},
        "d0a25186040f1d7b190f01e2b7124005521e87d6a375abd73358e1b28adb898c"),
    "lipschitz-profile-tanh": (
        "lipschitz-profile", {"activation": "tanh", "depth": 5, "n_pairs": 20},
        "7cf3db1b349cde45cb5134ffc3ce473c36219f0e9c633e9306107e147e9819e8"),
    "resnet-drift-tanh_d2": (
        "resnet-drift", {"d": 2, "activation": "tanh", "n": 50, "trials": 3},
        "9dd6fb1744cba2a84132572e956b469a175922f2610183ef7bcde08e6e5c8d64"),
    "metric-axioms-dim3": (
        "metric-axioms", {"dim": 3, "samples": 200},
        "3a43b6e0f4f0c00d2749a28c6636086f9967bf43e2a39921dcb0b50bd517f943"),
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
