"""Every generated layer the benchmark workloads and the ``tiny`` and
``small`` scale presets load, pinned to the bit.

A layer's digest is SHA-256 over its polygons' coordinate digests, in
layer order, so a change to any coordinate, to the cell order or to the
cell count changes it.  The literals are the layers as generated with
every tessellation cell built on its own (``tests/oracles/datasets.py``);
a faster generator must reproduce them exactly.
"""

import hashlib

import pytest

from repro.bench.scales import get_scale
from repro.datasets import load

#: ``(name, n_scale, v_scale)`` -> the first 32 hex digits of the digest.
LAYER_DIGESTS = {
    ("LANDC", 0.002, 0.5): "bba812b79dc85da4767d209412c47640",
    ("LANDC", 0.003, 0.5): "cf3e76898bfa0a1c7093bb37c40b86f5",
    ("LANDC", 0.003, 1.0): "3e8aa46376a38f7a5503d1b799b99b16",
    ("LANDC", 0.004, 1.0): "25f280ce5ebc50bd1b2f920b17770718",
    ("LANDC", 0.006, 1.0): "15e32d2fa55a29eb5ac06e612d92f5fc",
    ("LANDO", 0.002, 0.5): "1bc35049ecf39d72142c6a2b15f33086",
    ("LANDO", 0.003, 0.5): "91e00a6c0356e260ead5bcdc7af4df44",
    ("LANDO", 0.003, 1.0): "19d1a2362ea727f4b2e0d597385170e6",
    ("LANDO", 0.004, 1.0): "eecf0fc6d5b60021eba3ce23c4ec1a86",
    ("LANDO", 0.006, 1.0): "23e297c4c3d2c9e222626460fe0b4bf8",
    ("PRISM", 0.015, 0.5): "2cf6e83c9d0bceb6f58c0a7384cba618",
    ("PRISM", 0.02, 0.5): "f1b4de29613e5892f11b39070e5e3590",
    ("PRISM", 0.03, 1.0): "9aec610612759bb578f7fa8712784807",
    ("PRISM", 0.04, 1.0): "604f2c3ffd4ca9012b44492f039c7004",
    ("PRISM", 0.06, 1.0): "f93057ee55524712873f77cc7eabe0d9",
    ("STATES50", 1.0, 0.5): "3cf535966594a4ce02e9619e055668f0",
    ("STATES50", 1.0, 1.0): "b047c596b7aa4112925b51676507c9e7",
    ("WATER", 0.0015, 0.5): "0fc416462455b1a8823724c10e25b4a9",
    ("WATER", 0.003, 1.0): "d7ae7b34efa05330a64028f290ad0873",
    ("WATER", 0.004, 0.5): "b378192fb2e0fb72e14032b7b55941e7",
    ("WATER", 0.01, 1.0): "cb95d7888aeeba4766f1c03202c19a65",
}

#: The layers of the four direct benchmark workloads (``sel-water`` loads
#: the ``small`` selection layers; ``serve-sel`` serves the ``small`` preset).
WORKLOAD_LAYERS = {
    ("WATER", 0.003, 1.0),
    ("PRISM", 0.03, 1.0),
    ("LANDC", 0.003, 1.0),
    ("LANDO", 0.003, 1.0),
}


def _preset_layers():
    for name in ("tiny", "small"):
        scale = get_scale(name)
        for role in ("join", "selection"):
            for dataset in ("LANDC", "LANDO", "PRISM", "WATER", "STATES50"):
                yield dataset, scale.n_scale(dataset, role), scale.v_scale


def test_the_table_is_every_loaded_layer():
    assert set(LAYER_DIGESTS) == WORKLOAD_LAYERS | set(_preset_layers())


@pytest.mark.parametrize("layer", sorted(LAYER_DIGESTS), ids=lambda k: "%s@n%gv%g" % k)
def test_layer_digest(layer):
    name, n_scale, v_scale = layer
    digest = hashlib.sha256()
    for polygon in load(name, n_scale=n_scale, v_scale=v_scale).polygons:
        digest.update(polygon.digest)
    assert digest.hexdigest()[:32] == LAYER_DIGESTS[layer]
