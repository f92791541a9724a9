"""Written instances are pinned byte for byte.

The sha256 of ``pattern.perm``, ``text.perm`` and ``provenance.json`` for
the first three formulas of ``test_reduction.FORMULAS`` in both modes.  A
change to the coordinate arithmetic, the assembly order or the writer
that alters a single byte fails here.
"""

import hashlib

import pytest

from gridppm.reduction import reduce_formula, write_instance

from test_reduction import FORMULAS

_F0 = {
    "pattern.perm":
        "5fc2fe173dd5f7563c54d627946fb6458934578ff321dec64d7c408869254fb2",
    "text.perm":
        "d09c2118be1a740784241d6575e58a806ddd3bea081bc361919338def9b353de",
    "provenance.json":
        "5129878ba8d7369e7046c334e77f96aad49e9700132b1699235bc74fa7b34da7",
}
_F1 = {
    "pattern.perm":
        "dffd4298553e51d82435eaa163227407b2f6af4d51d8d2a483ebce75a05be9eb",
    "text.perm":
        "2217378d5eefd4e44b4e4f85c2a801e9943c2f21b4db95c40c5e38fea241be29",
    "provenance.json":
        "06d1ed1034e845ae9501c58d886f73d3f4773cda5b34d3fbb8402a960da64625",
}

GOLDEN = {
    ("gadgets", 0): _F0,
    ("gadgets", 1): _F1,
    ("gadgets", 2): {
        "pattern.perm":
            "c03316f26b8726e6231d3dc73246ddd3a941148e982e7f0c02634e032dfd61a6",
        "text.perm":
            "ba759e046d7e5cde31d68fbe300e9f8633561359a35d482b64636008bc63ba90",
        "provenance.json":
            "66a87cf1a50ee1f434af26e6adeade52fd14b20dd0a66062df561b88a7f43fb1",
    },
    # one- and two-clause formulas on one variable need no sorting
    # phase, so both modes build the same instance
    ("juxtaposition", 0): _F0,
    ("juxtaposition", 1): _F1,
    ("juxtaposition", 2): {
        "pattern.perm":
            "9ed8d00fcc3af352539d3830edaeec843603f3370b768364730127db36d32c73",
        "text.perm":
            "691c428f3ed3edafbc1ff95c8e41ea95ea6d642f0e8f7575a77054d9db3ca944",
        "provenance.json":
            "a200d6789cd6a5281b7464f17ffb6258376090e14ef47f842e752046f0aca1ab",
    },
}


@pytest.mark.parametrize("mode,k", sorted(GOLDEN))
def test_written_instance_bytes(mode, k, tmp_path):
    write_instance(reduce_formula(FORMULAS[k], mode=mode), str(tmp_path))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN[(mode, k)]}
    assert got == GOLDEN[(mode, k)]
