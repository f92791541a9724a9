"""Written instances are pinned byte for byte.

The sha256 of ``instance.json``, ``pattern.perm`` and ``text.perm``,
the three files ``write_instance`` writes, for every formula of
``test_reduction.FORMULAS`` in both modes, and for one juxtaposition
instance on a user staircase whose sort meets a D tile with outgoing
coordinate y, which its bucket passes copy through.  A change to the
coordinate arithmetic, the assembly order, the rich-path matrix or the
writer that alters a single byte fails here.

The embedding ``embedding_from_assignment`` gives for every satisfying
assignment of each satisfiable formula of ``FORMULAS``, in both modes,
is pinned the same way, so a change to the trace or its replay that
moves a single pattern point's image fails here too.
"""

import hashlib
import itertools

import pytest

from gridppm.entries import INC, av
from gridppm.grid import GriddingMatrix, staircase
from gridppm.perm import perm
from gridppm.reduction import (check_stored, embedding_from_assignment,
                               read_instance_summary, rebuild_instance,
                               reduce_formula, validate_instance,
                               write_instance)
from gridppm.sat import CNFFormula

from test_reduction import FORMULAS

_F0 = {
    "pattern.perm":
        "5fc2fe173dd5f7563c54d627946fb6458934578ff321dec64d7c408869254fb2",
    "text.perm":
        "d09c2118be1a740784241d6575e58a806ddd3bea081bc361919338def9b353de",
}
_F1 = {
    "pattern.perm":
        "dffd4298553e51d82435eaa163227407b2f6af4d51d8d2a483ebce75a05be9eb",
    "text.perm":
        "2217378d5eefd4e44b4e4f85c2a801e9943c2f21b4db95c40c5e38fea241be29",
}

GOLDEN = {
    ("gadgets", 0): {
        **_F0,
        "instance.json":
            "aa5cfa03d178a7d50f8b9e201745dbecc04a27091d1164941f83f35af00e37ae",
    },
    ("gadgets", 1): {
        **_F1,
        "instance.json":
            "94fac221a2f5b4dd563cd19b9b9cc135b6067d564882f3b94d7e1a1376052cf7",
    },
    ("gadgets", 2): {
        "instance.json":
            "66ef9df482146459c85e74fb571908cac61f0e0ab2b2545be5789ec391c2c186",
        "pattern.perm":
            "c03316f26b8726e6231d3dc73246ddd3a941148e982e7f0c02634e032dfd61a6",
        "text.perm":
            "ba759e046d7e5cde31d68fbe300e9f8633561359a35d482b64636008bc63ba90",
    },
    # three variables in three clauses: the first formula with a
    # sorting phase
    ("gadgets", 3): {
        "instance.json":
            "b6fca3bcf102ad53dd79b142667c09a8f5542e53e2482d335ff42f43d7d378c4",
        "pattern.perm":
            "be0ee31a3f397e6524b77fdf3ef76cee782e9b172c622a71e5f1b01c1902afe1",
        "text.perm":
            "55051162b42a2d35cef0c89e6cb74ea60185e5c363d08bea5d9b6eaa03ee9c47",
    },
    # one- and two-clause formulas on one variable need no sorting
    # phase, so both modes build the same instance; only the mode field
    # of instance.json differs
    ("juxtaposition", 0): {
        **_F0,
        "instance.json":
            "76b5437038d51220d3787834ec73d146981fc25e406f3c384f46c920cf3ebab6",
    },
    ("juxtaposition", 1): {
        **_F1,
        "instance.json":
            "0d469fb8457b627ff8d38d5014fef00c3d574d883c0f27ea2bb833f6c4a1fb3e",
    },
    ("juxtaposition", 2): {
        "instance.json":
            "1dcf362e1f48582f2a3afe386c5d55065da646d0977b565999d5267b2f4fdf2b",
        "pattern.perm":
            "9ed8d00fcc3af352539d3830edaeec843603f3370b768364730127db36d32c73",
        "text.perm":
            "691c428f3ed3edafbc1ff95c8e41ea95ea6d642f0e8f7575a77054d9db3ca944",
    },
    ("juxtaposition", 3): {
        "instance.json":
            "7031ac09ef0c0b2e6d03aa0ed5fc183085a3e63b4336f2942074c24f43167453",
        "pattern.perm":
            "7248ec34615cfed60dc45f607cecae63e09f0a3f594ce4c99cc915599fbf5618",
        "text.perm":
            "eed8308d0485d2e3409cc3b0bf7bee95efced24ee2b7b84fe9ba2ba5923e8733",
    },
}


@pytest.mark.parametrize("mode,k", sorted(GOLDEN))
def test_written_instance_bytes(mode, k, tmp_path):
    """The pinned files, and the reader's acceptance of them."""
    write_instance(reduce_formula(FORMULAS[k], mode=mode), str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "instance.json", "pattern.perm", "text.perm"]
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN[(mode, k)]}
    assert got == GOLDEN[(mode, k)]
    inst = rebuild_instance(read_instance_summary(str(tmp_path)))
    check_stored(inst, str(tmp_path))


# a user staircase whose first D tile past the cursor when the sort
# starts shares its row with the next tile, so its outgoing coordinate
# is y; the default rich paths never do this
USER_FORMULA = CNFFormula(3, ((3, -1, 2), (2, 1, -3)))
USER_GOLDEN = {
    "instance.json":
        "a1d6cf52b1c560a014a96b563cd929e83a6cf645bfd54516bde839586513b7f4",
    "pattern.perm":
        "7b3618cd4b95038f810636fd6511c6bfd4669c1a7c8766c20befed8550f8429a",
    "text.perm":
        "00807c244af51fbbd2fb507565a4f3787391dacfb7abb5746d59d75b2e480543",
}


def user_matrix():
    """``staircase(13, inc, av:321)`` with cell (4, 4) also ``av:321``."""
    m = staircase(13, INC, av(perm(3, 2, 1)))
    return GriddingMatrix(m.cols, m.rows,
                          {**m.filled, (4, 4): av(perm(3, 2, 1))})


def test_user_path_bytes(tmp_path):
    """On a user path, the bucket passes copy through the D tile whose
    outgoing coordinate is y and build in the next ones; the written
    files, validity and embedding are pinned."""
    inst = reduce_formula(USER_FORMULA, mode="juxtaposition",
                          matrix=user_matrix())
    kinds = [kind for kind, _ in inst.layers]
    start = inst.layers[kinds.index("bucket") - 1][1]
    y_tile = next(t for t in inst.path.d_tiles if t > start)
    assert (y_tile, inst.path.out_coord[y_tile]) == (6, "y")
    buckets = [t for kind, t in inst.layers if kind == "bucket"]
    assert buckets == [7, 9, 11]
    assert {inst.path.out_coord[t] for t in buckets} == {"x"}
    assert validate_instance(inst)["violations"] == []
    assert len(embedding_from_assignment(inst, (True,) * 3)) == 1744
    write_instance(inst, str(tmp_path))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in USER_GOLDEN}
    assert got == USER_GOLDEN
    check_stored(rebuild_instance(read_instance_summary(str(tmp_path))),
                 str(tmp_path))

# (mode, formula index) -> assignment as 0/1 digits, variable 1 first ->
# sha256 of the embedding's text positions, space-separated
EMBEDDING_GOLDEN = {
    ("gadgets", 0): {
        "1":
            "e88966d5d1c483e0ac2532975a9618f4a5dd2f6f78d4a40c26a4ac41b9218103",
    },
    ("gadgets", 2): {
        "01":
            "cde825c6fff325c47f63085835d152f21c14c10f43f38df5c236dabac2c55b34",
        "11":
            "9eebf315308772cd45b3a4e1fc65f3a6db87fc7f4de961a242bfa6a9a3cf5143",
    },
    ("gadgets", 3): {
        "001":
            "93260da837c1cec02f3c3c9a4d24f037fc5d6c9b937527b8add4163ba5ed13c0",
        "011":
            "515cade7679e36c44c2e99633324acea3b19b8f466b53cce66b98b362be72591",
        "110":
            "ddeb515cf86c7d5ca111a905860c204a465e8f3fb17c9f246a5d5f523d3daf69",
        "111":
            "879ff03312b9376c461bce573430c62ec1acf28d1a19163b6dd995a3ba2c3dfe",
    },
    ("juxtaposition", 0): {
        "1":
            "e88966d5d1c483e0ac2532975a9618f4a5dd2f6f78d4a40c26a4ac41b9218103",
    },
    ("juxtaposition", 2): {
        "01":
            "d239285c2d804416001c58551cccd8a3ed2263ec6e77fde92a4be07dc8ca5a1e",
        "11":
            "57824b81add3014b7887019de42451cfbd6b9a03d6affe14a3ae13c7da9f4fc9",
    },
    ("juxtaposition", 3): {
        "001":
            "cd2dedb39ee64511d5a9f20ecbf78a0bd2b75d0e51f32989927c8b26c22318ac",
        "011":
            "66fa583fa82b4a6e59b93894a47ec05663d06bf48343aba54f478427a8aa18aa",
        "110":
            "a84b7c6a597864f047f701d3b8853b8e0ba9705d6bd90d1a18754749b3ed527a",
        "111":
            "1b48ac5099d75c52e8886a60ec428a60d59b4c5ad20e5901f624538343250956",
    },
}


@pytest.mark.parametrize("mode", ["gadgets", "juxtaposition"])
@pytest.mark.parametrize("k", range(len(FORMULAS)))
def test_embedding_bytes(mode, k):
    """Every satisfying assignment's embedding; an unsatisfiable formula
    pins none."""
    f = FORMULAS[k]
    inst = reduce_formula(f, mode=mode)
    got = {}
    for rho in itertools.product((False, True), repeat=f.nvars):
        if f.evaluates(rho):
            emb = embedding_from_assignment(inst, rho)
            got["".join("01"[b] for b in rho)] = hashlib.sha256(
                " ".join(map(str, emb)).encode()).hexdigest()
    assert got == EMBEDDING_GOLDEN.get((mode, k), {})
