"""The matcher's deterministic counters are pinned.

For seeded ``sample_member`` inputs on the ``BATTERY`` matrices this
pins what ``solve_cppm`` returns and reports: the embedding, the number
of pattern griddings tried, the 2-SAT clause count and both griddings.
For hand-made degenerate staircases (single-point parts, rows that are
all empty or all full, pattern points sharing a part) and for seeded
random partitions it pins ``psi_embedding``'s answer and clause count.
A change to the gridding search order or to the staircase encoding that
alters a single counter fails here, and so does one that keeps the
counts but emits other implications or emits them in another order
(the sha256 of the whole implication sequence is pinned too), because
the 2-SAT model, and so the embedding found, depends on that order.
"""

import hashlib
import random

import pytest

from gridppm import matcher
from gridppm.grid import sample_member
from gridppm.matcher import psi_embedding, solve_cppm
from gridppm.perm import perm

from test_matcher import BATTERY, random_partition, random_perm

# per BATTERY matrix: (embedding, griddings_tried, clauses, text col cuts,
# text row cuts, pattern (col cuts, row cuts) or None)
SOLVE_PINS = {
    0: [((6,), 1, 1, (1, 6, 9), (1, 9), ((1, 1, 2), (1, 2))),
        ((5,), 1, 4, (1, 5, 11), (1, 11), ((1, 1, 2), (1, 2))),
        ((1, 2, 3, 4), 1, 27, (1, 4, 9), (1, 9), ((1, 3, 5), (1, 5))),
        ((1, 3, 5), 1, 17, (1, 3, 8), (1, 8), ((1, 2, 4), (1, 4))),
        ((0, 2, 4, 6, 8), 1, 41, (1, 4, 10), (1, 10), ((1, 3, 6), (1, 6))),
        ((5, 6), 1, 4, (1, 6, 8), (1, 8), ((1, 1, 3), (1, 3)))],
    1: [(None, 2, 74, (1, 9), (1, 5, 9), None),
        (None, 2, 0, (1, 3), (1, 2, 3), None),
        (None, 2, 0, (1, 3), (1, 1, 3), None),
        (None, 2, 0, (1, 3), (1, 2, 3), None),
        ((0, 1, 3), 1, 15, (1, 6), (1, 3, 6), ((1, 4), (1, 1, 4))),
        ((0, 2, 3), 1, 15, (1, 5), (1, 2, 5), ((1, 4), (1, 1, 4)))],
    2: [(None, 7, 499, (1, 11, 20), (1, 10, 20), None),
        (None, 7, 0, (1, 7, 15), (1, 4, 15), None),
        (None, 10, 114, (1, 7, 13), (1, 5, 13), None),
        (None, 4, 180, (1, 8, 16), (1, 9, 16), None),
        ((5, 12), 1, 10, (1, 4, 14), (1, 7, 14), ((1, 1, 3), (1, 2, 3))),
        (None, 7, 0, (1, 5, 11), (1, 3, 11), None)],
    3: [(None, 8, 0, (1, 3, 7), (1, 4, 7), None),
        ((1, 2, 3, 5, 6), 3, 10, (1, 5, 9), (1, 6, 9), ((1, 4, 6), (1, 4, 6))),
        ((0, 6, 8, 9), 1, 13, (1, 9, 12), (1, 6, 12), ((1, 3, 5), (1, 3, 5))),
        (None, 9, 0, (1, 4, 12), (1, 3, 12), None),
        ((0, 1, 4, 6, 7, 9), 1, 40, (1, 6, 16), (1, 8, 16),
         ((1, 4, 7), (1, 2, 7))),
        ((0, 1, 2, 5), 6, 33, (1, 6, 11), (1, 6, 11), ((1, 4, 5), (1, 5, 5)))],
    4: [(None, 1, 0, (1, 5, 14), (1, 6, 14), None),
        (None, 3, 48, (1, 6, 11), (1, 5, 11), None),
        ((3, 6), 1, 12, (1, 3, 10), (1, 5, 10), ((1, 1, 3), (1, 1, 3))),
        ((2, 6, 7, 9), 3, 8, (1, 6, 11), (1, 5, 11), ((1, 2, 5), (1, 3, 5))),
        (None, 5, 0, (1, 9, 12), (1, 8, 12), None),
        (None, 3, 0, (1, 6, 11), (1, 7, 11), None)],
}


# sha256 of the repr of the list of (a, b) implications, in order
CLAUSE_SEQUENCE_PINS = {
    0: "f154e812484fe89ed2cea2191b03512035831b375190413739e2f7496d9f80a9",
    1: "1438fbb206c8b0caf5e40e89e7292d8288e79b44c082a69fc0ff25d111c49f71",
    2: "7cb9b13d2f8a17f9ec7afb263d9b003af25646f4ed01ffe2a65b32368deb3f23",
    3: "fca68ff7b1716eb0e6723ee9f19588bf2de394e5e593c90e59e9777520594ca7",
    4: "dfb55501aca2a97a291531db4f30195e0646766e23d357078eefafdd297cb591",
}


@pytest.mark.parametrize("mi", sorted(SOLVE_PINS))
def test_solve_cppm_counters(mi, monkeypatch):
    log = []
    imply = matcher._TwoSat.imply

    def logged(self, a, b):
        log.append((a, b))
        imply(self, a, b)

    monkeypatch.setattr(matcher._TwoSat, "imply", logged)
    m = BATTERY[mi]
    rng = random.Random(300 + mi)
    cells = m.nonempty_cells()
    got = []
    for _ in SOLVE_PINS[mi]:
        text, _ = sample_member(m, rng, {c: rng.randint(1, 5) for c in cells})
        pattern, _ = sample_member(m, rng,
                                   {c: rng.randint(0, 3) for c in cells})
        st = {}
        emb = solve_cppm(pattern, text, m, stats=st)
        gp = st.get("gridding_pattern")
        got.append((emb, st["griddings_tried"], st.get("clauses", 0),
                    st["gridding_text"].col_cuts,
                    st["gridding_text"].row_cuts,
                    None if gp is None else (gp.col_cuts, gp.row_cuts)))
    assert got == SOLVE_PINS[mi]
    assert hashlib.sha256(repr(log).encode()).hexdigest() == \
        CLAUSE_SEQUENCE_PINS[mi]


# name -> (text, sigma, pattern, pi, embedding, stats)
PSI_PINS = {
    "rows_all_full": (
        perm(1, 2, 3, 4), ((0, 1), (2, 3)),
        perm(1, 2), ((0,), (1,)), (1, 3), {"clauses": 0}),
    "rows_all_empty": (
        perm(1, 2, 3, 4), ((0, 1), (2, 3)),
        perm(2, 1), ((0,), (1,)), None, {}),
    "single_point_parts": (
        perm(2, 1, 3), ((0,), (1,), (2,)),
        perm(2, 1, 3), ((0,), (1,), (2,)), (0, 1, 2),
        {"clauses": 0}),
    "single_point_vs_run": (
        perm(3, 1, 2, 4), ((0,), (1, 2, 3)),
        perm(2, 1, 3), ((0,), (1, 2)), (0, 2, 3),
        {"clauses": 7}),
    "same_part_inc": (
        perm(1, 2, 3, 4, 5), ((0, 1, 2, 3, 4),),
        perm(1, 2, 3), ((0, 1, 2),), (1, 3, 4),
        {"clauses": 29}),
    "same_part_dec": (
        perm(5, 4, 3, 2, 1), ((0, 1, 2, 3, 4),),
        perm(2, 1), ((0, 1),), (1, 4), {"clauses": 16}),
    "interleaved": (
        perm(1, 4, 2, 5, 3, 6), ((0, 2, 4), (1, 3, 5)),
        perm(1, 3, 2, 4), ((0, 2), (1, 3)),
        (2, 3, 4, 5), {"clauses": 17}),
    "dec_against_inc": (
        perm(7, 5, 2, 3, 4, 1, 6), ((0, 1, 3, 5), (2, 4, 6)),
        perm(3, 2, 1, 4), ((0, 1), (2, 3)), None,
        {"clauses": 25}),
}


@pytest.mark.parametrize("name", sorted(PSI_PINS))
def test_psi_embedding_degenerate_staircases(name):
    text, sigma, pattern, pi, emb, stats = PSI_PINS[name]
    st = {}
    assert psi_embedding(pattern, pi, text, sigma, stats=st) == emb
    assert st == stats


# (found, clauses) for seeded random partitions; clauses is None when the
# encoding refutes the pair before the solve
RANDOM_PSI_PINS = [
    (False, None), (False, 8), (False, None), (False, None), (False, None),
    (False, None), (False, 22), (False, None), (False, None), (False, None),
    (False, 35), (False, 4), (False, None), (False, None), (False, None),
    (False, 4), (False, 8), (True, 0), (True, 8), (True, 4), (False, None),
    (False, 18), (False, None), (False, None), (False, None), (False, 13),
    (False, None), (False, None), (False, None), (True, 2),
]


def test_psi_embedding_random_partition_clauses():
    rng = random.Random(41)
    got = []
    while len(got) < len(RANDOM_PSI_PINS):
        t = rng.randint(1, 4)
        text = random_perm(rng.randint(1, 12), rng)
        pattern = random_perm(rng.randint(1, 6), rng)
        try:
            sigma = random_partition(text, t, rng)
            pi = random_partition(pattern, t, rng)
        except AssertionError:
            continue
        st = {}
        emb = psi_embedding(pattern, pi, text, sigma, stats=st)
        got.append((emb is not None, st.get("clauses")))
    assert got == RANDOM_PSI_PINS
