"""The (Pi, Sigma)-embedding engine and the full C-PPM solver."""

import itertools
import random

import pytest

from gridppm.entries import DEC, EMPTY_E, INC, av
from gridppm.grid import (Gridding, GriddingMatrix, all_griddings,
                          find_gridding, matrix_from_rows_top_down,
                          sample_member)
from gridppm.matcher import (InvalidGridding, MalformedPartition,
                             NoTextGridding, extract_partition,
                             psi_embedding, solve_cppm)
from gridppm.perm import Permutation, contains, is_order_isomorphic, perm


def mat(*rows):
    return matrix_from_rows_top_down(rows)


def brute_psi(pattern, pi, text, sigma):
    """Exhaustive part-respecting enumeration."""
    per_part = []
    for i, part in enumerate(pi):
        per_part.append(list(itertools.combinations(sigma[i], len(part))))
    for combo in itertools.product(*per_part):
        witness = [None] * len(pattern)
        for i, chosen in enumerate(combo):
            for src, dst in zip(pi[i], chosen):
                witness[src] = dst
        if is_order_isomorphic(text, pattern, tuple(witness)):
            return tuple(witness)
    return None


def random_partition(p, t, rng):
    """A random t-monotone partition of p (with retries).  A part of at
    most one point still draws a direction, which keeps the seeded
    stream, and so the partitions drawn after it, as they were."""
    n = len(p)
    for _ in range(2000):
        assign = [rng.randrange(t) for _ in range(n)]
        parts = [tuple(q for q in range(n) if assign[q] == i)
                 for i in range(t)]
        ok = True
        for part in parts:
            vals = [p[q] for q in part]
            inc = all(a < b for a, b in zip(vals, vals[1:]))
            dec = all(a > b for a, b in zip(vals, vals[1:]))
            if inc and dec:
                rng.choice(["inc", "dec"])
            elif not (inc or dec):
                ok = False
                break
        if ok:
            return tuple(parts)
    raise AssertionError("no monotone partition found")


def random_perm(n, rng):
    ranks = list(range(1, n + 1))
    rng.shuffle(ranks)
    return Permutation(tuple(ranks))


# -- partitions ------------------------------------------------------------------


def test_extract_partition_trivial():
    m = GriddingMatrix(1, 1, {(1, 1): INC})
    p = perm(1, 2, 3)
    pi = extract_partition(p, Gridding((1, 4), (1, 4)), m)
    assert pi == ((0, 1, 2),)


def test_extract_partition_two_cells():
    m = mat([DEC, INC])
    p = perm(2, 1, 3, 4, 5)
    pi = extract_partition(p, Gridding((1, 3, 6), (1, 6)), m)
    assert pi == ((0, 1), (2, 3, 4))


def test_extract_partition_skips_empty_entries():
    m = mat([EMPTY_E, INC], [DEC, EMPTY_E])
    p = perm(2, 1, 3, 4)
    g = find_gridding(p, m)
    pi = extract_partition(p, g, m)
    assert len(pi) == 2  # one per non-empty entry only


def test_extract_partition_rejects_bad_gridding():
    m = GriddingMatrix(1, 1, {(1, 1): INC})
    with pytest.raises(InvalidGridding):
        extract_partition(perm(2, 1), Gridding((1, 3), (1, 3)), m)


def test_partition_validation():
    p = perm(2, 1, 3)
    for pi in (((0, 1),),           # misses position 2
               ((0, 1, 2),),        # 213 is not monotone
               ((1, 0), (2,)),      # positions do not ascend
               ((0, 1), (2,), ())):  # arity differs from the text's
        with pytest.raises(MalformedPartition):
            psi_embedding(p, pi, p, ((0, 1), (2,)))


# -- psi embedding -----------------------------------------------------------------


def test_psi_example_from_contract():
    text = perm(1, 3, 2)
    sigma = ((0, 1), (2,))
    pattern = perm(1, 2)
    pi = ((0, 1), ())
    assert psi_embedding(pattern, pi, text, sigma) == (0, 1)


def test_psi_pigeonhole():
    text = perm(1, 2)
    sigma = ((0, 1),)
    pattern = perm(1, 2, 3)
    pi = ((0, 1, 2),)
    assert psi_embedding(pattern, pi, text, sigma) is None


def test_psi_direction_mismatch():
    text = perm(1, 2)
    sigma = ((0, 1),)
    pattern = perm(2, 1)
    pi = ((0, 1),)
    assert psi_embedding(pattern, pi, text, sigma) is None


def test_psi_empty_pattern():
    text = perm(2, 1)
    sigma = ((0,), (1,))
    pattern = perm()
    pi = ((), ())
    assert psi_embedding(pattern, pi, text, sigma) == ()
    st = {}
    assert psi_embedding(pattern, pi, text, sigma, stats=st) == ()
    assert st["clauses"] == 0


@pytest.mark.parametrize("seed", range(6))
def test_psi_agrees_with_enumeration(seed):
    rng = random.Random(seed)
    for _ in range(120):
        t = rng.randint(1, 4)
        text = random_perm(rng.randint(0, 10), rng)
        pattern = random_perm(rng.randint(0, 5), rng)
        try:
            sigma = random_partition(text, t, rng)
            pi = random_partition(pattern, t, rng)
        except AssertionError:
            continue
        got = psi_embedding(pattern, pi, text, sigma)
        want = brute_psi(pattern, pi, text, sigma)
        assert (got is None) == (want is None), (pattern, pi, text, sigma)
        if got is not None:
            assert is_order_isomorphic(text, pattern, got)


# -- solve_cppm ----------------------------------------------------------------------


BATTERY = [
    mat([DEC, INC]),
    mat([INC], [DEC]),
    mat([DEC, INC], [INC, DEC]),
    mat([INC, DEC], [DEC, INC]),
    mat([INC, INC], [INC, DEC]),
]


def test_solve_cppm_examples():
    m = mat([DEC, INC])
    assert solve_cppm(perm(2, 1, 3), perm(2, 1, 3, 4, 5), m) is not None
    assert solve_cppm(perm(3, 2, 1), perm(2, 1, 3, 4, 5), m) is None
    p = perm(2, 1, 3)
    assert solve_cppm(p, p, m) == (0, 1, 2)


def test_solve_cppm_promise_violation():
    m = mat([INC])
    with pytest.raises(NoTextGridding):
        solve_cppm(perm(1), perm(2, 1), m)


def test_solve_cppm_rejects_non_monotone_matrix_before_searching(
        monkeypatch):
    def no_search(*args):
        raise AssertionError("gridding search ran")

    monkeypatch.setattr("gridppm.grid.find_gridding", no_search)
    m = mat([INC, av(perm(3, 2, 1))])
    with pytest.raises(InvalidGridding):
        solve_cppm(perm(1), perm(2, 1), m)


def test_all_griddings_complete():
    m = mat([DEC, INC])
    p = perm(1, 2)
    gs = list(all_griddings(p, m))
    # cut after 0 or 1 points works; both points in the dec column does not
    assert gs == [Gridding((1, 1, 3), (1, 3)), Gridding((1, 2, 3), (1, 3))]


@pytest.mark.parametrize("mi, n, k", [(2, 400, 32), (0, 120, 24),
                                      (3, 120, 24), (4, 120, 24)])
def test_psi_clauses_are_linear_in_the_domains(mi, n, k):
    """Only neighbouring pattern pairs are encoded, so each pattern
    point gives the rows of at most one x and one y staircase besides
    its domain closure: at most 3 dom(p) clauses, where dom(p) is the
    size of p's text part.  Encoding all pairs needs about k dom(p)."""
    m = BATTERY[mi]
    rng = random.Random(n + mi)
    cells = m.nonempty_cells()
    text, _ = sample_member(m, rng, {c: n // len(cells) for c in cells})
    vals = [text[q] for q in sorted(rng.sample(range(len(text)), k))]
    rank = {v: r for r, v in enumerate(sorted(vals), 1)}
    pattern = Permutation(tuple(rank[v] for v in vals))
    sigma = extract_partition(text, find_gridding(text, m), m)
    checked = 0
    for g in itertools.islice(all_griddings(pattern, m), 4):
        pi = extract_partition(pattern, g, m)
        st = {}
        psi_embedding(pattern, pi, text, sigma, stats=st)
        if "clauses" in st:
            dom = sum(len(sigma[i]) * len(part)
                      for i, part in enumerate(pi))
            assert st["clauses"] <= 3 * dom, (st["clauses"], dom)
            checked += 1
    assert checked


@pytest.mark.parametrize("mi", range(len(BATTERY)))
def test_solve_cppm_agrees_with_brute_force(mi):
    m = BATTERY[mi]
    rng = random.Random(100 + mi)
    cells = m.nonempty_cells()
    for _ in range(40):
        tsizes = {c: rng.randint(0, 4) for c in cells}
        text, _ = sample_member(m, rng, tsizes)
        psizes = {c: rng.randint(0, 2) for c in cells}
        pattern, _ = sample_member(m, rng, psizes)
        got = solve_cppm(pattern, text, m)
        want = contains(text, pattern)
        assert (got is None) == (want is None), (pattern, text, mi)
        if got is not None:
            assert is_order_isomorphic(text, pattern, got)
