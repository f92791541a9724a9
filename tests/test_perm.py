"""Permutation core: standardization, containment, symmetries, sums."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridppm.coords import EPS, coord
from gridppm.entries import FIBM, entry_contains
from gridppm.perm import (EMPTY, Permutation, SymmetryOp, all_symmetries,
                          apply_symmetry, avoids, contains, embeddings,
                          format_perm, is_fibonacci, is_order_isomorphic,
                          parse_perm, perm)
from microassembly import (DuplicateCoordinate, IndexOutOfRange, direct_sum,
                           inflate, pt, skew_sum, standardize)

# -- independent oracles -----------------------------------------------------


def rank_by_pairwise_comparison(points):
    """Rank a point set by counting pairwise comparisons only."""
    pts = list(points)
    order = []
    for p in pts:
        x_rank = sum(1 for q in pts if q.x < p.x)
        y_rank = sum(1 for q in pts if q.y < p.y)
        order.append((x_rank, y_rank))
    order.sort()
    return tuple(y + 1 for _, y in order)


def brute_contains(text, pattern):
    """Exhaustive subsequence enumeration."""
    for combo in itertools.combinations(range(len(text)), len(pattern)):
        if is_order_isomorphic(text, pattern, combo):
            return combo
    return None


def all_perms(n):
    for p in itertools.permutations(range(1, n + 1)):
        yield Permutation(p)


# -- construction -------------------------------------------------------------


@pytest.mark.parametrize("ranks", [(2, 1, 2), (0, 1, 2), (1, 2, 4),
                                   (1, 3, 5)])
def test_permutation_rejects_ranks_that_are_not_1_to_n(ranks):
    # a duplicate, a 0, an n+1 and a missing rank (2)
    with pytest.raises(ValueError, match="not a permutation of 1..3"):
        Permutation(ranks)


def test_permutation_check_agrees_with_sorting():
    for n in range(5):
        for ranks in itertools.product(range(n + 2), repeat=n):
            ok = sorted(ranks) == list(range(1, n + 1))
            try:
                Permutation(ranks)
            except ValueError:
                assert not ok, ranks
            else:
                assert ok, ranks


# -- standardize -------------------------------------------------------------


def test_standardize_two_points():
    assert standardize([pt(Fraction(5, 2), 7), pt(9, 1)]) == perm(2, 1)


def test_standardize_empty():
    assert standardize([]) == EMPTY


def test_standardize_with_infinitesimals():
    pts = [pt(coord(1), coord(1) + EPS), pt(Fraction(3, 2), 5),
           pt(coord(2), coord(2) - EPS)]
    assert standardize(pts) == perm(1, 3, 2)
    assert standardize(pts).ranks == rank_by_pairwise_comparison(pts)


def test_standardize_duplicate_rejected():
    with pytest.raises(DuplicateCoordinate):
        standardize([pt(1, 2), pt(1, 3)])
    with pytest.raises(DuplicateCoordinate):
        standardize([pt(1, 2), pt(3, 2)])


@pytest.mark.parametrize("n", range(8))
def test_standardize_idempotent_on_diagrams(n):
    for p in all_perms(n):
        pts = [pt(x, y) for x, y in p.points()]
        assert standardize(pts) == p


# -- exact coordinates --------------------------------------------------------

coords_st = st.builds(
    coord,
    st.fractions(max_denominator=8),
    st.fractions(max_denominator=8),
)


@given(coords_st, coords_st)
def test_coord_antisymmetry(u, v):
    assert (u < v) + (v < u) + (u == v) == 1


@given(coords_st, coords_st, coords_st)
def test_coord_transitivity(u, v, w):
    if u < v and v < w:
        assert u < w


# mixed denominators: powers of 2 and of 3, their products, and a prime
rats_st = st.builds(Fraction, st.integers(-60, 60),
                    st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 27, 64, 81,
                                     96, 1024, 7]))
pairs_st = st.tuples(rats_st, rats_st)


def assert_coord_is(c, ref):
    """c has the value ref = (a, b) and its ints are in lowest terms."""
    assert (c.a, c.b) == ref
    assert c.den > 0
    assert math.gcd(c.na, c.nb, c.den) == 1


@settings(max_examples=300)
@given(pairs_st, pairs_st, rats_st, st.integers(-9, 9))
def test_coord_agrees_with_fraction_pairs(u, v, r, k):
    cu, cv = coord(*u), coord(*v)
    assert_coord_is(cu, u)
    assert_coord_is(cu + cv, tuple(x + y for x, y in zip(u, v)))
    assert_coord_is(cu - cv, tuple(x - y for x, y in zip(u, v)))
    assert_coord_is(-cu, tuple(-x for x in u))
    assert_coord_is(cu.scale(r), tuple(x * r for x in u))
    assert_coord_is(cu.scale(k), tuple(x * k for x in u))
    # lexicographic order, as on the reference tuples
    assert (cu < cv) == (u < v)
    assert (cu <= cv) == (u <= v)
    assert (cu > cv) == (u > v)
    assert (cu >= cv) == (u >= v)
    assert (cu == cv) == (u == v)
    if u == v:
        assert hash(cu) == hash(cv)
    # the same value reached along another route is equal and hashes alike
    back = (cu + cv) - cv
    assert back == cu and hash(back) == hash(cu)
    if r:
        there = cu.scale(r).scale(1 / r)
        assert there == cu and hash(there) == hash(cu)


@given(st.fractions(min_value=0, max_value=10**6).filter(bool),
       st.integers(1, 10**9))
def test_eps_is_below_every_positive_rational(r, k):
    assert coord(0) < EPS < coord(r)
    assert coord(0, k) < coord(r) and coord(-r) < coord(0, -k)


# -- containment ---------------------------------------------------------------


def test_contains_basic():
    assert contains(perm(1, 5, 3, 4, 2), perm(1, 3, 2)) is not None
    assert contains(perm(1, 2, 3), perm(2, 1)) is None
    assert contains(perm(3, 1, 2), EMPTY) == ()


def test_contains_returns_lex_least():
    text = perm(2, 4, 1, 3, 5)
    pat = perm(1, 2)
    found = contains(text, pat)
    embeds = [c for c in itertools.combinations(range(5), 2)
              if is_order_isomorphic(text, pat, c)]
    assert found == min(embeds)


def test_contains_is_not_bounded_by_the_recursion_limit():
    text = Permutation(tuple(range(1, 3001)))
    pattern = Permutation(tuple(range(1, 2001)))
    assert contains(text, pattern) == tuple(range(2000))


@pytest.mark.parametrize("n,k", [(5, 2), (5, 3), (6, 3)])
def test_contains_agrees_with_brute_force(n, k):
    pats = list(all_perms(k))
    for text in itertools.islice(all_perms(n), 0, None, 7):
        for pat in pats:
            got = contains(text, pat)
            want = brute_contains(text, pat)
            assert (got is None) == (want is None)
            if got is not None:
                assert got == want  # both lexicographically least


def pairwise_order_isomorphic(text, pattern, positions):
    """The definition, pair by pair: one position per pattern point,
    each inside the text, every pair strictly increasing and ordered by
    value as the two pattern points are."""
    k = len(pattern)
    if len(positions) != k or any(not 0 <= q < len(text) for q in positions):
        return False
    for i in range(k):
        for j in range(i + 1, k):
            a, b = positions[i], positions[j]
            if a >= b or (text[a] < text[b]) != (pattern[i] < pattern[j]):
                return False
    return True


@st.composite
def _order_cases(draw):
    """A text of up to 8 points, a pattern of up to 4 and positions that
    are either an ascending choice of one per pattern point or an
    arbitrary list: unsorted, repeated, out of range or of the wrong
    length."""
    n, k = draw(st.integers(0, 8)), draw(st.integers(0, 4))
    text = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    pattern = Permutation(tuple(draw(st.permutations(range(1, k + 1)))))
    arbitrary = st.lists(st.integers(-2, n + 1), max_size=6)
    if n >= k:
        ascending = st.permutations(range(n)).map(lambda q: sorted(q[:k]))
        arbitrary = ascending | arbitrary
    return text, pattern, draw(arbitrary)


@settings(max_examples=500, deadline=None)
@given(_order_cases())
@example((perm(2, 1, 3), perm(1, 2), [1, 2]))
@example((perm(2, 1, 3), perm(1, 2), [2, 1]))      # unsorted
@example((perm(2, 1, 3), perm(1, 2), [1, 1]))      # repeated
@example((perm(2, 1, 3), perm(1, 2), [-1, 2]))     # before the text
@example((perm(2, 1, 3), perm(1, 2), [1, 3]))      # past the text
@example((perm(2, 1, 3), perm(1, 2), [1]))         # too short
@example((perm(2, 1, 3), perm(1, 2), [0, 1, 2]))   # too long
@example((perm(2, 1, 3), EMPTY, []))
@example((EMPTY, perm(1), [0]))
def test_order_isomorphism_agrees_with_the_pairwise_definition(case):
    text, pattern, positions = case
    got = is_order_isomorphic(text, pattern, positions)
    assert got is pairwise_order_isomorphic(text, pattern, positions)
    assert got is is_order_isomorphic(text, pattern, tuple(positions))


def _subsets(n):
    """Ascending lists of positions in range(n), the empty one included."""
    return st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda bits: [q for q, b in enumerate(bits) if b])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.integers(0, 4).flatmap(
    lambda k: st.tuples(st.permutations(range(1, n + 1)),
                        st.permutations(range(1, k + 1)),
                        st.none() | st.lists(_subsets(n), min_size=k,
                                             max_size=k)))))
@example(((2, 1), (), None))
@example(((2, 1), (), []))
@example(((1,), (1, 2), None))
@example(((1,), (2, 1), [[0], [0]]))
@example(((3, 1, 2), (1, 2), [[], [0, 1, 2]]))
def test_embeddings_agree_with_brute_force(case):
    """Every embedding, in lexicographic order, against an enumeration of
    all position subsets; allowed lists restrict each point's image."""
    t, p, allowed = case
    text, pattern = Permutation(tuple(t)), Permutation(tuple(p))
    want = [c for c in itertools.combinations(range(len(text)), len(pattern))
            if is_order_isomorphic(text, pattern, c) and
            (allowed is None or all(q in a for q, a in zip(c, allowed)))]
    assert list(embeddings(text, pattern, allowed)) == want


def test_avoids():
    assert avoids(perm(1, 2, 3), perm(2, 1))
    assert not avoids(perm(2, 1, 4, 3), perm(2, 1))
    assert avoids(perm(4, 1, 3, 5, 2), perm(4, 3, 2, 1))


def test_erdos_szekeres_length_five():
    inc3, dec3 = perm(1, 2, 3), perm(3, 2, 1)
    for p in all_perms(5):
        assert contains(p, inc3) is not None or contains(p, dec3) is not None


# -- symmetries -----------------------------------------------------------------


def test_symmetry_examples():
    assert apply_symmetry(perm(1, 2, 3), SymmetryOp("r")) == perm(3, 2, 1)
    assert apply_symmetry(perm(2, 4, 1, 3), SymmetryOp("i")) == perm(3, 1, 4, 2)
    p = perm(3, 1, 4, 2, 5)
    assert apply_symmetry(apply_symmetry(p, SymmetryOp("c")),
                          SymmetryOp("c")) == p


def test_symmetry_group_order_eight():
    p = perm(2, 4, 1, 3)  # asymmetric enough to separate the images? use orbit
    words = ["", "r", "c", "i", "rc", "ri", "cr", "ci", "ir", "ic",
             "rci", "rcr", "rir", "cic"]
    images = set()
    for n in (3, 4, 5):
        seen = {}
        for w in words:
            key = tuple(apply_symmetry(q, SymmetryOp(w))
                        for q in all_perms(n))
            seen.setdefault(key, w)
        images.add(len(seen))
    assert images == {8}


@settings(max_examples=60)
@given(st.permutations(list(range(1, 10))), st.data())
def test_containment_symmetry_invariant(ranks, data):
    text = Permutation(tuple(ranks))
    pat_len = data.draw(st.integers(0, 4))
    pat = Permutation(tuple(data.draw(st.permutations(
        list(range(1, pat_len + 1))))))
    s = data.draw(st.sampled_from(all_symmetries()))
    lhs = contains(text, pat) is not None
    rhs = contains(apply_symmetry(text, s), apply_symmetry(pat, s)) is not None
    assert lhs == rhs


# -- sums and inflation -----------------------------------------------------------


def test_sums():
    assert direct_sum(perm(1), perm(1)) == perm(1, 2)
    assert skew_sum(perm(2, 1), perm(1)) == perm(3, 2, 1)
    assert direct_sum(perm(2, 1), perm(2, 1)) == perm(2, 1, 4, 3)
    assert direct_sum(EMPTY, perm(3, 1, 2)) == perm(3, 1, 2)
    assert direct_sum(perm(3, 1, 2), EMPTY) == perm(3, 1, 2)


def test_inflate():
    # inflating the 1 in 12
    assert inflate(perm(1, 2), 1, perm(2, 1)) == perm(2, 1, 3)
    assert inflate(perm(2, 1), 2, perm(1, 2)) == perm(3, 1, 2)
    assert inflate(perm(1, 2), 2, EMPTY) == perm(1)
    with pytest.raises(IndexOutOfRange):
        inflate(perm(1, 2), 3, perm(1))


def test_inflate_against_sums():
    for p in all_perms(3):
        assert inflate(perm(1, 2), 1, p) == direct_sum(p, perm(1))
        assert inflate(perm(2, 1), 1, p) == skew_sum(p, perm(1))


# -- Fibonacci class ------------------------------------------------------------


def test_fibonacci_examples():
    assert is_fibonacci(perm(2, 1, 3))
    assert not is_fibonacci(perm(3, 2, 1))
    assert is_fibonacci(perm(2, 1, 4, 3))


def test_fibonacci_equals_avoidance_characterization():
    basis = [perm(3, 2, 1), perm(3, 1, 2), perm(2, 3, 1)]
    for n in range(7):
        for p in all_perms(n):
            want = all(avoids(p, b) for b in basis)
            assert is_fibonacci(p) == want


def test_fibonacci_mirror():
    """fib- is the reverse of fib+: the skew sums of 1s and 12s, whose
    basis is the reverse of fib+'s."""
    basis = [perm(1, 2, 3), perm(2, 1, 3), perm(1, 3, 2)]
    for n in range(7):
        for p in all_perms(n):
            want = all(avoids(p, b) for b in basis)
            assert entry_contains(FIBM, p) == want
            assert is_fibonacci(apply_symmetry(p, SymmetryOp("r"))) == want


# -- text format -----------------------------------------------------------------


def test_perm_text_roundtrip():
    for p in (EMPTY, perm(1), perm(3, 1, 4, 2, 5)):
        assert parse_perm(format_perm(p)) == p
    assert parse_perm("") == EMPTY
    assert format_perm(perm(2, 1)) == "2 1\n"
