"""Gridding matrices: shapes, griddings, orientations, assembly."""

import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridppm import entries as E
from gridppm import grid as grid_mod
from gridppm.entries import DEC, EMPTY_E, FIBP, INC, av
from gridppm.grid import (BoxOverflow, DimensionMismatch, Gridding,
                          GriddingMatrix, MultipleDEntries, NoCycle,
                          NotClosedEntry, Orientation, Tile, TileFamily,
                          all_griddings, assemble, build_rich_path, cell_walk,
                          check_gridding, find_gridding, gridding_to_obj,
                          identity_orientation, matrix_from_obj,
                          matrix_from_rows_top_down, matrix_to_obj,
                          parse_matrix_json, refine, sample_member, staircase,
                          sum_closing_orientation)
from gridppm.perm import Permutation, SymmetryOp, apply_symmetry, perm
from gridppm.reduction import default_matrix
from microassembly import direct_sum, inflate, make_tile, pt, skew_sum

P321 = perm(3, 2, 1)
P312 = perm(3, 1, 2)
P231 = perm(2, 3, 1)
P132 = perm(1, 3, 2)


def mat(*rows):
    """Rows given top-to-bottom, as in the file format."""
    return matrix_from_rows_top_down(rows)


def all_perms(n):
    for p in itertools.permutations(range(1, n + 1)):
        yield Permutation(p)


# -- entries ------------------------------------------------------------------


def test_entry_contains_basics():
    assert E.entry_contains(INC, perm(1, 2, 3))
    assert not E.entry_contains(INC, perm(1, 3, 2))
    assert E.entry_contains(FIBP, perm(2, 1, 4, 3))
    assert not E.entry_contains(FIBP, perm(3, 1, 2))
    assert E.entry_contains(E.juxth("inc", "inc"), perm(3, 4, 1, 2))
    assert not E.entry_contains(E.juxth("inc", "inc"), perm(3, 1, 4, 2))
    assert E.entry_contains(E.parse_entry("juxtv:inc,dec"), perm(1, 4, 2, 3))
    assert E.entry_contains(EMPTY_E, perm())
    assert not E.entry_contains(EMPTY_E, perm(1))


def test_av_monotone_fast_path_matches_backtracking():
    from gridppm.perm import avoids
    for p in all_perms(5):
        assert E.entry_contains(av(P321), p) == avoids(p, P321)
        assert E.entry_contains(av(perm(1, 2, 3)), p) == \
            avoids(p, perm(1, 2, 3))


@st.composite
def _linear_class_members(draw):
    """A member of up to 10 points of inc, dec, fib+, fib- or a
    juxtaposition: each part of a juxth member is its values in d order,
    and a juxtv member is the inverse of a juxth one."""
    kind = draw(st.sampled_from(["inc", "dec", "fib+", "fib-", "juxth",
                                 "juxtv"]))
    if kind in ("fib+", "fib-"):
        ranks = []
        for size in draw(st.lists(st.sampled_from([1, 2]), max_size=6)):
            ranks += [len(ranks) + 2, len(ranks) + 1][2 - size:]
        p = Permutation(tuple(ranks))
        return kind, p if kind == "fib+" else apply_symmetry(
            p, SymmetryOp("r"))
    n = draw(st.integers(0, 10))
    if kind in ("inc", "dec"):
        ranks = range(1, n + 1)
        return kind, Permutation(tuple(ranks if kind == "inc"
                                       else reversed(ranks)))
    d1, d2 = draw(st.sampled_from(["inc", "dec"])), \
        draw(st.sampled_from(["inc", "dec"]))
    left = draw(st.sets(st.integers(1, n))) if n else set()
    ranks = tuple(sorted(left, reverse=d1 == "dec")) + tuple(sorted(
        set(range(1, n + 1)) - left, reverse=d2 == "dec"))
    p = Permutation(ranks)
    e = E.ClassEntry(kind, d1=d1, d2=d2)
    return E.format_entry(e), p if kind == "juxth" else apply_symmetry(
        p, SymmetryOp("i"))


@settings(max_examples=300, deadline=None)
@given(_linear_class_members(), st.integers(2, 5).flatmap(
    lambda k: st.permutations(range(1, k + 1))))
def test_av_class_shortcut_matches_backtracking(member, sigma):
    """Av(sigma) membership first asks whether p lies in a linear class
    that sigma lies outside; on members of every such class it agrees
    with the brute-force search."""
    from gridppm.perm import avoids
    name, p = member
    sigma = Permutation(tuple(sigma))
    assert E.entry_contains(E.parse_entry(name), p)
    assert E.entry_contains(av(sigma), p) == avoids(p, sigma)


def _juxt_by_splits(e, p):
    """Juxtaposition membership by trying every cut: by position for
    juxth, by value for juxtv (d1 the bottom part)."""
    n = len(p)
    if e.kind == "juxth":
        return any(E.is_monotone_run(p.ranks[:s], e.d1)
                   and E.is_monotone_run(p.ranks[s:], e.d2)
                   for s in range(n + 1))
    return any(E.is_monotone_run([r for r in p.ranks if r <= v], e.d1)
               and E.is_monotone_run([r for r in p.ranks if r > v], e.d2)
               for v in range(n + 1))


def test_juxtaposition_scan_matches_every_split():
    kinds = [E.ClassEntry(k, d1=d1, d2=d2) for k in ("juxth", "juxtv")
             for d1 in ("inc", "dec") for d2 in ("inc", "dec")]
    for n in range(8):
        for p in all_perms(n):
            for e in kinds:
                assert E.entry_contains(e, p) == _juxt_by_splits(e, p), \
                    (E.format_entry(e), p.ranks)


def test_closure_flags():
    assert E.sum_closed(INC) and not E.skew_closed(INC)
    assert E.skew_closed(DEC) and not E.sum_closed(DEC)
    assert E.sum_closed(FIBP)
    assert E.skew_closed(E.FIBM)
    # 321 is sum-indecomposable but skew-decomposable
    assert E.sum_closed(av(P321)) and not E.skew_closed(av(P321))
    # 123 is skew-indecomposable but sum-decomposable
    assert E.skew_closed(av(perm(1, 2, 3))) and not E.sum_closed(av(perm(1, 2, 3)))


def test_closure_flags_hold_on_members():
    """A sum-closed entry contains a + b, and a skew-closed one a - b, for
    all its members a and b with |a| + |b| <= 6."""
    for e in EVERY_KIND:
        by_size = [[p for p in all_perms(n) if E.entry_contains(e, p)]
                   for n in range(7)]
        sums = [f for f, flag in ((direct_sum, E.sum_closed(e)),
                                  (skew_sum, E.skew_closed(e))) if flag]
        for na, nb in itertools.product(range(7), repeat=2):
            if na + nb > 6:
                continue
            for a, b, f in itertools.product(by_size[na], by_size[nb], sums):
                assert E.entry_contains(e, f(a, b)), (e, f.__name__, a, b)


def test_entry_string_roundtrip():
    for s in ("empty", "inc", "dec", "fib+", "fib-", "av:321",
              "juxth:inc,inc", "juxtv:inc,dec"):
        assert E.format_entry(E.parse_entry(s)) == s


@pytest.mark.parametrize("text,ranks", [("av:1", (1,)), ("av:", ())])
def test_av_entry_needs_two_points(text, ranks):
    """Av(1) holds only the empty permutation and Av() holds none, so
    neither is a cell class; the constructor and the parser refuse both,
    naming the entry."""
    with pytest.raises(ValueError, match=f"^{text} holds no point"):
        E.av(Permutation(ranks))
    with pytest.raises(ValueError, match=f"^{text} holds no point"):
        E.parse_entry(text)
    assert E.parse_entry("av:21") == E.av(perm(2, 1))


# -- matrix construction and JSON ----------------------------------------------


def test_matrix_rows_top_down():
    m = mat([DEC, INC], [INC, DEC])
    assert m.entry(1, 1) == INC  # bottom-left
    assert m.entry(1, 2) == DEC  # top-left
    assert m.entry(2, 1) == DEC
    assert m.entry(2, 2) == INC


def test_matrix_json_roundtrip():
    m = mat([DEC, av(P321)], [FIBP, EMPTY_E])
    assert matrix_from_obj(matrix_to_obj(m)) == m
    text = ('{"cols":2,"rows":1,"entries":[["inc","dec"]]}')
    m2 = parse_matrix_json(text)
    assert m2.entry(1, 1) == INC and m2.entry(2, 1) == DEC


ALL_KINDS = [EMPTY_E, INC, DEC, FIBP, E.FIBM, av(P321), av(P132),
             E.juxth("inc", "dec"), E.parse_entry("juxtv:dec,inc")]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(st.sampled_from(ALL_KINDS), min_size=k, max_size=k),
    min_size=1, max_size=4)))
def test_sparse_matrix_agrees_with_its_rows(rows):
    m = mat(*rows)
    k, l = len(rows[0]), len(rows)
    dense = {(i, j): rows[l - j][i - 1]
             for i in range(1, k + 1) for j in range(1, l + 1)}
    assert (m.cols, m.rows) == (k, l)
    assert all(m.entry(*cc) == e for cc, e in dense.items())
    assert m.nonempty_cells() == [cc for cc in sorted(dense)
                                  if dense[cc] != EMPTY_E]
    obj = matrix_to_obj(m)
    assert matrix_to_obj(matrix_from_obj(obj)) == obj
    for outside in ((0, 1), (k + 1, 1), (1, 0), (1, l + 1)):
        with pytest.raises(DimensionMismatch):
            GriddingMatrix(k, l, {**m.filled, outside: INC})
    with pytest.raises(ValueError, match="empty"):
        GriddingMatrix(k, l, {**m.filled, (1, 1): EMPTY_E})


def test_gridding_json_form():
    g = Gridding((1, 3, 6), (1, 2, 6))
    assert gridding_to_obj(g) == {"col_cuts": [1, 3, 6],
                                  "row_cuts": [1, 2, 6]}


# -- path and cycle shapes ----------------------------------------------------


def test_cell_graph_diagonal_is_disconnected():
    # diagonal cells share no row or column, so they form isolated
    # vertices, not a path
    m = mat([EMPTY_E, INC], [INC, EMPTY_E])
    assert cell_walk(m) == ("Other", [])


def test_cell_graph_two_cell_path():
    m = mat([INC, INC])
    assert cell_walk(m) == ("ProperTurningPath", [(1, 1), (2, 1)])


def test_cell_graph_L_shape_path():
    m = mat([INC, EMPTY_E], [INC, DEC])
    assert cell_walk(m) == ("ProperTurningPath", [(1, 2), (1, 1), (2, 1)])


def test_cell_graph_full_2x2_cycle():
    m = mat([INC, DEC], [DEC, INC])
    assert cell_walk(m) == ("ProperTurningCycle",
                            [(1, 1), (1, 2), (2, 2), (2, 1)])


def test_cell_graph_skips_blocked_pairs():
    # the middle of three cells in one column has both its neighbours
    # there, so it cannot turn
    m = matrix_from_rows_top_down([[INC], [INC], [INC]])
    assert cell_walk(m) == ("Other", [])


def _shape_and_order(m):
    shape, cells = cell_walk(m)
    return shape, cells if shape == "ProperTurningPath" else None


def _shape_corpus():
    """Every fill pattern of every grid up to 3x3, 20,000 seeded random
    matrices up to 7x7 with at most 10 filled cells, and the default rich
    paths of both modes for lengths 1..29."""
    for k in range(1, 4):
        for l in range(1, 4):
            grid = [(i, j) for i in range(1, k + 1) for j in range(1, l + 1)]
            for bits in range(1 << len(grid)):
                yield GriddingMatrix(k, l, {c: INC for t, c in enumerate(grid)
                                            if bits >> t & 1})
    rng = random.Random(20261020)
    for _ in range(20_000):
        k, l = rng.randint(1, 7), rng.randint(1, 7)
        grid = [(i, j) for i in range(1, k + 1) for j in range(1, l + 1)]
        cells = rng.sample(grid, rng.randint(0, min(10, len(grid))))
        yield GriddingMatrix(k, l, dict.fromkeys(cells, INC))
    for mode in ("juxtaposition", "gadgets"):
        for length in range(1, 30):
            yield build_rich_path(default_matrix(mode), length)


def test_shapes_and_path_orders_are_pinned():
    """The shape of every corpus matrix, and the cell order of every
    path, hashed: a rewrite of the shape code must give the same list."""
    shapes = [_shape_and_order(m) for m in _shape_corpus()]
    digest = hashlib.sha256(repr(shapes).encode()).hexdigest()
    assert digest == ("fe35a06be88d9d70408b3094888b7100"
                      "e5faad8abef2f08e2f04ea079bb76474")


# -- griddings -----------------------------------------------------------------


def test_check_gridding_trivial():
    m = GriddingMatrix(1, 1, {(1, 1): INC})
    assert check_gridding(perm(1, 2), Gridding((1, 3), (1, 3)), m)
    assert not check_gridding(perm(2, 1), Gridding((1, 3), (1, 3)), m)


def test_find_gridding_horizontal():
    m = mat([DEC, INC])
    g = find_gridding(perm(2, 1, 3, 4, 5), m)
    # (1,2,6) also grids it (a one-point cell is trivially decreasing)
    # and precedes (1,3,6) lexicographically
    assert g == Gridding((1, 2, 6), (1, 6))
    assert check_gridding(perm(2, 1, 3, 4, 5), Gridding((1, 3, 6), (1, 6)), m)


def test_find_gridding_none_when_impossible():
    m = mat([DEC, INC])
    assert find_gridding(perm(2, 3, 1), m) is None


def brute_has_gridding(p, m):
    n = len(p)
    inner = list(range(1, n + 2))
    for c in itertools.product(inner, repeat=m.cols - 1):
        for r in itertools.product(inner, repeat=m.rows - 1):
            cuts_c = (1,) + c + (n + 1,)
            cuts_r = (1,) + r + (n + 1,)
            if any(a > b for a, b in zip(cuts_c, cuts_c[1:])):
                continue
            if any(a > b for a, b in zip(cuts_r, cuts_r[1:])):
                continue
            if check_gridding(p, Gridding(cuts_c, cuts_r), m):
                return True
    return False


@pytest.mark.parametrize("m", [
    mat([DEC, INC]),
    mat([INC], [DEC]),
    mat([DEC, INC], [INC, DEC]),
    mat([EMPTY_E, av(P321)], [INC, EMPTY_E]),
])
def test_find_gridding_agrees_with_brute_force(m):
    rng = random.Random(7)
    for n in (0, 1, 4, 6):
        for _ in range(12):
            ranks = list(range(1, n + 1))
            rng.shuffle(ranks)
            p = Permutation(tuple(ranks))
            assert (find_gridding(p, m) is not None) == brute_has_gridding(p, m)


# one entry of every kind, both monotone directions and both shapes of
# each juxtaposition
EVERY_KIND = [EMPTY_E, INC, DEC, FIBP, E.FIBM, av(P321), av(P132),
              av(perm(2, 1)), E.juxth("inc", "dec"), E.juxth("dec", "dec"),
              E.parse_entry("juxtv:inc,dec"),
              E.parse_entry("juxtv:dec,inc")]


@st.composite
def matrices_and_perms(draw):
    k, l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [[draw(st.sampled_from(EVERY_KIND)) for _ in range(k)]
            for _ in range(l)]
    ranks = draw(st.permutations(list(range(1, draw(st.integers(0, 7)) + 1))))
    return mat(*rows), Permutation(tuple(ranks))


@settings(max_examples=150, deadline=None)
@given(matrices_and_perms())
def test_all_griddings_matches_brute_force_in_order(mp):
    m, p = mp
    n = len(p)
    want = []
    inner = range(1, n + 2)
    for c in itertools.product(inner, repeat=m.cols - 1):
        cuts_c = (1,) + c + (n + 1,)
        if any(a > b for a, b in zip(cuts_c, cuts_c[1:])):
            continue
        for r in itertools.product(inner, repeat=m.rows - 1):
            cuts_r = (1,) + r + (n + 1,)
            if any(a > b for a, b in zip(cuts_r, cuts_r[1:])):
                continue
            g = Gridding(cuts_c, cuts_r)
            ok = check_gridding(p, g, m)
            # check_gridding agrees with standardizing every cell
            assert ok == all(
                E.entry_contains(m.entry(*cell), content) for cell, content
                in grid_mod._cell_contents_sparse(p, g).items())
            if ok:
                want.append(g)
    assert list(all_griddings(p, m)) == want


def test_staircase_shape():
    m = staircase(1, INC, FIBP)
    assert (m.cols, m.rows) == (2, 1)
    assert m.entry(1, 1) == INC and m.entry(2, 1) == FIBP
    m3 = staircase(3, INC, av(P321))
    assert (m3.cols, m3.rows) == (4, 3)
    for i in range(1, 4):
        assert m3.entry(i, i) == INC and m3.entry(i + 1, i) == av(P321)
    assert cell_walk(m3)[0] == "ProperTurningPath"


def test_staircase_exclusions():
    assert find_gridding(perm(4, 3, 2, 1), staircase(3, INC, av(P321))) is None
    assert find_gridding(perm(4, 2, 3, 1), staircase(3, INC, av(P231))) is None
    assert find_gridding(perm(4, 3, 1, 2), staircase(3, INC, av(P312))) is None


def rich_2x2(pi):
    return mat([DEC, INC], [av(pi), DEC])


def test_rich_2x2_exclusions():
    assert find_gridding(perm(1, 4, 5, 2, 3), rich_2x2(P132)) is None
    assert find_gridding(perm(2, 4, 5, 1, 3), rich_2x2(P231)) is None
    assert find_gridding(perm(3, 2, 1, 5, 4), rich_2x2(P321)) is None
    assert find_gridding(perm(4, 2, 5, 1, 3), rich_2x2(P321)) is None


# -- orientations ----------------------------------------------------------------


CYCLE_D = mat([DEC, INC], [av(P321), DEC])


def test_consistent_orientation_paper_examples():
    """On a monotone matrix, the sum-closing orientation is the one
    consistent with it: every entry's image is increasing.  In general
    it gives +1 on each cell that is only sum-closed and -1 on each cell
    that is only skew-closed."""
    m = mat([DEC, INC], [INC, DEC])
    f = sum_closing_orientation(m)
    assert f == Orientation((-1, 1), (-1, 1))
    m2 = mat([INC, INC], [INC, DEC])
    assert sum_closing_orientation(m2) is None
    m3 = mat([INC, INC], [INC, INC])
    assert sum_closing_orientation(m3) == identity_orientation(2, 2)
    f = sum_closing_orientation(CYCLE_D)
    assert f is not None
    for (i, j), e in CYCLE_D.filled.items():
        assert E.sum_closed(e) != E.skew_closed(e)
        assert f.col(i) * f.row(j) == (1 if E.sum_closed(e) else -1)
    with pytest.raises(NotClosedEntry):
        sum_closing_orientation(mat([INC, E.juxth("inc", "inc")]))


# -- refinement and rich paths -----------------------------------------------------


def test_refine_single_entries():
    d = refine(GriddingMatrix(1, 1, {(1, 1): INC}), 2)
    assert d.entry(1, 1) == INC and d.entry(2, 2) == INC
    assert d.entry(1, 2) == EMPTY_E and d.entry(2, 1) == EMPTY_E
    a = refine(GriddingMatrix(1, 1, {(1, 1): DEC}), 2)
    assert a.entry(1, 2) == DEC and a.entry(2, 1) == DEC
    assert a.entry(1, 1) == EMPTY_E and a.entry(2, 2) == EMPTY_E


def test_refine_members_stay_in_original_class():
    rng = random.Random(11)
    m = mat([DEC, INC], [av(P321), DEC])
    r = refine(m, 3)
    for _ in range(10):
        sizes = {c: rng.randint(0, 1) for c in r.nonempty_cells()}
        p, _ = sample_member(r, rng, sizes)
        assert find_gridding(p, m) is not None


def test_refined_fib_minus_stays_in_fib_minus():
    """fib- is skew-closed, so refine lays it out anti-diagonally, and
    every member of the refinement is a member of fib-."""
    r = refine(GriddingMatrix(1, 1, {(1, 1): E.FIBM}), 2)
    for n in range(7):
        for p in all_perms(n):
            if find_gridding(p, r) is not None:
                assert E.entry_contains(E.FIBM, p), p


def test_rich_path_requires_cycle_and_single_d():
    with pytest.raises(NoCycle):
        build_rich_path(mat([av(P321), INC]), 4)
    with pytest.raises(MultipleDEntries):
        build_rich_path(mat([av(P321), INC], [INC, av(P321)]), 4)


def test_rich_path_degenerate_length_one():
    shape, order = cell_walk(build_rich_path(CYCLE_D, 1))
    assert shape == "ProperTurningPath"
    assert len(order) >= 3


@pytest.mark.parametrize("L", [2, 4, 8])
def test_rich_path_structure(L):
    out = build_rich_path(CYCLE_D, L)
    shape, order = cell_walk(out)
    assert shape == "ProperTurningPath"
    assert len(order) >= L
    dpos = [cc for cc in order if not E.is_monotone(out.entry(*cc))]
    # one D entry per cycle copy
    cycle_len = len(CYCLE_D.nonempty_cells())
    assert len(dpos) >= len(order) // (cycle_len + 1)
    for cc in dpos:
        assert out.entry(*cc) == av(P321)


@pytest.mark.parametrize("L", [2, 4])
def test_rich_path_members_stay_in_input_class(L):
    rng = random.Random(L)
    out = build_rich_path(CYCLE_D, L)
    cells = out.nonempty_cells()
    for _ in range(10):
        chosen = rng.sample(cells, min(6, len(cells)))
        sizes = {c: 1 for c in chosen}
        p, _ = sample_member(out, rng, sizes)
        assert find_gridding(p, CYCLE_D) is not None


# -- assembly -------------------------------------------------------------------


def test_assemble_single_tile_is_standardize():
    tile = make_tile((pt(1, 2), pt(2, 1), pt(3, 3)))
    fam = TileFamily(1, 1, {(1, 1): tile}, Fraction(3))
    p, prov, g = assemble(fam, identity_orientation(1, 1))
    assert p == perm(2, 1, 3)
    assert {c: list(ps) for c, ps in prov.items()} == {(1, 1): [1, 2, 3]}
    assert g == Gridding((1, 4), (1, 4))


def test_assemble_orientation_reverses():
    tile = make_tile((pt(1, 1), pt(2, 2)))
    fam = TileFamily(1, 1, {(1, 1): tile}, Fraction(2))
    p, _, _ = assemble(fam, Orientation((-1,), (1,)))
    assert p == perm(2, 1)
    p, _, _ = assemble(fam, Orientation((1,), (-1,)))
    assert p == perm(2, 1)
    p, _, _ = assemble(fam, Orientation((-1,), (-1,)))
    assert p == perm(1, 2)


def test_assemble_rotation_tiebreak():
    # two tiles in one row whose points collide in y: the point with
    # larger x must end lower
    t1 = make_tile((pt(1, 1),))
    t2 = make_tile((pt(1, 1),))
    fam = TileFamily(2, 1, {(1, 1): t1, (2, 1): t2}, Fraction(1))
    p, _, _ = assemble(fam, identity_orientation(2, 1))
    assert p == perm(2, 1)
    # two tiles in one column colliding in x: larger y ends further right
    fam = TileFamily(1, 2, {(1, 1): t1, (1, 2): t2}, Fraction(1))
    p, _, _ = assemble(fam, identity_orientation(1, 2))
    assert p == perm(1, 2)


def test_assemble_box_overflow():
    tile = make_tile((pt(5, 1),))
    fam = TileFamily(1, 1, {(1, 1): tile}, Fraction(2))
    with pytest.raises(BoxOverflow):
        assemble(fam, identity_orientation(1, 1))


def test_tile_errors_name_the_point_and_the_columns():
    tile = make_tile((pt(1, 1), pt(5, 2)))
    fam = TileFamily(1, 1, {(1, 1): tile}, Fraction(2))
    with pytest.raises(BoxOverflow, match=r"point 1 \(5, 2\)"):
        assemble(fam, identity_orientation(1, 1))
    with pytest.raises(ValueError, match="columns differ"):
        Tile([1], [0], [1], [1], [0], [])


def test_assemble_passes_induced_gridding():
    rng = random.Random(5)
    m = mat([DEC, INC], [INC, DEC])
    f = sum_closing_orientation(m)
    assert all(f.col(i) * f.row(j) == (1 if e == INC else -1)
               for (i, j), e in m.filled.items())
    for _ in range(10):
        sizes = {c: rng.randint(1, 3) for c in m.nonempty_cells()}
        # build increasing tiles, orient with f: result lands in Grid(m)
        bound = Fraction(4)
        tiles = {}
        for cell, s in sizes.items():
            pts = tuple(pt(Fraction(t + 1), Fraction(t + 1)) for t in range(s))
            tiles[cell] = make_tile(pts)
        fam = TileFamily(2, 2, tiles, bound)
        p, _, g = assemble(fam, f)
        assert check_gridding(p, g, m)


@st.composite
def families_with_runs(draw):
    """1-3 tiles of at most five integer points on a 2x2 grid at most,
    with up to three runs of 0-3 points each, and an orientation."""
    cols, rows = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    cells = draw(st.lists(st.tuples(st.integers(1, cols),
                                    st.integers(1, rows)),
                          min_size=1, max_size=3, unique=True))
    bound = Fraction(5)
    tiles = {}
    for cell in cells:
        n = draw(st.integers(1, 5))
        coords = st.lists(st.integers(1, 5), min_size=n, max_size=n,
                          unique=True)
        pts = tuple(map(pt, draw(coords), draw(coords)))
        runs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, 3)), max_size=3))
        tiles[cell] = make_tile(pts, runs)
    signs = st.sampled_from((1, -1))
    f = Orientation(tuple(draw(signs) for _ in range(cols)),
                    tuple(draw(signs) for _ in range(rows)))
    return TileFamily(cols, rows, tiles, bound), f


@settings(max_examples=200, deadline=None)
@given(families_with_runs())
def test_assemble_runs_match_inflating_the_core(fam_f):
    """Assembling with runs equals assembling the core and inflating
    each inflated point, rightmost first, by a monotone block: rising
    when its tile flips both axes or neither, falling otherwise."""
    fam, f = fam_f
    core = TileFamily(fam.cols, fam.rows,
                      {c: replace(t, runs=()) for c, t in fam.tiles.items()},
                      fam.box_bound)
    p, core_prov, g = assemble(core, f)
    prov = {(cell, k): pos for cell, ps in core_prov.items()
            for k, pos in enumerate(ps)}
    grown = {}          # (cell, k) -> run point indices, in order
    for cell, tile in fam.tiles.items():
        nxt = len(tile.x_na)
        for k, r in tile.runs:
            grown.setdefault((cell, k), []).extend(range(nxt, nxt + r))
            nxt += r
    for key in sorted(grown, key=prov.__getitem__, reverse=True):
        r = len(grown[key])
        (i, j), _ = key
        block = range(1, r + 2) if f.col(i) == f.row(j) else \
            range(r + 1, 0, -1)
        p = inflate(p, prov[key], Permutation(tuple(block)))

    # every point moves right by the runs before it; a run's points
    # follow their base, or precede it on a flipped x axis
    want = {}
    for key, pos in prov.items():
        before = sum(len(ids) for k2, ids in grown.items()
                     if prov[k2] < pos)
        ids = grown.get(key, [])
        (i, _), _ = key
        start = pos + before
        if f.col(i) == 1:
            want[key] = start
            want.update(((key[0], idx), start + t)
                        for t, idx in enumerate(ids, 1))
        else:
            want[key] = start + len(ids)
            want.update(((key[0], idx), start + len(ids) - t)
                        for t, idx in enumerate(ids, 1))
    colx = [0] * (fam.cols + 1)
    rowx = [0] * (fam.rows + 1)
    for ((i, j), _), ids in grown.items():
        colx[i] += len(ids)
        rowx[j] += len(ids)
    want_g = Gridding(
        tuple(c + sum(colx[:a + 1]) for a, c in enumerate(g.col_cuts)),
        tuple(c + sum(rowx[:b + 1]) for b, c in enumerate(g.row_cuts)))

    want_prov = {}
    for (cell, _), pos in sorted(want.items()):
        want_prov.setdefault(cell, []).append(pos)
    got_p, got_prov, got_g = assemble(fam, f)
    assert (got_p, {c: list(ps) for c, ps in got_prov.items()}, got_g) == \
        (p, want_prov, want_g)
