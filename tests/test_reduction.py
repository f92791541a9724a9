"""The formula-to-instance builder and its verifiers."""

import ast
import itertools
import pathlib
import tracemalloc
from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridppm.reduction
from gridppm.entries import DEC, FIBP, INC, av, juxth, parse_entry
from gridppm.grid import (GriddingMatrix, build_rich_path, check_gridding,
                          matrix_from_rows_top_down, staircase,
                          sum_closing_orientation)
from gridppm.perm import Permutation
from gridppm.reduction import (ClauseTooWide, EmptyClause, ReductionError,
                               NotAPath, PathTooShort, UnusableMatrix,
                               default_matrix, embedding_from_assignment,
                               make_path_spec, normalize_3cnf, plan_layers,
                               read_instance_summary, rebuild_instance,
                               reduce_formula, simulate_grid_preserving,
                               validate_instance, write_instance)
from gridppm.reduction.builder import KINDS, _Builder
from gridppm.sat import CNFFormula
from microassembly import slot_refs, tile_points

# The gadget micro-lemmas live in test_acceptance.py, which also checks
# each assembly's size; they are collected here too under their own names.
from test_acceptance import (
    test_choose_and_pick_admit_exactly_two_embeddings
    as test_choose_pick_admits_exactly_two_embeddings,
    test_copy_gadget_forces_the_image_pair
    as test_copy_forces_the_image_pair,
    test_flip_gadget_forces_aligned_duo
    as test_flip_aligned_duo_is_forced,
    test_flip_gadget_preserves_branch_identity
    as test_flip_preserves_branch_identity,
    test_flip_gadget_rejects_crossed_pair
    as test_flip_crossed_pair_is_infeasible,
    test_merge_and_follow_funnel_both_branches
    as test_merge_funnels_both_branches,
    test_multiply_gadget_maps_branches_index_wise
    as test_multiply_maps_branches_index_wise)


def truth_table_sat(f):
    for bits in itertools.product([False, True], repeat=f.nvars):
        if f.evaluates(bits):
            return True
    return False


def mat(*rows):
    return matrix_from_rows_top_down(rows)


# --- normalization ---------------------------------------------------------


def test_normalize_pads_by_repeating_last_literal():
    f = normalize_3cnf(2, [(1,), (1, -2)])
    assert f.clauses == ((1, 1, 1), (1, -2, -2))


def test_normalize_rejects_empty_clause():
    with pytest.raises(EmptyClause):
        normalize_3cnf(1, [()])


def test_normalize_rejects_wide_clause():
    with pytest.raises(ClauseTooWide):
        normalize_3cnf(4, [(1, 2, 3, 4)])


def test_normalize_rejects_out_of_range_literal():
    with pytest.raises(ReductionError):
        normalize_3cnf(1, [(2, 2, 2)])
    with pytest.raises(ReductionError):
        normalize_3cnf(1, [(0,)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.sampled_from(
            [v for k in range(1, n + 1) for v in (k, -k)]),
            min_size=1, max_size=3),
            min_size=1, max_size=4))))
def test_normalize_preserves_satisfiability(arg):
    n, clauses = arg
    f = normalize_3cnf(n, clauses)
    assert all(len(c) == 3 for c in f.clauses)
    wide = CNFFormula.__new__(CNFFormula)  # plain truth-table on raw input
    sat_raw = any(
        all(any((lit > 0) == bits[abs(lit) - 1] for lit in cl)
            for cl in clauses)
        for bits in itertools.product([False, True], repeat=n))
    assert truth_table_sat(f) == sat_raw


# --- path specs --------------------------------------------------------------


def test_staircase_path_spec_alternates_d_tiles():
    spec = make_path_spec(staircase(4, INC, FIBP))
    assert spec.d_tiles == (1, 3, 5, 7)
    assert len(spec.cells) == 8


def test_cycle_matrix_is_not_a_path():
    with pytest.raises(NotAPath):
        make_path_spec(mat([DEC, INC], [FIBP, DEC]))


def test_unusable_d_entry_is_rejected():
    # inc/dec horizontal juxtaposition cannot host the choose gadget
    m = staircase(30, INC, juxth("inc", "dec"))
    f = CNFFormula(1, ((1, 1, 1),))
    with pytest.raises(UnusableMatrix):
        reduce_formula(f, mode="juxtaposition", matrix=m)


def _cycle_path(d):
    """The 2x2 cycle with D entry ``d``, refined into a rich path."""
    return build_rich_path(mat([DEC, INC], [d, DEC]), 60)


# av:sigma classes that are sum- or skew-closed, so they refine into a
# rich path, but lack a gadget (sigma is a direct sum of 1s and 21s) or,
# in juxtaposition mode, the bucket class juxth:inc,inc (sigma is one
# increasing run followed by another)
@pytest.mark.parametrize("mode,sigma", [
    ("gadgets", "1234"), ("gadgets", "12345"), ("gadgets", "12354"),
    ("gadgets", "12435"), ("gadgets", "13245"), ("gadgets", "21345"),
    ("juxtaposition", "12453"), ("juxtaposition", "23451"),
    ("juxtaposition", "34512"), ("juxtaposition", "51234")])
def test_d_entry_must_contain_every_gadget(mode, sigma):
    with pytest.raises(UnusableMatrix):
        reduce_formula(FORMULAS[3], mode=mode,
                       matrix=_cycle_path(parse_entry("av:" + sigma)))


@pytest.mark.parametrize("mode,entry", [
    ("gadgets", "av:321"), ("juxtaposition", "av:321"),
    ("gadgets", "av:34512"), ("gadgets", "fib+")])
def test_accepted_d_entry_builds_a_valid_instance(mode, entry):
    inst = reduce_formula(FORMULAS[3], mode=mode,
                          matrix=_cycle_path(parse_entry(entry)))
    assert validate_instance(inst)["violations"] == []


def test_short_path_reports_requirement():
    m = staircase(3, INC, FIBP)
    f = CNFFormula(2, ((1, 2, 2), (-1, 2, 2)))
    with pytest.raises(PathTooShort) as exc:
        reduce_formula(f, mode="gadgets", matrix=m)
    assert exc.value.required_d > exc.value.available_d == 3
    # a path at the reported length suffices
    m2 = staircase(exc.value.required_d, INC, FIBP)
    inst = reduce_formula(f, mode="gadgets", matrix=m2)
    assert inst.d_used <= exc.value.required_d


def test_d_tiles_the_cursor_has_passed_are_skipped(monkeypatch):
    """On a path whose every cell is av:321, the D tiles a layer asks for
    can lie behind the cursor; ``_take_d`` skips them.  Each build below
    skips 2, in its one geometry pass."""
    skipped = []
    take_d = _Builder._take_d

    def counting_take_d(self, k):
        start = self._dptr
        out = take_d(self, k)
        real = len(set(out) & set(self.path.d_tiles))
        skipped.append(self._dptr - start - real)
        return out

    monkeypatch.setattr(_Builder, "_take_d", counting_take_d)
    f = normalize_3cnf(3, [(1, -2, 3), (-2, 3, 1)])
    d = av(Permutation((3, 2, 1)))
    for k, mode, points in [(9, "juxtaposition", 1242),
                            (40, "gadgets", 6570)]:
        skipped.clear()
        inst = reduce_formula(f, mode=mode, matrix=staircase(k, d, d))
        assert (inst.sizes["text"], sum(skipped)) == (points, 2)
        assert validate_instance(inst)["violations"] == []
        embedding_from_assignment(inst, (True, False, True))
    with pytest.raises(PathTooShort, match="provides 70 .* needs 74"):
        reduce_formula(f, mode="gadgets", matrix=staircase(36, d, d))


def test_a_given_matrix_is_built_once(monkeypatch):
    """``reduce_formula`` on a given matrix runs one build, a geometry
    one, whether the path is long enough or too short."""
    geometry = []
    build = _Builder.build

    def counted_build(self):
        geometry.append(self.geometry)
        build(self)

    monkeypatch.setattr(_Builder, "build", counted_build)
    f = normalize_3cnf(3, [(1, -2, 3), (-2, 3, 1)])
    d = av(Permutation((3, 2, 1)))
    for mode in ("gadgets", "juxtaposition"):
        geometry.clear()
        reduce_formula(f, mode=mode, matrix=staircase(40, d, d))
        assert geometry == [True]
    geometry.clear()
    with pytest.raises(PathTooShort):
        reduce_formula(f, mode="gadgets", matrix=staircase(36, d, d))
    assert geometry == [True]


@pytest.mark.parametrize("mode", ["gadgets", "juxtaposition"])
def test_path_too_short_supplies_fewer_than_it_needs(mode):
    """``PathTooShort`` counts only the D tiles a layer builds in; a D
    tile the cursor has passed, or one a bucket pass copies through,
    counts toward neither side.  So a short path always supplies fewer
    than the construction needs, and a geometry pass run on its own
    reports the same two counts as the planning pass."""
    raised = 0
    for sigma, clauses in (((3, 1, 4, 2), [(3, 2, 1), (2, 1, 3)]),
                           ((3, 2, 1), [(1, -2, 3), (-2, 3, 1)])):
        d = av(Permutation(sigma))
        f = normalize_3cnf(3, clauses)
        for k in range(1, 41):
            path = make_path_spec(staircase(k, d, d))
            try:
                plan = plan_layers(f, path, mode)
            except PathTooShort as exc:
                raised += 1
                assert exc.available_d < exc.required_d, (sigma, k)
                with pytest.raises(PathTooShort) as geo:
                    _Builder(f, path, mode, geometry=True).build()
                assert (geo.value.required_d, geo.value.available_d) == \
                    (exc.required_d, exc.available_d), (sigma, k)
            else:
                assert plan.d_used <= len(path.d_tiles)
    assert raised >= 6
    no_d = make_path_spec(staircase(5, INC, DEC))
    with pytest.raises(PathTooShort) as exc:
        plan_layers(normalize_3cnf(1, [(1,)]), no_d, mode)
    assert exc.value.available_d == 0


# every sigma of size 3 and 4, and the size-5 sigma that pass the
# juxtaposition rule yet lie in juxtv:inc,inc
_CAPABILITY_SIGMAS = [
    "".join(map(str, s)) for n in (3, 4)
    for s in itertools.permutations(range(1, n + 1))] + [
    "14253", "31425", "31452", "34152", "41253", "41523"]


@st.composite
def _capability_paths(draw):
    """A staircase(k, D, D), a staircase(k, inc, D), or the latter with
    one diagonal cell also D."""
    d = av(Permutation(tuple(map(int, draw(st.sampled_from(
        _CAPABILITY_SIGMAS))))))
    k = draw(st.integers(6, 14))
    family = draw(st.sampled_from(["DD", "incD", "incD+1"]))
    m = staircase(k, d if family == "DD" else INC, d)
    if family == "incD+1":
        i = draw(st.integers(1, k))
        m = GriddingMatrix(m.cols, m.rows, {**m.filled, (i, i): d})
    return m


@settings(max_examples=25, deadline=None)
@given(_capability_paths(),
       st.sampled_from(["juxtaposition"] * 4 + ["gadgets"]))
@example(staircase(7, av(Permutation((3, 1, 4, 2))),
                   av(Permutation((3, 1, 4, 2)))), "juxtaposition")
def test_capability_rule_holds_on_user_paths(m, mode):
    """A D entry that ``_capability_check`` accepts holds every gadget
    the builder places in it: ``reduce`` either refuses the path or
    writes an instance that lies in its matrix and embeds.  Every bucket
    pass builds in a tile whose outgoing coordinate is x, where the
    fresh x lays the two parts out as ``juxth:inc,inc``."""
    f = CNFFormula(3, ((3, 2, 1), (2, 1, 3)))
    try:
        inst = reduce_formula(f, mode=mode, matrix=m)
    except ReductionError:
        return
    assert validate_instance(inst)["violations"] == []
    assert {inst.path.out_coord[t] for kind, t in inst.layers
            if kind == "bucket"} <= {"x"}
    assert len(embedding_from_assignment(inst, (True,) * 3)) \
        == inst.sizes["pattern"]


# --- structural invariants ----------------------------------------------------


FORMULAS = [
    CNFFormula(1, ((1, 1, 1),)),
    CNFFormula(1, ((1, 1, 1), (-1, -1, -1))),          # unsatisfiable
    CNFFormula(2, ((1, 2, 2), (-1, 2, 2))),
    CNFFormula(3, ((1, -2, 3), (-1, 2, -3), (2, 3, 3))),
]


@pytest.mark.parametrize("mode", ["gadgets", "juxtaposition"])
@pytest.mark.parametrize("f", FORMULAS)
def test_end_to_end(mode, f):
    inst = reduce_formula(f, mode=mode)
    assert validate_instance(inst)["violations"] == []
    found, rho = simulate_grid_preserving(inst)
    assert found == truth_table_sat(f)
    if found:
        emb = embedding_from_assignment(inst, rho)
        assert len(emb) == inst.sizes["pattern"]



def _two_pattern_copies(trace):
    """The output indices of two pattern copy gadgets in one tile."""
    by_tile = defaultdict(list)
    for g in range(len(trace)):
        if trace.fam[g] == 0 and KINDS[trace.kind[g]] == "copy":
            j = trace.out_off[g]
            by_tile[trace.slot_tile[trace.slot_off[j]]].append(j)
    return next(js[:2] for js in by_tile.values() if len(js) > 1)


def test_replay_rejects_tampered_instances():
    """Each failure branch of ``embedding_from_assignment`` raises its
    own ``ReductionError`` on an instance tampered in memory; both order
    tampers fail its one order check, ``perm.is_order_isomorphic``."""
    rho = (True,)

    def replay(inst):
        return embedding_from_assignment(inst, rho)

    inst = reduce_formula(FORMULAS[0])
    n = len(inst.pattern)
    emb = replay(inst)
    with pytest.raises(ReductionError,
                       match="^assignment does not satisfy the formula$"):
        embedding_from_assignment(inst, (False,))

    # two text points trade positions: two images cross
    prov = inst.prov["T"][inst.path.cells[0]]
    prov[0], prov[1] = prov[1], prov[0]
    with pytest.raises(ReductionError,
                       match="^embedding does not induce the pattern$"):
        replay(inst)
    prov[0], prov[1] = prov[1], prov[0]

    # two text points trade values: the images keep their order on x
    r = list(inst.text.ranks)
    r[emb[0]], r[emb[1]] = r[emb[1]], r[emb[0]]
    with pytest.raises(ReductionError,
                       match="^embedding does not induce the pattern$"):
        replay(replace(inst, text=Permutation(tuple(r))))

    # a pattern copy's slot names its neighbour's points, so its own two
    # points are never mapped
    tr = inst.trace
    j1, j2 = _two_pattern_copies(tr)
    a1, a2 = tr.slot_off[j1], tr.slot_off[j2]
    kept = tr.slot_idx[a2:a2 + 2]
    tr.slot_idx[a2:a2 + 2] = tr.slot_idx[a1:a1 + 2]
    with pytest.raises(ReductionError, match=(
            f"^propagation covered {n - 2} of {n} pattern points$")):
        replay(inst)
    tr.slot_idx[a2:a2 + 2] = kept

    # a pattern copy's slot moves to the next tile
    for a in (a1, a1 + 1):
        tr.slot_tile[a] += 1
    with pytest.raises(ReductionError, match="^cross-tile point image$"):
        replay(inst)
    for a in (a1, a1 + 1):
        tr.slot_tile[a] -= 1
    assert replay(inst) == emb


def test_replay_memory_per_pattern_point():
    """The replay's transient memory stays near the size of the answer:
    at most 120 bytes per pattern point, with no per-point tuple or dict
    entry."""
    f = FORMULAS[3]
    inst = reduce_formula(f, mode="gadgets")
    rho = next(r for r in itertools.product((False, True), repeat=f.nvars)
               if f.evaluates(r))
    tracemalloc.start()
    try:
        embedding_from_assignment(inst, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 120 * len(inst.pattern), peak / len(inst.pattern)


@pytest.mark.parametrize("mode,gadgets", [("gadgets", 5020),
                                          ("juxtaposition", 1307)])
def test_trace_length_is_the_gadget_count(mode, gadgets):
    """``len(inst.trace)`` counts gadgets, the figure the benchmark's
    ``reduction.builder.gadgets`` counter reads."""
    assert len(reduce_formula(FORMULAS[3], mode=mode).trace) == gadgets


def test_validate_reports_tampered_instances():
    inst = reduce_formula(FORMULAS[0])
    assert validate_instance(inst)["violations"] == []

    def violations(**changes):
        return validate_instance(replace(inst, **changes))["violations"]

    r = inst.text.ranks
    assert violations(text=Permutation((r[1], r[0]) + r[2:])) == [
        "T: stored permutation does not match its tiles"]
    d_cell = inst.path.cells[inst.path.d_tiles[0]]
    m = inst.path.matrix
    inc_d = GriddingMatrix(m.cols, m.rows, {**m.filled, d_cell: INC})
    assert violations(path=replace(inst.path, matrix=inc_d)) == [
        "P: gridding violates the matrix", "T: gridding violates the matrix"]
    assert violations(sizes=dict(inst.sizes, text=inst.sizes["text"] + 1)) \
        == ["recorded sizes disagree with the permutations"]


@pytest.mark.parametrize("mode", ["gadgets", "juxtaposition"])
def test_counting_matches_geometry(mode):
    f = FORMULAS[2]
    geom = reduce_formula(f, mode=mode)
    plan = plan_layers(f, make_path_spec(geom.path.matrix), mode)
    assert plan.sizes == geom.sizes
    assert plan.layers == geom.layers
    assert plan.d_used == geom.d_used


def test_reduction_invariants_survive_optimized_mode():
    """``python -O`` strips asserts: every invariant in the package,
    the builder and its checks included, raises a named exception."""
    pkg = pathlib.Path(gridppm.__file__).parent
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert lines == [], (path.name, lines)


def test_no_function_calls_itself():
    """No search recurses to a depth the input sets: no function in the
    package calls itself by name."""
    pkg = pathlib.Path(gridppm.__file__).parent
    found = []
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(c, ast.Call) and
                    ast.unparse(c.func) in (fn.name, "self." + fn.name)
                    for c in ast.walk(fn)):
                found.append((path.name, fn.name))
    assert found == []


# top-level names that only tests reach, each with its reason
TEST_ONLY_NAMES = {
    "sample_member": "seeded generator of grid class members for tests",
    "all_symmetries": "kept for the Av(sigma) certificates (ROADMAP item 3)",
    "_cell_contents_sparse": "the cell contents that bench/test_bench.py "
                             "and the gridding tests compare against",
}


# dataclass fields ("Class.field") that no library code reads, each with
# its reason
UNREAD_FIELDS: dict = {}


def test_every_library_name_has_a_caller():
    """Every top-level function and class of the package is referenced by
    name, outside its own definition, from library code or from a
    non-test module of bench/; and every field of the package's
    dataclasses is read there as an attribute."""
    pkg = pathlib.Path(gridppm.__file__).parent
    bench = pathlib.Path(__file__).parents[1] / "bench"
    assert (bench / "run.py").exists()
    defined, used, fields, read = set(), set(), set(), set()
    for path in sorted(pkg.rglob("*.py")) + sorted(bench.glob("*.py")):
        if path.name.startswith("test_"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(stmt)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if bench not in path.parents:
                    defined.add(stmt.name)
            if bench not in path.parents and \
                    isinstance(stmt, ast.ClassDef) and any(
                        "dataclass" in ast.unparse(d)
                        for d in stmt.decorator_list):
                fields |= {(stmt.name, a.target.id) for a in stmt.body
                           if isinstance(a, ast.AnnAssign)}
            used |= names
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.ctx, ast.Load)}
    assert sorted(defined - used - set(TEST_ONLY_NAMES)) == []
    assert sorted(set(TEST_ONLY_NAMES) - defined) == []
    unread = {f"{c}.{f}" for c, f in fields if f not in read}
    assert sorted(unread - set(UNREAD_FIELDS)) == []
    assert sorted(set(UNREAD_FIELDS) - unread) == []


def test_no_module_imports_a_private_name():
    """No module of the package imports an underscore name from another
    module: a rule shared across modules gets a public name."""
    pkg = pathlib.Path(gridppm.__file__).parent
    found = []
    for path in sorted(pkg.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                found += [(path.name, a.name) for a in node.names
                          if a.name.startswith("_")]
    assert found == []


def test_builder_keeps_d_cells_unreflected():
    """Why the builder orients by its own rule: on the shortest staircase
    of av:1432 that holds a 1-clause formula in gadgets mode, sum-closing
    would reflect every D cell (av:1432 is only skew-closed), while the
    builder keeps each one as it is, and that instance is sound."""
    f = normalize_3cnf(3, [(1, -2, 3)])
    d = av(Permutation((1, 4, 3, 2)))
    with pytest.raises(PathTooShort):
        plan_layers(f, make_path_spec(staircase(7, INC, d)), "gadgets")
    m = staircase(8, INC, d)
    inst = reduce_formula(f, mode="gadgets", matrix=m)
    closing = sum_closing_orientation(m)
    for t in inst.path.d_tiles:
        i, j = inst.path.cells[t]
        assert inst.path.orientation.col(i) * inst.path.orientation.row(j) == 1
        assert closing.col(i) * closing.row(j) == -1
    assert validate_instance(inst)["violations"] == []
    assert len(embedding_from_assignment(inst, (True, True, True))) == 647


@pytest.mark.parametrize("mode", ["gadgets", "juxtaposition"])
def test_anchor_counting(mode):
    inst = reduce_formula(FORMULAS[2], mode=mode)
    s = inst.sizes
    assert s["anchor_run"] == s["text_core"] + 1
    # each family carries two anchor runs: 2|tau'| + 2 extra points
    assert s["text"] == s["text_core"] + 2 * s["anchor_run"] - 2
    assert s["pattern"] == s["pattern_core"] + 2 * s["anchor_run"] - 2
    assert s["pattern"] <= s["text"]


@pytest.mark.parametrize("mode", ["gadgets", "juxtaposition"])
@pytest.mark.parametrize("f", FORMULAS)
def test_anchor_runs_are_contiguous_inflations(mode, f):
    """Each anchor run directly follows its anchor in tile 0, on
    consecutive positions with consecutive values: the family is its
    core inflated at two points by increasing runs.  The runs carry the
    last 2*(anchor_run - 1) point indices of tile 0, low run first."""
    inst = reduce_formula(f, mode=mode)
    extra = inst.sizes["anchor_run"] - 1
    cell0 = inst.path.cells[0]
    for fam, p in (("P", inst.pattern), ("T", inst.text)):
        prov = inst.prov[fam]
        at = {pos: (cell, idx) for cell, ps in prov.items()
              for idx, pos in enumerate(ps)}
        c = len(prov[cell0]) - 2 * extra
        assert c > 0
        for first in (c, c + extra):
            q = [prov[cell0][first + i] for i in range(extra)]
            assert q == list(range(q[0], q[0] + extra))
            assert [p[k - 1] for k in q] == list(range(p[q[0] - 1],
                                                       p[q[0] - 1] + extra))
            cell, idx = at[q[0] - 1]
            assert cell == cell0 and idx < c
            assert p[q[0] - 2] == p[q[0] - 1] - 1


@pytest.mark.parametrize("mode", ["gadgets", "juxtaposition"])
@pytest.mark.parametrize("f", FORMULAS)
def test_tiles_and_provenance_hold_plain_ints(mode, f):
    """Every tile column and provenance list holds only ints; a cell's
    list has one position per column point and run point; and each
    family's positions are exactly 1..n."""
    inst = reduce_formula(f, mode=mode)
    for fam, p in (("P", inst.pattern), ("T", inst.text)):
        tiles, prov = inst.families[fam].tiles, inst.prov[fam]
        assert prov.keys() == tiles.keys()
        for cell, t in tiles.items():
            cols = (t.x_na, t.x_nb, t.x_den, t.y_na, t.y_nb, t.y_den)
            assert all(type(v) is int for col in cols for v in col)
            assert all(type(v) is int for v in prov[cell])
            assert len(prov[cell]) == len(t.x_na) + sum(r for _, r in t.runs)
        assert sorted(pos for ps in prov.values() for pos in ps) == \
            list(range(1, len(p) + 1))


@pytest.mark.parametrize("mode", ["gadgets", "juxtaposition"])
def test_tiles_are_direct_sums_of_gadget_blocks(mode):
    """Within a tile, each gadget's points fill an x-interval disjoint
    from every other gadget's: the tile is a sum of the gadget blocks."""
    inst = reduce_formula(FORMULAS[2], mode=mode)
    blocks = {fam: defaultdict(lambda: defaultdict(list)) for fam in "PT"}
    tr = inst.trace
    for g in range(len(tr)):
        for j in range(tr.out_off[g], tr.out_off[g + 1]):
            for (t, i) in slot_refs(tr, j):
                blocks["PT"[tr.fam[g]]][t][g].append(i)
    for fam in "PT":
        for t, by_gadget in blocks[fam].items():
            pts = tile_points(inst.families[fam].tiles[inst.path.cells[t]])
            spans = sorted(
                (min(pts[i].x for i in idx), max(pts[i].x for i in idx))
                for idx in by_gadget.values())
            assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))


# --- persistence --------------------------------------------------------------


@pytest.mark.parametrize("mode", ["gadgets", "juxtaposition"])
def test_io_roundtrip_and_deterministic_rebuild(mode, tmp_path):
    inst = reduce_formula(FORMULAS[0], mode=mode)
    d = str(tmp_path)
    write_instance(inst, d)
    summary = read_instance_summary(d)
    assert summary["formula_obj"] == inst.formula
    assert summary["sizes"] == inst.sizes
    rebuilt = rebuild_instance(summary)
    assert rebuilt.pattern == inst.pattern
    assert rebuilt.text == inst.text
    assert rebuilt.sizes == inst.sizes
