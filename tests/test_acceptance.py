"""Acceptance battery.

End-to-end checks at the scale the package is meant to operate: the
matcher against brute force over a matrix battery, the part-respecting
embedding routine against exhaustive enumeration, the forced behaviour
of every gadget kind, the full formula-to-instance pipeline against a
SAT oracle, instance size scaling, frozen grid-class facts, and the
rich-path builder.  Loop counts and time budgets are pinned here and
nowhere else.
"""

import itertools
import math
import random
import time

import pytest

from gridppm.entries import DEC, INC, av, is_monotone
from gridppm.grid import (build_rich_path, cell_walk, find_gridding,
                          sample_member, staircase)
from gridppm.matcher import psi_embedding, solve_cppm
from gridppm.perm import contains, embeddings, is_order_isomorphic, perm
from gridppm.reduction import (default_matrix, default_path,
                               embedding_from_assignment, make_path_spec,
                               normalize_3cnf, plan_layers, reduce_formula,
                               simulate_grid_preserving,
                               validate_instance)
from gridppm.sat import CNFFormula, solve_sat

from microassembly import (cell_of, finish_micro, grid_allowed, micro,
                           pair_positions, slot_positions)
from test_matcher import (BATTERY, brute_psi, mat, random_partition,
                          random_perm)


# --- matcher vs. brute force -------------------------------------------------


def test_matcher_agrees_with_brute_force_at_scale():
    start = time.monotonic()
    rng = random.Random(1001)
    for i in range(500):
        m = BATTERY[i % len(BATTERY)]
        cells = m.nonempty_cells()
        tcap = 30 // len(cells)       # text size stays <= 30
        pcap = 8 // len(cells)        # pattern size stays <= 8
        text, _ = sample_member(m, rng, {c: rng.randint(0, tcap)
                                         for c in cells})
        pattern, _ = sample_member(m, rng, {c: rng.randint(0, pcap)
                                            for c in cells})
        got = solve_cppm(pattern, text, m)
        want = contains(text, pattern)
        assert (got is None) == (want is None), (pattern, text, i)
        if got is not None:
            assert is_order_isomorphic(text, pattern, got)
    assert time.monotonic() - start < 300


# --- part-respecting embeddings vs. enumeration ------------------------------


def test_psi_agrees_with_enumeration_at_scale():
    start = time.monotonic()
    rng = random.Random(2002)
    done = 0
    attempts = 0
    while done < 1000:
        attempts += 1
        assert attempts < 20000, "partition sampling starved"
        t = rng.randint(1, 4)
        text = random_perm(rng.randint(0, 12), rng)
        pattern = random_perm(rng.randint(0, 6), rng)
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
        done += 1
    assert time.monotonic() - start < 300


# --- gadget behaviour on micro assemblies ------------------------------------
#
# Each assembly stays below 24 points per family, small enough that
# every grid-preserved embedding can be enumerated outright.


def _sizes_ok(out):
    return all(len(out[fam][0]) <= 24 for fam in "PT")


def test_copy_gadget_forces_the_image_pair():
    b = micro({"P": [(1, 2)], "T": [(1, 2), (3, 4)]})
    srcs = {fam: list(b.live[fam]) for fam in "PT"}
    b._advance_to(1)
    out = finish_micro(b)
    assert _sizes_ok(out)
    (p, pp, gp), (t, tp, gt) = out["P"], out["T"]
    p_in = pair_positions(b, pp, "P", srcs["P"][0])
    p_out = pair_positions(b, pp, "P", b.live["P"][0])
    for ch in range(2):
        t_in = pair_positions(b, tp, "T", srcs["T"][ch])
        t_out = pair_positions(b, tp, "T", b.live["T"][ch])
        allowed = grid_allowed(p, gp, t, gt)
        for i, q in zip(p_in, t_in):
            allowed[i] = [q] if q in allowed[i] else []
        embs = list(embeddings(t, p, allowed))
        assert len(embs) == 1
        assert tuple(sorted(embs[0][i] for i in p_out)) == t_out


def test_choose_and_pick_admit_exactly_two_embeddings():
    b = micro({"P": [(1, 2)], "T": [(1, 2)]})
    b._dsimple(lambda fam, pos, pid: "pick" if fam == "P" else "choose")
    out = finish_micro(b)
    assert _sizes_ok(out)
    (p, pp, gp), (t, tp, gt) = out["P"], out["T"]
    embs = list(embeddings(t, p, grid_allowed(p, gp, t, gt)))
    assert len(embs) == 2
    branches = {slot_positions(b, tp, "T", "choose", s)[0] for s in (0, 1)}
    picked = pair_positions(b, pp, "P", b.live["P"][0])
    assert {tuple(sorted(e[i] for i in picked)) for e in embs} == branches


def test_multiply_gadget_maps_branches_index_wise():
    b = micro({"P": [(1, 2)], "T": [(1, 2)]})
    b._step(b.cursor + 1, lambda fam, pos, pid: "multiply")
    out = finish_micro(b)
    assert _sizes_ok(out)
    (p, _, gp), (t, _, gt) = out["P"], out["T"]
    embs = list(embeddings(t, p, grid_allowed(p, gp, t, gt)))
    assert embs == [tuple(range(len(p)))]


def test_merge_and_follow_funnel_both_branches():
    b = micro({"P": [(1, 2), (5, 6)], "T": [(1, 2), (3, 4), (5, 6)]})

    def kind_of(fam, pos, pid):
        if fam == "T":
            return ("merge", 1) if pos == 0 else "copy"
        return "follow" if pos == 0 else "copy"

    b._dsimple(kind_of)
    out = finish_micro(b)
    assert _sizes_ok(out)
    (p, pp, gp), (t, tp, gt) = out["P"], out["T"]
    embs = list(embeddings(t, p, grid_allowed(p, gp, t, gt)))
    assert embs
    merged = pair_positions(b, tp, "T", b.live["T"][0])
    followed = pair_positions(b, pp, "P", b.live["P"][0])
    # the merge output holds the tile's only descent: every embedding
    # funnels the pattern's follow pair onto it
    assert all(tuple(sorted(e[i] for i in followed)) == merged
               for e in embs)


def test_flip_gadget_forces_aligned_duo():
    b = micro({"P": [(1, 2), (3, 4)], "T": [(1, 2), (3, 4)]})
    b._flip([0], [0])
    out = finish_micro(b)
    assert _sizes_ok(out)
    (p, _, gp), (t, _, gt) = out["P"], out["T"]
    assert len(list(embeddings(t, p, grid_allowed(p, gp, t, gt)))) == 1


def test_flip_gadget_rejects_crossed_pair():
    b = micro({"P": [(1, 2), (3, 4)], "T": [(1, 2), (3, 4)]})
    b._flip([], [0])   # pattern commits to a flip the text never performs
    out = finish_micro(b)
    assert _sizes_ok(out)
    (p, _, gp), (t, _, gt) = out["P"], out["T"]
    assert list(embeddings(t, p, grid_allowed(p, gp, t, gt))) == []


def test_flip_gadget_preserves_branch_identity():
    b = micro({"P": [(1, 2)], "T": [(1, 2), (3, 4)]})
    b._flip([0], [])
    out = finish_micro(b)
    assert _sizes_ok(out)
    (p, pp, gp), (t, tp, gt) = out["P"], out["T"]
    embs = list(embeddings(t, p, grid_allowed(p, gp, t, gt)))
    assert embs
    pchain = slot_positions(b, pp, "P", "flippat")[0]
    sides = {slot_positions(b, tp, "T", "fliptext", s)[0] for s in (0, 1)}
    images = {tuple(sorted(e[i] for i in pchain)) for e in embs}
    # the whole chain commits to one text chain, and both are reachable
    assert images == sides


# --- formula-to-instance pipeline vs. SAT oracle ------------------------------


_CLAUSES3 = [tuple(s * v for s, v in zip(signs, (1, 2, 3)))
             for signs in itertools.product((1, -1), repeat=3)]


def _canonical(clauses):
    """Least representative of a formula under variable renaming."""
    best = None
    for g in itertools.permutations((1, 2, 3)):
        mapped = tuple(sorted(
            tuple(sorted(((1 if l > 0 else -1) * g[abs(l) - 1]
                          for l in cl), key=abs))
            for cl in clauses))
        if best is None or mapped < best:
            best = mapped
    return best


def _exhaustive_corpus():
    """Every formula on exactly three variables with at most three
    clauses of three distinct variables, one per renaming class."""
    seen = {}
    for count in (1, 2, 3):
        for combo in itertools.combinations(_CLAUSES3, count):
            seen.setdefault(_canonical(combo), combo)
    return [normalize_3cnf(3, c) for c in seen.values()]


def _random_formulas(count, rng):
    out = []
    for _ in range(count):
        n = rng.randint(3, 6)
        m = rng.randint(1, 5)
        cls = []
        for _ in range(m):
            vs = rng.sample(range(1, n + 1), 3)
            cls.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        out.append(normalize_3cnf(n, cls))
    return out


def _check_pipeline(f, mode):
    inst = reduce_formula(f, mode=mode)
    plan = plan_layers(f, make_path_spec(inst.path.matrix), mode)
    assert (plan.sizes, plan.layers, plan.d_used) == \
        (inst.sizes, inst.layers, inst.d_used), (f.clauses, mode)
    assert validate_instance(inst)["violations"] == [], (f.clauses, mode)
    found, rho = simulate_grid_preserving(inst)
    asg = solve_sat(CNFFormula(f.nvars, f.clauses))
    assert found == (asg is not None), (f.clauses, mode)
    if found:
        emb = embedding_from_assignment(inst, rho)
        assert len(emb) == inst.sizes["pattern"]
        pcell = cell_of(inst.pattern, inst.griddings["P"])
        tcell = cell_of(inst.text, inst.griddings["T"])
        assert all(pcell[ppos] == tcell[tpos]
                   for ppos, tpos in enumerate(emb))


def test_pipeline_agrees_with_sat_oracle():
    start = time.monotonic()
    corpus = _exhaustive_corpus()
    assert len(corpus) == 29
    corpus += _random_formulas(50, random.Random(4004))
    for f in corpus:
        for mode in ("gadgets", "juxtaposition"):
            _check_pipeline(f, mode)
    assert time.monotonic() - start < 600


# --- instance size scaling ----------------------------------------------------
#
# Constants fitted once against the sizes the planner reports for this
# seed and frozen with headroom.

_JUXT_C1 = 1400       # |text| <= C1 * m * log2(m)
_GADGET_C2 = 9600     # |text| <= C2 * m^2


def test_text_size_scaling():
    rng = random.Random(20260826)
    ratios = []
    for m in (4, 8, 16, 32, 64):
        cls = []
        for _ in range(m):
            vs = rng.sample(range(1, m + 1), 3)
            cls.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        f = normalize_3cnf(m, cls)
        sj = default_path(f, "juxtaposition")[1].sizes["text"]
        sg = default_path(f, "gadgets")[1].sizes["text"]
        assert sj <= _JUXT_C1 * m * math.log2(m), (m, sj)
        assert sg <= _GADGET_C2 * m * m, (m, sg)
        ratios.append(sj / sg)
    # the n log n construction pulls away as formulas grow
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios


# --- frozen grid-class facts ----------------------------------------------------


@pytest.mark.parametrize("sigma,basis", [
    ((4, 3, 2, 1), (3, 2, 1)),
    ((4, 2, 3, 1), (2, 3, 1)),
    ((4, 3, 1, 2), (3, 1, 2)),
])
def test_staircase_non_members(sigma, basis):
    m = staircase(3, INC, av(perm(*basis)))
    start = time.monotonic()
    assert find_gridding(perm(*sigma), m) is None
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("basis,sigma", [
    ((1, 3, 2), (1, 4, 5, 2, 3)),
    ((2, 3, 1), (2, 4, 5, 1, 3)),
    ((3, 2, 1), (3, 2, 1, 5, 4)),
    ((3, 2, 1), (4, 2, 5, 1, 3)),
])
def test_rich_two_by_two_non_members(basis, sigma):
    m = mat([DEC, INC], [av(perm(*basis)), DEC])
    start = time.monotonic()
    assert find_gridding(perm(*sigma), m) is None
    assert time.monotonic() - start < 1.0


# --- rich-path builder ----------------------------------------------------------


@pytest.mark.parametrize("length", [4, 8, 16])
def test_rich_path_builder_output(length):
    base = default_matrix("juxtaposition")
    out = build_rich_path(base, length)
    shape, order = cell_walk(out)
    assert shape == "ProperTurningPath"
    d_positions = [cc for cc in order if not is_monotone(out.filled[cc])]
    assert len(d_positions) >= length / 5
    rng = random.Random(7000 + length)
    cells = out.nonempty_cells()
    for _ in range(100):
        sizes = {c: rng.randint(0, 2) for c in cells}
        member, _ = sample_member(out, rng, sizes)
        assert find_gridding(member, base) is not None, member
