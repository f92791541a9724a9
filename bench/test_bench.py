"""Tests of the benchmark's own code: input generation, answer checks,
the tracer's self-time arithmetic and guard, the monotone subsequence
certificate and the host-speed normalisation."""

import random
import signal
import sys
import types

import pytest

import answers
import spans
import speed
import workloads
from gridppm import grid, matcher, perm


# --- generators --------------------------------------------------------------


def test_match_inputs_repeat_for_one_seed(tmp_path):
    one = [op.inputs for op in workloads.setup_match(7, str(tmp_path))]
    two = [op.inputs for op in workloads.setup_match(7, str(tmp_path))]
    other = [op.inputs for op in workloads.setup_match(8, str(tmp_path))]
    assert one == two
    assert one != other


def test_gadget_inputs_repeat_for_one_seed(tmp_path):
    def inputs(seed):
        return [op.inputs for op in
                workloads.setup_reduce_gadgets(seed, str(tmp_path))]
    assert inputs(7) == inputs(7)


def test_formula_generators_repeat_and_keep_their_promise():
    skeleton = workloads.JUXT_FORMULAS[0][2]
    f1, rho1 = workloads.planted_formula(random.Random(3), 8, skeleton)
    f2, rho2 = workloads.planted_formula(random.Random(3), 8, skeleton)
    assert (f1, rho1) == (f2, rho2)
    assert f1.evaluates(rho1)
    g = workloads.unsat_formula(random.Random(3), 16,
                                workloads.JUXT_FORMULAS[1][2])
    assert g == workloads.unsat_formula(random.Random(3), 16,
                                        workloads.JUXT_FORMULAS[1][2])
    # the block alone already refutes every assignment of variables 1-3
    for bits in range(8):
        rho = [bool(bits >> k & 1) for k in range(3)] + [False] * 13
        assert not g.evaluates(rho)


def test_match_inputs_are_members_and_negatives_are_certified(tmp_path):
    ops = workloads.setup_match(5, str(tmp_path))
    for op in ops:
        name, text, pattern = op.inputs
        m = grid.parse_matrix_json(
            '{"cols": 2, "rows": 2, "entries": %s}'
            % str(workloads.MATCH_MATRICES[name]).replace("'", '"'))
        assert grid.find_gridding(perm.Permutation(text), m) is not None
        if op.label == "negative":
            assert answers.cannot_embed(text, pattern)


def test_first_gridding_sizes_follow_the_matcher():
    rng = random.Random(11)
    for name, rows in workloads.MATCH_MATRICES.items():
        cells = workloads._cells(rows)
        m = grid.parse_matrix_json(
            '{"cols": 2, "rows": 2, "entries": %s}'
            % str(rows).replace("'", '"'))
        for n in (5, 12, 20):
            ranks = workloads.grid_member(
                cells, workloads._split(n, cells, rng), rng)
            g = grid.find_gridding(perm.Permutation(ranks), m)
            want = {c: len(p) for c, p in
                    grid._cell_contents_sparse(perm.Permutation(ranks),
                                               g).items()}
            assert workloads.first_gridding_sizes(ranks, cells) == want


# --- answer checks -----------------------------------------------------------

TEXT = (3, 1, 4, 5, 2, 6)
PATTERN = (2, 1, 3)          # 3 1 4 -> positions 0, 1, 2


def test_match_check_accepts_a_witness_and_rejects_corruptions():
    assert answers.match_ok(True, TEXT, PATTERN, (0, 1, 2))
    assert answers.match_ok(True, TEXT, PATTERN, (0, 4, 5))
    assert not answers.match_ok(True, TEXT, PATTERN, (1, 2, 3))   # 1 4 5
    assert not answers.match_ok(True, TEXT, PATTERN, (2, 1, 3))   # not sorted
    assert not answers.match_ok(True, TEXT, PATTERN, (0, 1))      # too short
    assert not answers.match_ok(True, TEXT, PATTERN, (0, 1, 6))   # off the end
    # flipped verdicts
    assert not answers.match_ok(True, TEXT, PATTERN, None)
    assert answers.match_ok(False, TEXT, PATTERN, None)
    assert not answers.match_ok(False, TEXT, PATTERN, (0, 1, 2))


def _outcome(**changes):
    out = {"rebuild_matches": True, "valid": True, "simulated": True,
           "sat": True, "embedding": (0, 1, 2)}
    out.update(changes)
    return out


def test_verify_check_accepts_an_answer_and_rejects_corruptions():
    assert answers.verify_ok(True, TEXT, PATTERN, _outcome())
    assert not answers.verify_ok(True, TEXT, PATTERN,
                                 _outcome(embedding=(1, 2, 3)))
    assert not answers.verify_ok(True, TEXT, PATTERN,
                                 _outcome(embedding=None))
    assert not answers.verify_ok(True, TEXT, PATTERN,
                                 _outcome(rebuild_matches=False))
    assert not answers.verify_ok(True, TEXT, PATTERN, _outcome(valid=False))
    # flipped verdicts
    assert not answers.verify_ok(True, TEXT, PATTERN,
                                 _outcome(simulated=False))
    assert not answers.verify_ok(True, TEXT, PATTERN, _outcome(sat=False))
    unsat = _outcome(simulated=False, sat=False, embedding=None)
    assert answers.verify_ok(False, TEXT, PATTERN, unsat)
    assert not answers.verify_ok(False, TEXT, PATTERN, _outcome())
    assert not answers.verify_ok(False, TEXT, PATTERN,
                                 dict(unsat, simulated=True))


# --- monotone subsequence certificate ----------------------------------------


@pytest.mark.parametrize("values, inc, dec", [
    ((), 0, 0),
    ((1,), 1, 1),
    ((1, 2, 3, 4), 4, 1),
    ((4, 3, 2, 1), 1, 4),
    ((3, 1, 2), 2, 2),
    ((2, 4, 1, 3), 2, 2),
    ((5, 1, 6, 2, 7, 3, 8, 4), 4, 2),
])
def test_longest_monotone_subsequences(values, inc, dec):
    assert answers.longest_increasing(values) == inc
    assert answers.longest_decreasing(values) == dec


def test_cannot_embed_certificate():
    assert answers.cannot_embed((2, 1, 3), (1, 2, 3))        # LIS 3 > 2
    assert answers.cannot_embed((1, 3, 2), (3, 2, 1))        # LDS 3 > 2
    assert not answers.cannot_embed((1, 3, 2, 4), (2, 1))    # it embeds
    # 3142 is not contained in 2413, but both have LIS 2 and LDS 2, so
    # the bound claims nothing
    assert not answers.cannot_embed((2, 4, 1, 3), (3, 1, 4, 2))


# --- tracer ------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_of_a_nested_call():
    clock = _Clock()
    tracer = spans.Tracer(clock)

    def inner():
        clock.now += 5

    def outer():
        clock.now += 2
        w_inner()
        clock.now += 3
        w_inner()
        clock.now += 1

    w_inner = tracer.wrap("inner", inner)
    w_outer = tracer.wrap("outer", outer)
    w_inner()                       # outside an operation: not recorded
    tracer.begin_op(0)
    w_outer()
    tracer.end_op()
    assert len(tracer.spans) == 3
    by_name = {}
    for op, sid, parent, name, start, end in tracer.spans:
        by_name.setdefault(name, []).append((sid, parent, end - start))
    (outer_id, outer_parent, outer_dur), = by_name["outer"]
    assert outer_parent is None and outer_dur == 16
    assert [(p, d) for _, p, d in by_name["inner"]] == [(outer_id, 5)] * 2
    own = spans.self_times(tracer.spans)
    assert own[outer_id] == 6
    assert sorted(own.values()) == [5, 5, 6]
    metrics = spans.layer_metrics(tracer.spans, {},
                                  {"outer": None, "inner": None})
    assert metrics["outer.self_ms"] == 6000
    assert metrics["inner.self_ms"] == 10000
    assert metrics["inner.calls"] == 2


def test_guard_fails_loudly_and_binds_nothing():
    home = types.ModuleType("gridppm._bench_home")
    home.layer = lambda: None
    importer = types.ModuleType("gridppm._bench_importer")
    sys.modules[home.__name__] = home
    sys.modules[importer.__name__] = importer
    try:
        layers = {"home.layer": (home.__name__, "layer",
                                 (importer.__name__,), None)}
        original = home.layer
        with pytest.raises(spans.TracerGuardError, match="_bench_importer"):
            spans.Tracer().install(layers)
        assert home.layer is original
        importer.layer = original
        tracer = spans.Tracer()
        tracer.install(layers)
        assert home.layer is importer.layer is not original
        tracer.uninstall()
        assert home.layer is importer.layer is original
    finally:
        del sys.modules[home.__name__], sys.modules[importer.__name__]


def test_real_layers_install_and_nest():
    import gridppm.cli  # noqa: F401  (binds every importer)
    tracer = spans.Tracer()
    tracer.install()
    try:
        m = grid.parse_matrix_json(
            '{"cols": 2, "rows": 2, "entries": [["dec", "inc"], '
            '["inc", "dec"]]}')
        text = perm.Permutation((1, 4, 2, 3))
        tracer.begin_op(0)
        emb = matcher.solve_cppm(perm.Permutation((1, 2)), text, m,
                                 stats={})
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert emb is not None
    metrics = spans.layer_metrics(tracer.spans, tracer.counters)
    assert metrics["matcher.solve_cppm.calls"] == 1
    assert metrics["grid.find_gridding.calls"] == 1
    assert metrics["grid.check_gridding.calls"] > 0
    assert metrics["matcher.psi_embedding.hit_ratio"] == 1.0
    root = [s for s in tracer.spans if s[2] is None]
    assert [s[3] for s in root] == ["matcher.solve_cppm"]
    assert grid.check_gridding.__name__ == "check_gridding"
    assert not hasattr(grid.check_gridding, "__wrapped__")


# --- host-speed normalisation ------------------------------------------------


def test_normalised_time_scales_with_the_snippet():
    ref = speed.REFERENCE_SNIPPET_S
    assert speed.normalised(2.0, [ref, ref]) == pytest.approx(2.0)
    # a host half as fast doubles both the call and the snippet
    assert speed.normalised(4.0, [2 * ref, 2 * ref]) == pytest.approx(2.0)


def test_host_speed_uses_the_samples_around_the_call():
    sampler = speed.Sampler()
    ref = speed.REFERENCE_SNIPPET_S
    w = speed.WINDOW_S
    sampler.samples = [(10.0 - 2 * w, 9 * ref),     # too early
                       (10.0 - w / 2, ref), (10.5, 3 * ref),
                       (11.0 + w / 2, 2 * ref),
                       (11.0 + 2 * w, 9 * ref)]     # too late
    call = speed.Call(start=10.0, end=11.0, net_s=1.0)
    assert sampler.normalised_s(call) == pytest.approx(0.5)


def _spin(seconds):
    end = speed.time.perf_counter() + seconds
    while speed.time.perf_counter() < end:
        sum(range(100))


def test_sampler_interrupts_the_call_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    with sampler.timing() as call:
        _spin(10 * speed.PERIOD_S)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.samples) >= 5
    wall = call.end - call.start
    inside = sum(s for _, s in sampler.samples)
    assert call.net_s == pytest.approx(wall - inside)
    assert 0 < call.net_s < wall
    assert sampler.normalised_s(call) > 0
    with pytest.raises(ValueError):
        with sampler.timing() as failed:
            _spin(2 * speed.PERIOD_S)
            raise ValueError("the call failed")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert 0 < failed.net_s <= failed.end - failed.start
