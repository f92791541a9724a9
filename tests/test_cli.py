"""The command-line surface: exit codes, report shapes, determinism."""

import ast
import json
import pathlib
import random

import pytest

from gridppm import cli
from gridppm.cli import run
from gridppm.entries import is_monotone
from gridppm.grid import find_gridding, matrix_from_obj, sample_member


def report(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def test_brute_found(files, capsys):
    p = files("p.perm", "2 1\n")
    t = files("t.perm", "1 4 3 2\n")
    assert run(["brute", "--pattern", p, "--text", t]) == 0
    r = report(capsys)
    assert r["found"] is True
    assert len(r["embedding"]) == 2


def test_brute_not_found_still_exits_zero(files, capsys):
    p = files("p.perm", "2 1\n")
    t = files("t.perm", "1 2 3\n")
    assert run(["brute", "--pattern", p, "--text", t]) == 0
    assert report(capsys)["found"] is False


def test_match_report_shape(files, capsys):
    m = files("m.json",
              '{"cols":2,"rows":1,"entries":[["inc","dec"]]}')
    p = files("p.perm", "1 2 4 3\n")
    t = files("t.perm", "1 3 5 6 4 2\n")
    assert run(["match", "--matrix", m, "--pattern", p, "--text", t]) == 0
    r = report(capsys)
    assert r["found"] is True
    assert set(r) >= {"found", "gridding_text", "gridding_pattern",
                      "embedding", "stats"}
    assert set(r["stats"]) == {"griddings_tried", "clauses", "time_ms"}
    assert r["stats"]["griddings_tried"] >= 1


def test_match_broken_promise_is_validation_failure(files, capsys):
    m = files("m.json",
              '{"cols":1,"rows":1,"entries":[["inc"]]}')
    p = files("p.perm", "1\n")
    t = files("t.perm", "2 1\n")
    assert run(["match", "--matrix", m, "--pattern", p, "--text", t]) == 2


def test_match_non_monotone_matrix_is_usage_error(files, capsys):
    m = files("m.json",
              '{"cols":2,"rows":1,"entries":[["inc","av:321"]]}')
    p = files("p.perm", "1\n")
    t = files("t.perm", "2 1\n")
    assert run(["match", "--matrix", m, "--pattern", p, "--text", t]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gridppm: ")
    assert "monotone" in captured.err
    assert captured.err.count("\n") == 1


def test_gridcheck(files, capsys):
    m = files("m.json",
              '{"cols":2,"rows":1,"entries":[["inc","dec"]]}')
    good = files("good.perm", "4 3 2 1\n")
    assert run(["gridcheck", "--matrix", m, "--perm", good]) == 0
    assert report(capsys)["found"] is True


def test_gridcheck_non_member(files, capsys):
    m = files("m.json",
              '{"cols":1,"rows":1,"entries":[["dec"]]}')
    p = files("p.perm", "1 2\n")
    assert run(["gridcheck", "--matrix", m, "--perm", p]) == 0
    r = report(capsys)
    assert r["found"] is False and r["gridding"] is None


# the 2x2 cycle that richpath refines, with one fib+ entry
FIB_CYCLE = '{"cols":2,"rows":2,"entries":[["dec","inc"],["fib+","dec"]]}'


def test_richpath(files, capsys):
    m = files("m.json", FIB_CYCLE)
    assert run(["richpath", "--matrix", m, "--length", "6"]) == 0
    r = report(capsys)
    assert r["shape"] == "ProperTurningPath"
    assert len(r["d_positions"]) == 6


@pytest.mark.parametrize("d", ["av:2413", "av:3142"])
def test_richpath_with_a_sum_and_skew_closed_d_entry(d, files, tmp_path,
                                                     capsys):
    """A D entry that is both sum- and skew-closed: refine lays it on the
    diagonal, so the orientation must ask +1 of it too.  The rich path's
    members grid into the cycle, and the reduction builds on it."""
    cycle = {"cols": 2, "rows": 2, "entries": [["inc", "dec"], [d, "inc"]]}
    m = files("m.json", json.dumps(cycle))
    base = matrix_from_obj(cycle)
    rng = random.Random(2413)
    for length in (2, 3, 8):
        assert run(["richpath", "--matrix", m, "--length", str(length)]) == 0
        r = report(capsys)
        assert r["shape"] == "ProperTurningPath"
        out = matrix_from_obj(r["matrix"])
        for _ in range(8):
            sizes = {c: rng.randint(0, 2) for c in out.nonempty_cells()}
            member, _ = sample_member(out, rng, sizes)
            assert find_gridding(member, base) is not None, member
    path = files("path.json", json.dumps(r["matrix"]))
    f = files("f.cnf", "p cnf 1 1\n1 0\n")
    inst = str(tmp_path / "inst")
    assert run(["reduce", "--cnf", f, "--mode", "gadgets", "--matrix", path,
                "--out", inst]) == 0
    capsys.readouterr()
    assert run(["verify", inst]) == 0
    r = report(capsys)
    assert r["report"]["violations"] == [] and r["simulate"] is True
    assert run(["embed", inst]) == 0
    assert report(capsys)["satisfiable"] is True


@pytest.mark.parametrize("length", [0, -3])
def test_richpath_length_below_one_exits_one(length, files, capsys):
    m = files("m.json", FIB_CYCLE)
    assert run(["richpath", "--matrix", m, "--length", str(length)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("gridppm: rich path length must be at least 1, "
                            f"got {length}\n")


def test_staircase(files, capsys):
    assert run(["staircase", "--length", "3", "inc", "av:321"]) == 0
    r = report(capsys)
    assert r["matrix"]["cols"] == 4 and r["matrix"]["rows"] == 3
    assert r["shape"] == "ProperTurningPath"


# matrix files of the wrong shape; each must be one usage-error line
MALFORMED_MATRICES = [
    '{"cols":1,"rows":0,"entries":[]}',
    '{"cols":2,"rows":1,"entries":[1,2]}',
    '{"cols":1,"rows":1,"entries":5}',
    '{"cols":1,"rows":1,"entries":[[5]]}',
    '[1,2]',
    '{"cols":1,"rows":1}',
]

# well-formed matrices the construction cannot use: one cell, a cycle,
# and a path too short for the formula
UNUSABLE_MATRICES = [
    '{"cols":1,"rows":1,"entries":[["fib+"]]}',
    '{"cols":2,"rows":2,"entries":[["dec","inc"],["fib+","dec"]]}',
    '{"cols":2,"rows":1,"entries":[["inc","fib+"]]}',
]


def test_reduce_on_a_monotone_path_exits_one(files, capsys):
    assert run(["staircase", "--length", "6", "inc", "dec"]) == 0
    m = files("m.json", json.dumps(report(capsys)["matrix"]))
    f = files("f.cnf", "p cnf 1 1\n1 0\n")
    assert run(["reduce", "--cnf", f, "--matrix", m]) == 1
    assert capsys.readouterr().err == (
        f"gridppm: {m}: matrix has no non-monotone entry\n")


def test_usage_errors_exit_one(files, capsys):
    assert run(["match", "--pattern", "x"]) == 1
    assert run(["brute", "--pattern", "/does/not/exist",
                "--text", "/nor/this"]) == 1
    bad = files("bad.perm", "1 5 2\n")
    ok = files("ok.perm", "1\n")
    assert run(["brute", "--pattern", bad, "--text", ok]) == 1
    assert run(["brute", "--pattern", ok, "--text", ok, "--jobs", "2"]) == 1
    capsys.readouterr()
    cnf = files("f.cnf", "p cnf 1 1\n1 0\n")
    for k, text in enumerate(MALFORMED_MATRICES):
        m = files(f"m{k}.json", text)
        for argv in (["match", "--matrix", m, "--pattern", ok, "--text", ok],
                     ["gridcheck", "--matrix", m, "--perm", ok],
                     ["richpath", "--matrix", m, "--length", "2"],
                     ["reduce", "--cnf", cnf, "--matrix", m]):
            assert run(argv) == 1, (argv[0], text)
            err = capsys.readouterr().err
            assert err.startswith(f"gridppm: {m}: ") and err.count("\n") == 1
    for k, text in enumerate(UNUSABLE_MATRICES):
        m = files(f"u{k}.json", text)
        assert run(["reduce", "--cnf", cnf, "--matrix", m]) == 1, text
        err = capsys.readouterr().err
        assert err.startswith(f"gridppm: {m}: ") and err.count("\n") == 1
    # a clause the construction cannot take is a usage error, not a
    # validation failure
    for k, text in enumerate(["p cnf 1 1\n0\n", "p cnf 4 1\n1 2 3 4 0\n"]):
        wide = files(f"w{k}.cnf", text)
        assert run(["reduce", "--cnf", wide]) == 1, text
        err = capsys.readouterr().err
        assert err.startswith(f"gridppm: {wide}: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["p cnf -1 0\n", "p cnf 1 -1\n"])
def test_negative_dimacs_count_exits_one(text, files, capsys):
    """``sat`` once reported such a formula satisfiable, and ``reduce``
    died with a ``BoxOverflow`` traceback."""
    cnf = files("neg.cnf", text)
    for command in ("sat", "reduce"):
        assert run([command, "--cnf", cnf]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith(f"gridppm: {cnf}: line 1: ") \
            and err.count("\n") == 1, command


@pytest.mark.parametrize("length", ["0", "-2"])
def test_staircase_without_steps_exits_one(length, capsys):
    assert run(["staircase", "--length", length]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gridppm: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("entry", ["av:1", "av:"])
def test_staircase_rejects_an_av_entry_of_no_point(entry, capsys):
    assert run(["staircase", "--length", "2", "inc", entry]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"gridppm: {entry} holds no point: an av "
                            "pattern needs at least 2 points\n")


def test_staircase_rejects_extra_entries(capsys):
    assert run(["staircase", "--length", "2", "inc", "av:321",
                "dec", "fib+"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gridppm: ")
    assert captured.err.count("\n") == 1


def test_length_is_required(files, capsys):
    m = files("m.json",
              '{"cols":2,"rows":2,"entries":[["dec","inc"],["av:321","dec"]]}')
    for argv in (["richpath", "--matrix", m], ["staircase", "inc", "av:321"]):
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gridppm: ")
        assert "--length" in captured.err
        assert captured.err.count("\n") == 1


def test_sat_roundtrip(files, capsys):
    f = files("f.cnf", "p cnf 2 2\n1 2 0\n-1 0\n")
    assert run(["sat", "--cnf", f]) == 0
    r = report(capsys)
    assert r["satisfiable"] is True
    assert r["assignment"]["1"] is False


def test_sat_takes_any_clause_width(files, capsys):
    f = files("f.cnf", "p cnf 4 1\n1 2 3 4 0\n")
    assert run(["sat", "--cnf", f]) == 0
    assert report(capsys)["satisfiable"] is True
    f = files("g.cnf", "p cnf 1 1\n0\n")
    assert run(["sat", "--cnf", f]) == 0
    assert report(capsys)["satisfiable"] is False


def test_sat_unsat(files, capsys):
    f = files("f.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    assert run(["sat", "--cnf", f]) == 0
    assert report(capsys)["satisfiable"] is False


def test_sat_decides_deep_formulas(files, capsys):
    """1200 free variables mean 1199 decisions in a row: the DPLL keeps
    them on its trail, not on the interpreter's call stack."""
    f = files("f.cnf", "p cnf 1200 1\n1 0\n")
    assert run(["sat", "--cnf", f]) == 0
    r = report(capsys)
    assert r["satisfiable"] is True
    assert len(r["assignment"]) == 1200 and r["assignment"]["1"] is True


def test_reduce_verify_embed_pipeline(files, tmp_path, capsys):
    f = files("f.cnf", "p cnf 2 2\n1 2 0\n-1 2 0\n")
    out = str(tmp_path / "inst")
    assert run(["reduce", "--cnf", f, "--mode", "juxtaposition",
                "--out", out]) == 0
    r = report(capsys)
    assert r["sizes"]["pattern"] <= r["sizes"]["text"]

    assert run(["verify", out]) == 0
    r = report(capsys)
    assert r["report"]["violations"] == []
    assert r["simulate"] is True and r["sat"] is True

    assert run(["embed", out]) == 0
    r = report(capsys)
    assert r["satisfiable"] is True
    assert len(r["embedding"]) == len(set(r["embedding"]))


def test_verify_reports_simulation_disagreeing_with_sat(files, tmp_path,
                                                       capsys, monkeypatch):
    f = files("f.cnf", "p cnf 1 1\n1 0\n")
    out = str(tmp_path / "inst")
    assert run(["reduce", "--cnf", f, "--mode", "gadgets",
                "--out", out]) == 0
    capsys.readouterr()
    monkeypatch.setattr("gridppm.cli.simulate_grid_preserving",
                        lambda inst: (False, None))
    assert run(["verify", out]) == 2
    r = report(capsys)
    assert r["simulate"] is False and r["sat"] is True
    assert "simulation disagrees with SAT oracle" in r["report"]["violations"]


@pytest.mark.parametrize("mode", ["gadgets", "juxtaposition"])
def test_formula_without_clauses(mode, files, tmp_path, capsys):
    """``p cnf 2 0`` reduces, verifies and embeds every pattern point."""
    f = files("f.cnf", "p cnf 2 0\n")
    out = str(tmp_path / "inst")
    assert run(["reduce", "--cnf", f, "--mode", mode, "--out", out]) == 0
    points = report(capsys)["sizes"]["pattern"]

    assert run(["verify", out]) == 0
    r = report(capsys)
    assert r["report"]["violations"] == []
    assert r["simulate"] is True and r["sat"] is True

    assert run(["embed", out]) == 0
    r = report(capsys)
    assert r["satisfiable"] is True
    assert len(set(r["embedding"])) == len(r["embedding"]) == points


@pytest.mark.xfail(strict=True, reason="the 2^20 guard of "
                   "simulate_grid_preserving; ROADMAP item 8 removes "
                   "this mark")
def test_verify_accepts_21_variables(files, tmp_path, capsys):
    """A valid juxtaposition instance of a random 21-variable, 21-clause
    formula verifies."""
    m = 21
    rng = random.Random(20260826 + m)
    lines = [f"p cnf {m} {m}"]
    for _ in range(m):
        vs = rng.sample(range(1, m + 1), 3)
        lines.append(" ".join(str(v if rng.random() < 0.5 else -v)
                              for v in vs) + " 0")
    f = files("f.cnf", "\n".join(lines) + "\n")
    out = str(tmp_path / "inst")
    assert run(["reduce", "--cnf", f, "--mode", "juxtaposition",
                "--out", out]) == 0
    capsys.readouterr()
    assert run(["verify", out]) == 0


@pytest.mark.parametrize("command", ["verify", "embed"])
def test_malformed_instance_json_exits_one(command, files, tmp_path, capsys):
    f = files("f.cnf", "p cnf 1 1\n1 0\n")
    out = tmp_path / "inst"
    assert run(["reduce", "--cnf", f, "--mode", "juxtaposition",
                "--out", str(out)]) == 0
    capsys.readouterr()
    meta = out / "instance.json"
    good = meta.read_text()
    stored = json.loads(good)
    no_formula = {k: v for k, v in json.loads(good).items() if k != "formula"}
    bad_clauses = dict(no_formula, formula={"nvars": 1, "clauses": [1]})
    text_grid = stored["griddings"]["text"]
    cuts = text_grid["col_cuts"]
    moved_cut = dict(stored["griddings"], text=dict(
        text_grid, col_cuts=[cuts[0], cuts[1] + 1] + cuts[2:]))
    bad_fields = [dict(json.loads(good), **kv) for kv in (
        {"formula": {"nvars": 1, "clauses": [[1, 1, 2]]}},   # out of range
        {"formula": {"nvars": 1, "clauses": [[1, 0, 1]]}},
        {"formula": {"nvars": "1", "clauses": [[1, 1, 1]]}},
        {"formula": {"nvars": 1, "clauses": [[1, 1]]}},
        {"mode": "sideways"},
        {"bucket_entry": 5},
        {"bucket_entry": "juxtv:inc,inc"},   # not ``builder.BUCKET_ENTRY``
        # derived fields that differ from the rebuild's
        {"sizes": dict(stored["sizes"], text=stored["sizes"]["text"] + 1)},
        {"layers": stored["layers"][:-1]},
        {"d_used": stored["d_used"] + 1},
        {"path_cells": stored["path_cells"][::-1]},
        {"box_bound": [stored["box_bound"][0] + 1, 1]},
        {"griddings": moved_cut})]
    bad_matrices = [json.dumps(dict(json.loads(good), matrix=json.loads(t)))
                    for t in MALFORMED_MATRICES + UNUSABLE_MATRICES]
    for broken in [good[: len(good) // 2], "[" * 100_000,
                   json.dumps([stored]), "5", "null", '"instance"',
                   json.dumps(no_formula),
                   json.dumps(bad_clauses)] + bad_matrices + [
                       json.dumps(b) for b in bad_fields]:
        meta.write_text(broken)
        assert run([command, str(out)]) == 1, broken
        err = capsys.readouterr().err
        assert err.startswith(f"gridppm: {out}: malformed instance.json: ")
        assert err.count("\n") == 1
    # a tampered gridding, and a field no writer gives, are refused by
    # name, the names the reader parses the formula and matrix into
    # included
    for key, value in [("griddings", moved_cut)] + [
            (key, stored["formula"])
            for key in ("extra", "formula_obj", "matrix_obj")]:
        meta.write_text(json.dumps(dict(stored, **{key: value})))
        assert run([command, str(out)]) == 1, key
        assert capsys.readouterr().err == (
            f"gridppm: {out}: malformed instance.json: fields differ from "
            f"a rebuild: {key}\n")
    meta.write_text(good)
    for name in ("pattern.perm", "text.perm"):
        perm_file = out / name
        kept = perm_file.read_text()
        perm_file.write_text("1 x 2\n")
        assert run([command, str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gridppm: {perm_file}: ")
        assert err.count("\n") == 1
        perm_file.write_text(kept)
    meta.rename(out / "kept.json")
    assert run([command, str(out)]) == 1
    assert capsys.readouterr().err == (
        f"gridppm: cannot read {meta}: No such file or directory\n")


@pytest.mark.parametrize("command", ["verify", "embed"])
@pytest.mark.parametrize("name", ["pattern.perm", "text.perm"])
def test_tampered_stored_file_exits_two(command, name, files, tmp_path,
                                        capsys):
    """A stored permutation that parses but is not the rebuild's, its
    first two ranks swapped, is named."""
    f = files("f.cnf", "p cnf 1 1\n1 0\n")
    out = tmp_path / "inst"
    assert run(["reduce", "--cnf", f, "--mode", "juxtaposition",
                "--out", str(out)]) == 0
    capsys.readouterr()
    path = out / name
    ranks = path.read_text().split()
    ranks[:2] = ranks[1::-1]
    path.write_text(" ".join(ranks) + "\n")
    assert run([command, str(out)]) == 2
    assert capsys.readouterr().err == (
        f"gridppm: validation failure: stored {name} does not match a "
        "deterministic rebuild\n")


def test_repeated_rank_error_is_one_short_line(files, tmp_path, capsys):
    """A malformed permutation is named by its first bad rank, not
    printed whole: a 20,000-point pattern and a tampered text.perm."""
    m = files("m.json", '{"cols":1,"rows":1,"entries":[["inc"]]}')
    p = files("pattern.perm",
              "1 1 " + " ".join(map(str, range(3, 20_001))) + "\n")
    t = files("t.perm", "1 2\n")
    assert run(["match", "--matrix", m, "--pattern", p, "--text", t]) == 1
    err = capsys.readouterr().err
    assert err == (f"gridppm: {p}: not a permutation of 1..20000: "
                   "rank 1 repeats at position 2\n")
    assert len(err.encode()) < 200

    f = files("f.cnf", "p cnf 1 1\n1 0\n")
    out = tmp_path / "inst"
    assert run(["reduce", "--cnf", f, "--mode", "juxtaposition",
                "--out", str(out)]) == 0
    capsys.readouterr()
    text = out / "text.perm"
    ranks = text.read_text().split()
    text.write_text(" ".join([ranks[1]] + ranks[1:]) + "\n")
    assert run(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"gridppm: {text}: not a permutation of ")
    assert err.count("\n") == 1 and len(err.encode()) < 200


def test_embed_unsat_instance(files, tmp_path, capsys):
    f = files("f.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    out = str(tmp_path / "inst")
    assert run(["reduce", "--cnf", f, "--mode", "gadgets",
                "--out", out]) == 0
    capsys.readouterr()
    assert run(["embed", out]) == 0
    r = report(capsys)
    assert r["satisfiable"] is False and r["embedding"] is None


def test_out_flag_writes_file(files, tmp_path, capsys):
    p = files("p.perm", "1\n")
    t = files("t.perm", "1 2\n")
    dest = tmp_path / "r.json"
    assert run(["brute", "--pattern", p, "--text", t,
                "--out", str(dest)]) == 0
    assert json.loads(dest.read_text())["found"] is True


def test_out_report_in_a_missing_directory_exits_one(files, tmp_path,
                                                     capsys):
    f = files("f.cnf", "p cnf 1 1\n1 0\n")
    dest = tmp_path / "missing" / "r.json"
    assert run(["sat", "--cnf", f, "--out", str(dest)]) == 1
    assert capsys.readouterr().err == (
        f"gridppm: cannot write {dest}: No such file or directory\n")


def test_out_report_on_a_directory_exits_one(files, tmp_path, capsys):
    f = files("f.cnf", "p cnf 1 1\n1 0\n")
    out = str(tmp_path / "inst")
    assert run(["reduce", "--cnf", f, "--out", out]) == 0
    capsys.readouterr()
    assert run(["verify", out, "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"gridppm: cannot write {out}: Is a directory\n")


def test_reduce_out_on_a_regular_file_exits_one(files, capsys):
    f = files("f.cnf", "p cnf 1 1\n1 0\n")
    taken = files("taken", "")
    assert run(["reduce", "--cnf", f, "--out", taken]) == 1
    assert capsys.readouterr().err == (
        f"gridppm: cannot write {taken}: File exists\n")


def test_reports_deterministic_modulo_stats(files, tmp_path, capsys):
    """Every subcommand's report names the command and carries its wall
    time under stats.time_ms; two runs agree once that time is dropped.
    reduce, verify and embed share one instance directory."""
    m = files("m.json",
              '{"cols":2,"rows":1,"entries":[["inc","dec"]]}')
    cycle = files("c.json", FIB_CYCLE)
    p = files("p.perm", "1 2\n")
    t = files("t.perm", "1 2 4 3\n")
    f = files("f.cnf", "p cnf 2 2\n1 2 0\n-1 2 0\n")
    inst = str(tmp_path / "inst")
    argvs = [["brute", "--pattern", p, "--text", t],
             ["match", "--matrix", m, "--pattern", p, "--text", t],
             ["gridcheck", "--matrix", m, "--perm", t],
             ["richpath", "--matrix", cycle, "--length", "3"],
             ["staircase", "--length", "3"],
             ["reduce", "--cnf", f, "--mode", "juxtaposition", "--out", inst],
             ["verify", inst], ["embed", inst], ["sat", "--cnf", f]]
    reports = {}
    for argv in argvs:
        runs = []
        for _ in range(2):
            assert run(argv) == 0
            r = report(capsys)
            assert r["command"] == argv[0]
            elapsed = r["stats"].pop("time_ms")
            assert isinstance(elapsed, (int, float)) and elapsed >= 0
            runs.append(r)
        assert runs[0] == runs[1], argv[0]
        reports[argv[0]] = r
    # richpath's D cells are the non-monotone cells of its order, in order
    r = reports["richpath"]
    out = matrix_from_obj(r["matrix"])
    assert r["d_positions"] == [c for c in r["order"]
                                if not is_monotone(out.filled[tuple(c)])]
    assert len(r["d_positions"]) == 3


def test_only_run_reads_the_clock_or_names_the_command():
    """In cli.py only ``run`` uses the ``time`` module, and no ``_cmd_*``
    function writes a "command" key: each report is named and timed in
    one place."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    clocks, named = set(), []
    for stmt in tree.body:
        where = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and \
                    getattr(node.value, "id", None) == "time":
                clocks.add(where)
            if where.startswith("_cmd_") and isinstance(node, ast.Constant) \
                    and node.value == "command":
                named.append(where)
    assert clocks == {"run"}
    assert named == []
