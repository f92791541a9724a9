"""Fuzzed text inputs reach the CLI's exit codes, never a traceback.

Each input runs in-process through ``cli.run``: DIMACS through ``sat``
and ``reduce``, ``.perm`` text through ``brute``, matrix JSON through
``gridcheck``, cycle matrices through ``richpath``, entry strings
through ``staircase``, staircases through ``reduce --matrix`` and on
to ``verify``, and a tampered ``instance.json`` through ``verify``.
Every run must return 0, 1 or 2 and raise nothing.  The inputs stay
small, at most 12 variables (4 for ``reduce``) and at most 8 points,
and the written instance comes from a one-clause formula, so the
searches behind the commands stay cheap.
"""

import contextlib
import io
import itertools
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridppm.cli import run


def _run(command, **texts):
    """Write each text to its own file, pass it as ``--<flag>`` and run
    the command with its report sent to a file."""
    with tempfile.TemporaryDirectory() as d:
        argv = [command]
        for flag, text in texts.items():
            path = os.path.join(d, flag)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv += [f"--{flag}", path]
        return run(argv + ["--out", os.path.join(d, "report.json")])


_DIMACS_LINE = st.one_of(
    st.builds("p cnf {} {}".format, st.integers(-1, 12), st.integers(-1, 6)),
    st.lists(st.integers(-13, 13), max_size=5).map(
        lambda lits: " ".join(map(str, lits))),
    st.sampled_from(["", "c a comment", "p cnf", "p dnf 1 1", "0"]),
    st.text(max_size=10))
DIMACS = st.lists(_DIMACS_LINE, max_size=8).map("\n".join)

PERM_TEXT = st.one_of(
    st.integers(0, 8).flatmap(lambda n: st.permutations(range(1, n + 1)))
    .map(lambda ranks: " ".join(map(str, ranks)) + "\n"),
    st.lists(st.integers(-2, 9), max_size=8).map(
        lambda ranks: " ".join(map(str, ranks))),
    st.text(max_size=12))

_ENTRY = st.one_of(
    st.sampled_from(["empty", "inc", "dec", "fib+", "fib-", "av:21",
                     "av:231", "av:321", "juxth:inc,dec", "juxtv:dec,inc",
                     "av:", "av:11", "av:2x", "juxth:up,down", "juxtv:",
                     "spam", ""]),
    st.text(max_size=6))
_FIELD = st.one_of(st.integers(-1, 3), st.text(max_size=2), st.none())
_MATRIX = st.fixed_dictionaries({
    "cols": _FIELD, "rows": _FIELD,
    "entries": st.one_of(
        st.lists(st.lists(_ENTRY, max_size=3), max_size=3),
        st.lists(st.lists(_FIELD, max_size=2), max_size=2), _FIELD)})
MATRIX_TEXT = st.one_of(
    _MATRIX.map(json.dumps),
    # a matrix whose "entries" match its declared size
    st.integers(1, 3).flatmap(lambda k: st.integers(1, 3).flatmap(
        lambda l: st.lists(st.lists(_ENTRY, min_size=k, max_size=k),
                           min_size=l, max_size=l).map(
            lambda rows: json.dumps({"cols": k, "rows": l,
                                     "entries": rows})))),
    st.text(max_size=20))


@settings(max_examples=150, deadline=None)
@given(DIMACS)
def test_sat_never_raises(text):
    assert _run("sat", cnf=text) in (0, 1, 2)


# at most 4 variables and, as a parsed formula, at most 3 clauses: a
# well-formed file or a soup of lines
_SMALL_LINE = st.one_of(
    st.builds("p cnf {} {}".format, st.integers(-1, 4), st.integers(-1, 3)),
    st.lists(st.integers(-5, 5), max_size=4).map(
        lambda lits: " ".join(map(str, lits))),
    st.sampled_from(["", "c a comment", "0"]))
_SMALL_CNF = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([v for v in range(-n, n + 1) if v]),
             min_size=1, max_size=3), max_size=3).map(
    lambda cls: f"p cnf {n} {len(cls)}\n" + "".join(
        " ".join(map(str, cl + [0])) + "\n" for cl in cls)))
SMALL_DIMACS = st.one_of(_SMALL_CNF,
                         st.lists(_SMALL_LINE, max_size=5).map("\n".join))


@settings(max_examples=40, deadline=None)
@given(SMALL_DIMACS)
@example("p cnf -1 0\n")   # reduce raised BoxOverflow
def test_reduce_never_raises(text):
    """reduce exits 0, 1 or 2, with one line on stderr when it fails."""
    with tempfile.TemporaryDirectory() as d:
        cnf = os.path.join(d, "f.cnf")
        with open(cnf, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = run(["reduce", "--cnf", cnf, "--mode", "juxtaposition",
                        "--out", os.path.join(d, "inst")])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") == (code != 0)


@settings(max_examples=150, deadline=None)
@given(PERM_TEXT, PERM_TEXT)
def test_brute_never_raises(pattern, text):
    assert _run("brute", pattern=pattern, text=text) in (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(MATRIX_TEXT, PERM_TEXT)
@example("[" * 100_000, "1\n")   # json's decoder raised RecursionError
def test_gridcheck_never_raises(matrix, perm_text):
    assert _run("gridcheck", matrix=matrix, perm=perm_text) in (0, 1, 2)


def _run_reporting(argv):
    """Run argv with its report sent to a file: the exit code, the
    stderr text and the report, None unless the exit code is 0."""
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "report.json")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv + ["--out", out])
        if code != 0:
            return code, err.getvalue(), None
        with open(out, encoding="utf-8") as fh:
            return code, err.getvalue(), json.load(fh)


def _assert_path_or_one_line(code, err, rep):
    assert code in (0, 1)
    if code:
        assert err.count("\n") == 1 and err.startswith("gridppm: ")
    else:
        assert rep["shape"] == "ProperTurningPath"


# the cycles of the rich-path construction: a 2x2, the corners of a 3x3,
# and a 6-cycle; each as (cols, rows, cells)
_CYCLES = [(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)]),
           (3, 3, [(1, 1), (1, 3), (3, 1), (3, 3)]),
           (3, 3, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 3)])]
D_ENTRY = st.sampled_from(
    ["fib+", "fib-"]
    + ["av:" + "".join(map(str, s)) for n in range(1, 5)
       for s in itertools.permutations(range(1, n + 1))]
    + ["juxth:inc,inc", "juxth:inc,dec", "juxtv:dec,inc", "juxtv:dec,dec"])


@st.composite
def cycle_matrices(draw):
    """A cycle matrix as JSON: monotone cells and one D entry."""
    k, l, cells = draw(st.sampled_from(_CYCLES))
    d_cell = draw(st.sampled_from(cells))
    rows = [["empty"] * k for _ in range(l)]
    for i, j in cells:
        rows[l - j][i - 1] = (draw(D_ENTRY) if (i, j) == d_cell
                              else draw(st.sampled_from(["inc", "dec"])))
    return json.dumps({"cols": k, "rows": l, "entries": rows})


@settings(max_examples=150, deadline=None)
@given(cycle_matrices(), st.integers(-1, 4))
@example('{"cols": 2, "rows": 2, "entries": [["inc", "dec"], '
         '["av:2413", "inc"]]}', 2)   # refine and the orientation disagreed
def test_richpath_builds_a_path_or_exits_one(matrix, length):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(matrix)
        _assert_path_or_one_line(*_run_reporting(
            ["richpath", "--matrix", path, "--length", str(length)]))


@settings(max_examples=150, deadline=None)
@given(st.lists(D_ENTRY | st.sampled_from(["inc", "dec", "spam"]),
                max_size=3), st.integers(1, 6))
def test_staircase_builds_a_path_or_exits_one(entries, length):
    _assert_path_or_one_line(*_run_reporting(
        ["staircase", "--length", str(length)] + entries))


@st.composite
def d_staircases(draw):
    """The entries and length of a staircase whose D cells hold a D
    entry, and whose C cells hold the same one, a monotone entry or
    another D entry."""
    d = draw(D_ENTRY)
    c = draw(st.sampled_from([d, "inc", "dec"]) | D_ENTRY)
    return c, d, draw(st.integers(6, 12))


@settings(max_examples=30, deadline=None)
@given(d_staircases())
# reduce wrote a text outside its matrix, and verify exited 2
@example(("av:3142", "av:3142", 7))
@example(("av:3142", "av:3142", 8))
def test_reduce_on_a_staircase_writes_what_verify_accepts(staircase):
    """reduce on a staircase of D entries, in juxtaposition mode: either
    it exits 1 with one line, or verify accepts what it wrote."""
    c, d, length = staircase
    code, _, rep = _run_reporting(
        ["staircase", "--length", str(length), c, d])
    if code:
        return
    with tempfile.TemporaryDirectory() as tmp:
        matrix, cnf = os.path.join(tmp, "m.json"), os.path.join(tmp, "f.cnf")
        out = os.path.join(tmp, "inst")
        with open(matrix, "w", encoding="utf-8") as fh:
            json.dump(rep["matrix"], fh)
        with open(cnf, "w", encoding="utf-8") as fh:
            fh.write("p cnf 3 2\n3 2 1 0\n2 1 3 0\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = run(["reduce", "--cnf", cnf, "--mode", "juxtaposition",
                        "--matrix", matrix, "--out", out])
        assert code in (0, 1)
        if code:
            assert err.getvalue().count("\n") == 1
            return
        code, err, rep = _run_reporting(["verify", out])
    assert (code, err) == (0, ""), rep


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A written juxtaposition instance of the formula (1 1 1), and its
    instance.json fields."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "f.cnf").write_text("p cnf 1 1\n1 0\n")
    out = d / "inst"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["reduce", "--cnf", str(d / "f.cnf"), "--mode",
                    "juxtaposition", "--out", str(out)]) == 0
    return out, json.loads((out / "instance.json").read_text())


JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(st.data(), JSON_VALUE)
def test_verify_never_raises_on_a_tampered_field(written, data, value):
    """One top-level field of instance.json replaced by arbitrary JSON:
    verify exits 0, 1 or 2, with one line on stderr when it fails."""
    out, fields = written
    field = data.draw(st.sampled_from(sorted(fields)))
    (out / "instance.json").write_text(
        json.dumps(dict(fields, **{field: value})))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["verify", str(out), "--out", str(out / "report.json")])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") == (code != 0)
