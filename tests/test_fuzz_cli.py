"""Fuzzed text inputs reach the CLI's exit codes, never a traceback.

Each input runs in-process through ``cli.run``: DIMACS through ``sat``,
``.perm`` text through ``brute`` and matrix JSON through ``gridcheck``.
Every run must return 0, 1 or 2 and raise nothing.  The inputs stay
small, at most 12 variables and at most 8 points, so the searches
behind the commands stay cheap.
"""

import json
import os
import tempfile

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


@settings(max_examples=150, deadline=None)
@given(PERM_TEXT, PERM_TEXT)
def test_brute_never_raises(pattern, text):
    assert _run("brute", pattern=pattern, text=text) in (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(MATRIX_TEXT, PERM_TEXT)
@example("[" * 100_000, "1\n")   # json's decoder raised RecursionError
def test_gridcheck_never_raises(matrix, perm_text):
    assert _run("gridcheck", matrix=matrix, perm=perm_text) in (0, 1, 2)
