"""DIMACS parsing and the DPLL oracle."""

import hashlib
import itertools
import random

import pytest

from gridppm.sat import CNFFormula, ParseError, parse_dimacs, solve_sat

from test_acceptance import _exhaustive_corpus, _random_formulas


def format_dimacs(f):
    """The DIMACS text of a formula, the inverse of ``parse_dimacs``."""
    lines = [f"p cnf {f.nvars} {len(f.clauses)}"]
    for cl in f.clauses:
        lines.append(" ".join(map(str, cl)) + " 0")
    return "\n".join(lines) + "\n"


def truth_table_sat(f):
    for bits in itertools.product([False, True], repeat=f.nvars):
        if f.evaluates(bits):
            return bits
    return None


def test_parse_simple():
    f = parse_dimacs("p cnf 1 1\n1 0\n")
    assert f.nvars == 1 and f.clauses == ((1,),)


def test_parse_comments_and_multiline_clauses():
    f = parse_dimacs("c hello\np cnf 3 2\n1 -2\n3 0\n-1 2 -3 0\n")
    assert f.clauses == ((1, -2, 3), (-1, 2, -3))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\n1\n")  # missing terminator
    with pytest.raises(ParseError):
        parse_dimacs("1 0\n")  # clause before header
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\n2 0\n")  # out of range
    with pytest.raises(ParseError) as err:
        parse_dimacs("p cnf 1 1\nx 0\n")
    assert err.value.line == 2
    for text in ("c\np cnf -1 0\n", "c\np cnf 1 -1\n"):   # negative counts
        with pytest.raises(ParseError) as err:
            parse_dimacs(text)
        assert err.value.line == 2
    with pytest.raises(ValueError):
        CNFFormula(-1, ())


def roundtrip_corpus():
    """30 seeded formulas; a clause may repeat a variable."""
    rng = random.Random(0)
    out = []
    for _ in range(30):
        n = rng.randint(1, 5)
        clauses = tuple(
            tuple(rng.choice([-1, 1]) * rng.randint(1, n)
                  for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 6)))
        out.append(CNFFormula(n, clauses))
    return out


def truth_table_corpus():
    """150 seeded formulas on at most four variables."""
    rng = random.Random(42)
    out = []
    for _ in range(150):
        n = rng.randint(1, 4)
        clauses = tuple(
            tuple(rng.choice([-1, 1]) * v
                  for v in rng.sample(range(1, n + 1),
                                      rng.randint(1, min(3, n))))
            for _ in range(rng.randint(0, 8)))
        out.append(CNFFormula(n, clauses))
    return out


def pipeline_corpus():
    """The formulas of ``test_pipeline_agrees_with_sat_oracle``."""
    return _exhaustive_corpus() + _random_formulas(50, random.Random(4004))


def test_roundtrip():
    for f in roundtrip_corpus():
        assert parse_dimacs(format_dimacs(f)) == f


def test_solve_basics():
    assert solve_sat(parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")) is None
    rho = solve_sat(parse_dimacs("p cnf 2 1\n1 2 0\n"))
    assert rho is not None and (rho[1] or rho[2])
    assert solve_sat(CNFFormula(0, ())) == {}


def test_solve_agrees_with_truth_tables():
    for f in truth_table_corpus():
        got = solve_sat(f)
        want = truth_table_sat(f)
        assert (got is None) == (want is None)
        if got is not None:
            assert f.evaluates([got[v] for v in range(1, f.nvars + 1)])


# The first 16 hex digits of the sha256 of each witness, as
# ``repr(sorted(model.items()))``, or of "None", in corpus order.  The
# solver's decisions (propagation to a fixpoint, then the lowest free
# variable, True first) fix every witness; a change to them shows here.
WITNESS_PINS = {
    "roundtrip": """
        0337732fad63d1a3 77268169f02b977d dcb82051503eedc9 dc937b59892604f5
        dc937b59892604f5 2ebf5373d1da337c 20c5d6a2e088c628 dcf8cb363a29f60b
        87a6b3ca987615e4 ea57933b927396c8 dc937b59892604f5 6f8f7099146371c1
        9b81734bfd669b0e df9cb520eb3c3995 df9cb520eb3c3995 dc937b59892604f5
        47309c455b047355 dc937b59892604f5 c037f2b4ebd61de1 dc937b59892604f5
        030beb45f8081c6e dc937b59892604f5 c037f2b4ebd61de1 f59f592151df7a22
        05cd2c18e91e79a7 f59f592151df7a22 9b81734bfd669b0e c037f2b4ebd61de1
        030beb45f8081c6e 030beb45f8081c6e
    """.split(),
    "truth_tables": """
        c037f2b4ebd61de1 9b81734bfd669b0e dc937b59892604f5 030beb45f8081c6e
        2ebf5373d1da337c dc937b59892604f5 2ebf5373d1da337c 026b089c8051e35e
        2ebf5373d1da337c 47309c455b047355 dc937b59892604f5 dc937b59892604f5
        dc937b59892604f5 dc937b59892604f5 c037f2b4ebd61de1 dc937b59892604f5
        8136a1a26073583f dcf8cb363a29f60b 6f8f7099146371c1 dc937b59892604f5
        d799a6ae4e263ab3 030beb45f8081c6e dc937b59892604f5 dc937b59892604f5
        dc937b59892604f5 c037f2b4ebd61de1 9b81734bfd669b0e 0337732fad63d1a3
        030beb45f8081c6e 2ebf5373d1da337c 20c5d6a2e088c628 ea57933b927396c8
        2ebf5373d1da337c 6f8f7099146371c1 2ebf5373d1da337c dc937b59892604f5
        df9cb520eb3c3995 0337732fad63d1a3 47309c455b047355 56f680344fd53824
        80936dc7d285494e dc937b59892604f5 dc937b59892604f5 026b089c8051e35e
        030beb45f8081c6e 0337732fad63d1a3 2ebf5373d1da337c 030beb45f8081c6e
        030beb45f8081c6e dc937b59892604f5 56f680344fd53824 dc937b59892604f5
        dc937b59892604f5 030beb45f8081c6e c037f2b4ebd61de1 56f680344fd53824
        dc937b59892604f5 2ebf5373d1da337c dc937b59892604f5 9b81734bfd669b0e
        c037f2b4ebd61de1 dc937b59892604f5 0337732fad63d1a3 2ebf5373d1da337c
        dc937b59892604f5 dc937b59892604f5 0337732fad63d1a3 dc937b59892604f5
        1ec0dc5aab758a9a dc937b59892604f5 dc937b59892604f5 dc937b59892604f5
        47309c455b047355 56f680344fd53824 030beb45f8081c6e dc937b59892604f5
        2ebf5373d1da337c c037f2b4ebd61de1 56f680344fd53824 dc937b59892604f5
        030beb45f8081c6e dc937b59892604f5 d799a6ae4e263ab3 dcb82051503eedc9
        0337732fad63d1a3 dc937b59892604f5 0337732fad63d1a3 0337732fad63d1a3
        dc937b59892604f5 030beb45f8081c6e c037f2b4ebd61de1 dc937b59892604f5
        0337732fad63d1a3 47309c455b047355 dc937b59892604f5 77268169f02b977d
        030beb45f8081c6e 030beb45f8081c6e 030beb45f8081c6e dc937b59892604f5
        dcb82051503eedc9 dc937b59892604f5 dc937b59892604f5 caab3124e404f58e
        8136a1a26073583f 2ebf5373d1da337c dc937b59892604f5 0337732fad63d1a3
        dc937b59892604f5 8136a1a26073583f 47309c455b047355 c037f2b4ebd61de1
        0337732fad63d1a3 dc937b59892604f5 d799a6ae4e263ab3 dc937b59892604f5
        dc937b59892604f5 c037f2b4ebd61de1 dc937b59892604f5 0337732fad63d1a3
        9b81734bfd669b0e 030beb45f8081c6e caab3124e404f58e 030beb45f8081c6e
        99852f824c8f30d8 6f8f7099146371c1 dc937b59892604f5 dcb82051503eedc9
        2ebf5373d1da337c 2ebf5373d1da337c d799a6ae4e263ab3 dc937b59892604f5
        dc937b59892604f5 80936dc7d285494e fa77ee89a5955d7b dc937b59892604f5
        030beb45f8081c6e dc937b59892604f5 df9cb520eb3c3995 dc937b59892604f5
        dc937b59892604f5 6f8f7099146371c1 dc937b59892604f5 dc937b59892604f5
        dc937b59892604f5 2ebf5373d1da337c cd22b0e2d7ae1785 dc937b59892604f5
        df9cb520eb3c3995 2ebf5373d1da337c
    """.split(),
    "pipeline": """
        2ebf5373d1da337c 2ebf5373d1da337c 2ebf5373d1da337c 87a6b3ca987615e4
        2ebf5373d1da337c 2ebf5373d1da337c 87a6b3ca987615e4 2ebf5373d1da337c
        2ebf5373d1da337c 2ebf5373d1da337c 87a6b3ca987615e4 2ebf5373d1da337c
        87a6b3ca987615e4 2ebf5373d1da337c 2ebf5373d1da337c 2ebf5373d1da337c
        87a6b3ca987615e4 2ebf5373d1da337c 87a6b3ca987615e4 2ebf5373d1da337c
        2ebf5373d1da337c 2ebf5373d1da337c 87a6b3ca987615e4 2ebf5373d1da337c
        2ebf5373d1da337c 87a6b3ca987615e4 6f8f7099146371c1 2ebf5373d1da337c
        87a6b3ca987615e4 189760cf668d8366 2ebf5373d1da337c f59f592151df7a22
        2ebf5373d1da337c 3cdd4c473badd93c 2ebf5373d1da337c 0337732fad63d1a3
        0337732fad63d1a3 2ebf5373d1da337c 0337732fad63d1a3 3cdd4c473badd93c
        f59f592151df7a22 8b440884faadcbb1 3cdd4c473badd93c f59f592151df7a22
        2ebf5373d1da337c 2ebf5373d1da337c 0337732fad63d1a3 0337732fad63d1a3
        f59f592151df7a22 735d045f9da5f2a9 40e9958eeac8d795 f59f592151df7a22
        f59f592151df7a22 e433621655b0fa49 2ebf5373d1da337c f59f592151df7a22
        0337732fad63d1a3 8b440884faadcbb1 f59f592151df7a22 2ebf5373d1da337c
        f59f592151df7a22 e433621655b0fa49 2ebf5373d1da337c bdaf04ba429de399
        2ebf5373d1da337c 56f680344fd53824 f59f592151df7a22 f59f592151df7a22
        2ebf5373d1da337c f59f592151df7a22 20c5d6a2e088c628 0337732fad63d1a3
        bdaf04ba429de399 2ebf5373d1da337c 0337732fad63d1a3 56f680344fd53824
        f59f592151df7a22 2ebf5373d1da337c 0337732fad63d1a3
    """.split(),
}


def _witness_digest(model):
    text = "None" if model is None else repr(sorted(model.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name,corpus", [
    ("roundtrip", roundtrip_corpus), ("truth_tables", truth_table_corpus),
    ("pipeline", pipeline_corpus)])
def test_witnesses_are_pinned(name, corpus):
    got = [_witness_digest(solve_sat(CNFFormula(f.nvars, f.clauses)))
           for f in corpus()]
    assert got == WITNESS_PINS[name]
