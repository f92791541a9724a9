"""Answer checks that share no code with the library.

Every answer the benchmark receives is judged here: embeddings by
recomputing the pattern they induce, non-containment by a monotone
subsequence bound.  Nothing in this module imports ``gridppm``, so a
defect in the library's own witness checks cannot hide a wrong answer.
"""

import bisect


def standardize(values):
    """Ranks 1..n of distinct values, in their given order."""
    rank = {v: r for r, v in enumerate(sorted(values), start=1)}
    return tuple(rank[v] for v in values)


def embeds_as(text, pattern, embedding):
    """True when ``embedding`` (0-based, strictly increasing text
    positions, one per pattern position) induces exactly ``pattern``."""
    text, pattern, emb = tuple(text), tuple(pattern), tuple(embedding)
    if len(emb) != len(pattern):
        return False
    if any(b <= a for a, b in zip(emb, emb[1:])):
        return False
    if emb and not (0 <= emb[0] and emb[-1] < len(text)):
        return False
    return standardize([text[q] for q in emb]) == pattern


def longest_increasing(values):
    """Length of a longest increasing subsequence (patience sorting)."""
    tails = []
    for v in values:
        i = bisect.bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    return len(tails)


def longest_decreasing(values):
    return longest_increasing([-v for v in values])


def cannot_embed(text, pattern):
    """True when a monotone subsequence bound proves that ``pattern`` is
    not contained in ``text``: an embedding carries every increasing or
    decreasing subsequence of the pattern into the text."""
    return (longest_increasing(pattern) > longest_increasing(text)
            or longest_decreasing(pattern) > longest_decreasing(text))


def match_ok(expect_found, text, pattern, embedding):
    """Judge one ``solve_cppm`` answer.  Positives must return a witness
    that induces the pattern; negatives (certified by ``cannot_embed``
    when generated) must return None."""
    if not expect_found:
        return embedding is None
    return embedding is not None and embeds_as(text, pattern, embedding)


def verify_ok(expect_sat, text, pattern, outcome):
    """Judge one replay of ``verify`` plus ``embed``.  ``outcome`` holds
    the rebuild comparison, the validation verdict, the simulated and
    oracle verdicts and, for a satisfiable formula, the embedding."""
    if not (outcome["rebuild_matches"] and outcome["valid"]):
        return False
    if outcome["simulated"] != expect_sat or outcome["sat"] != expect_sat:
        return False
    if not expect_sat:
        return outcome["embedding"] is None
    return (outcome["embedding"] is not None
            and embeds_as(text, pattern, outcome["embedding"]))


def parse_ranks(line):
    """A one-line permutation file, read without the library."""
    return tuple(int(f) for f in line.split())
