"""Batch command line front end.

Every subcommand delegates to one library operation and returns its
JSON report; ``run`` dispatches it, names it under ``command`` and
times it, from reading the inputs to writing any output files, under
``stats.time_ms``.  Exit status: 0 when the question was decided (either
answer), 1 for usage or I/O trouble, 2 when an internal validation check
failed.  Timings live under ``stats`` so golden tests can pin answers
without pinning wall clocks.
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
from .entries import is_monotone, parse_entry
from .matcher import InvalidGridding, NoTextGridding, solve_cppm
from .perm import contains, parse_perm
from .sat import parse_dimacs, solve_sat
from .reduction import (MODES, NotAPath, PathTooShort, ReductionError,
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
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {out_path}: {exc.strerror}")


def _cmd_brute(args):
    pattern = _load(args.pattern, parse_perm)
    text = _load(args.text, parse_perm)
    emb = contains(text, pattern)
    return {"found": emb is not None,
            "embedding": list(emb) if emb is not None else None}


def _cmd_match(args):
    matrix = _load(args.matrix, parse_matrix_json)
    pattern = _load(args.pattern, parse_perm)
    text = _load(args.text, parse_perm)
    stats = {}
    try:
        emb = solve_cppm(pattern, text, matrix, stats=stats)
    except InvalidGridding as exc:
        raise _UsageError(f"{args.matrix}: {exc}")
    return {
        "found": emb is not None,
        "gridding_text": gridding_to_obj(stats["gridding_text"]),
        "gridding_pattern": _gridding_payload(stats.get("gridding_pattern")),
        "embedding": list(emb) if emb is not None else None,
        "stats": {"griddings_tried": stats["griddings_tried"],
                  "clauses": stats["clauses"]},
    }


def _cmd_gridcheck(args):
    matrix = _load(args.matrix, parse_matrix_json)
    p = _load(args.perm, parse_perm)
    g = find_gridding(p, matrix)
    return {"found": g is not None, "gridding": _gridding_payload(g)}


def _cmd_richpath(args):
    matrix = _load(args.matrix, parse_matrix_json)
    try:
        refined = build_rich_path(matrix, args.length)
    except ValueError as exc:
        raise _UsageError(str(exc))
    shape, order = cell_walk(refined)
    return {"matrix": matrix_to_obj(refined), "shape": shape,
            "order": [list(c) for c in order],
            "d_positions": [list(c) for c in order
                            if not is_monotone(refined.filled[c])]}


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
    return {"matrix": matrix_to_obj(m), "shape": cell_walk(m)[0]}


def _cmd_reduce(args):
    formula = _load_cnf(args.cnf)
    matrix = _load(args.matrix, parse_matrix_json) if args.matrix else None
    try:
        inst = reduce_formula(formula, mode=args.mode, matrix=matrix)
    except _MATRIX_ERRORS as exc:
        if matrix is None:
            raise
        raise _UsageError(f"{args.matrix}: {exc}")
    if args.out:
        try:
            write_instance(inst, args.out)
        except OSError as exc:   # a failed write names no file
            raise _UsageError(f"cannot write {exc.filename or args.out}: "
                              f"{exc.strerror}")
    return {"mode": inst.mode, "sizes": dict(inst.sizes),
            "layers": len(inst.layers), "d_used": inst.d_used,
            "out": args.out}


def _rebuild(directory):
    try:
        summary = read_instance_summary(directory)
    except OSError as exc:
        raise _UsageError(f"cannot read {exc.filename}: {exc.strerror}")
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
    inst = _rebuild(args.directory)
    report = validate_instance(inst)
    simulated, _ = simulate_grid_preserving(inst)
    sat = solve_sat(inst.formula)
    agree = simulated == (sat is not None)
    if not agree:
        report["violations"].append("simulation disagrees with SAT oracle")
        report["ok"] = False
    return ({"report": report, "simulate": simulated, "sat": sat is not None},
            0 if report["ok"] else 2)


def _cmd_embed(args):
    inst = _rebuild(args.directory)
    witness = solve_sat(inst.formula)
    if witness is None:
        return {"satisfiable": False, "embedding": None}
    rho = [witness[k] for k in range(1, inst.formula.nvars + 1)]
    emb = embedding_from_assignment(inst, rho)
    return {"satisfiable": True,
            "assignment": {str(k + 1): v for k, v in enumerate(rho)},
            "embedding": list(emb)}


def _cmd_sat(args):
    formula = _load(args.cnf, parse_dimacs)
    witness = solve_sat(formula)
    return {"satisfiable": witness is not None,
            "assignment": None if witness is None else
            {str(k): witness[k] for k in sorted(witness)}}


def build_parser():
    top = _Parser(prog="gridppm", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, cmd, help_, **flags):
        p = sub.add_parser(name, help=help_)
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        p.add_argument("--out", default=None)
        p.set_defaults(cmd=cmd)
        return p

    add("brute", _cmd_brute, "containment by exhaustive search",
        **{"--pattern": {"required": True}, "--text": {"required": True}})
    add("match", _cmd_match, "polynomial C-PPM for a monotone gridding matrix",
        **{"--matrix": {"required": True}, "--pattern": {"required": True},
           "--text": {"required": True}})
    add("gridcheck", _cmd_gridcheck, "find a gridding of a permutation",
        **{"--matrix": {"required": True}, "--perm": {"required": True}})
    add("richpath", _cmd_richpath,
        "refine a cycle matrix into a rich proper-turning path",
        **{"--matrix": {"required": True},
           "--length": {"type": int, "required": True}})
    p = add("staircase", _cmd_staircase, "build a staircase matrix",
            **{"--length": {"type": int, "required": True}})
    p.add_argument("entries", nargs="*",
                   help="cell entries: C then D (default: inc av:321)")
    add("reduce", _cmd_reduce, "compile a 3-CNF formula into a C-PPM instance",
        **{"--cnf": {"required": True},
           "--mode": {"choices": MODES, "default": "gadgets"},
           "--matrix": {"default": None}})
    p = add("verify", _cmd_verify,
            "re-derive and validate a reduce output directory")
    p.add_argument("directory")
    p = add("embed", _cmd_embed,
            "extract a concrete embedding for a satisfiable instance")
    p.add_argument("directory")
    add("sat", _cmd_sat, "desk-scale DPLL oracle",
        **{"--cnf": {"required": True}})
    return top


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        t0 = time.perf_counter()
        result = args.cmd(args)
        report, code = result if isinstance(result, tuple) else (result, 0)
        report["command"] = args.command
        report.setdefault("stats", {})["time_ms"] = \
            (time.perf_counter() - t0) * 1000.0
        _emit(report, args.out if args.command != "reduce" else None)
    except (_UsageError, OSError) as exc:
        sys.stderr.write(f"gridppm: {exc}\n")
        return 1
    except (ReductionError, NoTextGridding) as exc:
        sys.stderr.write(f"gridppm: validation failure: {exc}\n")
        return 2
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
