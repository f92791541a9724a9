"""CNF ingestion and a desk-scale SAT oracle.

Plain DPLL with unit propagation; every witness is re-checked by
evaluation before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class ParseError(ValueError):
    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class CNFFormula:
    nvars: int
    clauses: Tuple[Tuple[int, ...], ...]  # signed 1-based literals

    def __post_init__(self) -> None:
        for cl in self.clauses:
            for lit in cl:
                if lit == 0 or abs(lit) > self.nvars:
                    raise ValueError(f"literal {lit} out of range")


class InvalidModel(RuntimeError):
    """The solver produced an assignment that falsifies the formula."""


Assignment = Dict[int, bool]


def evaluates(f: CNFFormula, rho: Assignment) -> bool:
    return all(any(rho[abs(l)] == (l > 0) for l in cl) for cl in f.clauses)


def parse_dimacs(text: str) -> CNFFormula:
    nvars = None
    nclauses = None
    clauses: List[Tuple[int, ...]] = []
    current: List[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if nvars is not None:
                raise ParseError(lineno, "duplicate problem line")
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ParseError(lineno, f"malformed problem line {line!r}")
            try:
                nvars, nclauses = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(lineno, "non-numeric problem line") from None
            continue
        if nvars is None:
            raise ParseError(lineno, "clause before the problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(lineno, f"bad token {tok!r}") from None
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > nvars:
                    raise ParseError(lineno, f"literal {lit} out of range")
                current.append(lit)
    if nvars is None:
        raise ParseError(0, "missing problem line")
    if current:
        raise ParseError(lineno, "clause not terminated by 0")
    if nclauses is not None and len(clauses) != nclauses:
        raise ParseError(lineno, f"declared {nclauses} clauses, "
                                 f"found {len(clauses)}")
    return CNFFormula(nvars, tuple(clauses))


def format_dimacs(f: CNFFormula) -> str:
    lines = [f"p cnf {f.nvars} {len(f.clauses)}"]
    for cl in f.clauses:
        lines.append(" ".join(map(str, cl)) + " 0")
    return "\n".join(lines) + "\n"


def solve_sat(f: CNFFormula) -> Optional[Assignment]:
    """DPLL with unit propagation."""

    def propagate(assign: Dict[int, bool]) -> Optional[Dict[int, bool]]:
        assign = dict(assign)
        changed = True
        while changed:
            changed = False
            for cl in f.clauses:
                unassigned = []
                satisfied = False
                for lit in cl:
                    v = assign.get(abs(lit))
                    if v is None:
                        unassigned.append(lit)
                    elif v == (lit > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not unassigned:
                    return None
                if len(unassigned) == 1:
                    lit = unassigned[0]
                    assign[abs(lit)] = lit > 0
                    changed = True
        return assign

    def search(assign: Dict[int, bool]) -> Optional[Dict[int, bool]]:
        assign = propagate(assign)
        if assign is None:
            return None
        free = [v for v in range(1, f.nvars + 1) if v not in assign]
        if not free:
            return assign
        v = free[0]
        for val in (True, False):
            out = search({**assign, v: val})
            if out is not None:
                return out
        return None

    model = search({})
    if model is None:
        return None
    rho = {v: model.get(v, False) for v in range(1, f.nvars + 1)}
    if not evaluates(f, rho):
        raise InvalidModel("DPLL produced a non-satisfying witness")
    return rho
