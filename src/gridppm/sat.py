"""CNF formulas, DIMACS ingestion and a desk-scale SAT oracle.

``CNFFormula`` is the one formula type: the reduction builds on it too.
The oracle is a plain DPLL with unit propagation, iterative so that no
formula size can exhaust the interpreter stack; every witness is
re-checked by evaluation before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class ParseError(ValueError):
    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class CNFFormula:
    nvars: int
    clauses: Tuple[Tuple[int, ...], ...]  # signed 1-based literals

    def __post_init__(self) -> None:
        if self.nvars < 0:
            raise ValueError(f"negative variable count {self.nvars}")
        for cl in self.clauses:
            for lit in cl:
                if lit == 0 or abs(lit) > self.nvars:
                    raise ValueError(f"literal {lit} out of range")

    def evaluates(self, assignment: Sequence[bool]) -> bool:
        """Whether the truth values of variables 1..nvars, in order,
        satisfy every clause."""
        return all(any((lit > 0) == assignment[abs(lit) - 1] for lit in cl)
                   for cl in self.clauses)


class InvalidModel(RuntimeError):
    """The solver produced an assignment that falsifies the formula."""


Assignment = Dict[int, bool]


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
            if nvars < 0 or nclauses < 0:
                raise ParseError(lineno, f"negative count in {line!r}")
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


def solve_sat(f: CNFFormula) -> Optional[Assignment]:
    """DPLL with unit propagation, iterative rather than recursive.

    Before each decision, unit propagation runs to a fixpoint.  A
    decision sets the lowest free variable, True before False.  On a
    conflict the search backs up to the last decision still set to
    True, undoes everything assigned from it on and sets it False."""
    assign: Dict[int, bool] = {}   # insertion order is the trail
    decisions: List[Tuple[int, int]] = []   # (assigned before it, var)

    def propagate() -> bool:
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
                    return False
                if len(unassigned) == 1:
                    lit = unassigned[0]
                    assign[abs(lit)] = lit > 0
                    changed = True
        return True

    while True:
        if propagate():
            v = next((v for v in range(1, f.nvars + 1) if v not in assign),
                     None)
            if v is None:
                break
            decisions.append((len(assign), v))
            assign[v] = True
            continue
        while decisions and not assign[decisions[-1][1]]:
            decisions.pop()      # both values of this decision failed
        if not decisions:
            return None
        mark, v = decisions[-1]
        while len(assign) > mark:
            assign.popitem()
        assign[v] = False

    rho = [assign[v] for v in range(1, f.nvars + 1)]
    if not f.evaluates(rho):
        raise InvalidModel("DPLL produced a non-satisfying witness")
    return {v: val for v, val in enumerate(rho, start=1)}
