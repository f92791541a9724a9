"""Hardness construction: 3-CNF formulas to grid pattern-matching
instances on proper-turning paths with recurring rich entries."""

from .builder import (ReductionError, EmptyClause, ClauseTooWide,
                      PathTooShort, TooManyVariables, NotAPath,
                      UnusableMatrix, normalize_3cnf, PathSpec,
                      make_path_spec, LayerPlan, ReductionInstance,
                      plan_layers, default_path, reduce_formula,
                      default_matrix, MODES)
from .checks import (validate_instance, simulate_grid_preserving,
                     embedding_from_assignment)
from .io import (write_instance, read_instance_summary, rebuild_instance,
                 check_stored)

__all__ = [
    "ReductionError", "EmptyClause", "ClauseTooWide", "PathTooShort",
    "TooManyVariables", "NotAPath", "UnusableMatrix",
    "normalize_3cnf", "PathSpec", "make_path_spec",
    "LayerPlan", "ReductionInstance", "plan_layers", "default_path",
    "reduce_formula", "default_matrix", "MODES",
    "validate_instance", "simulate_grid_preserving",
    "embedding_from_assignment", "write_instance",
    "read_instance_summary", "rebuild_instance", "check_stored",
]
