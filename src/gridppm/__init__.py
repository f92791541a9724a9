"""Pattern matching in permutation grid classes.

Library layout:

- ``coords``    exact plane coordinates with symbolic infinitesimals
- ``perm``      permutations, containment, symmetries, the Fibonacci
                class, text format
- ``entries``   the closed vocabulary of cell classes and membership tests
- ``grid``      gridding matrices, path and cycle shapes, orientations,
                assembly, refinements, staircases and rich-path
                construction
- ``matcher``   the polynomial C-PPM solver for monotone gridding matrices
- ``sat``       CNF formulas, DIMACS parsing and a small DPLL oracle
- ``reduction`` the 3-SAT -> C-PPM instance generator and its verifiers
- ``cli``       batch command-line front end
"""

__version__ = "0.1.0"
