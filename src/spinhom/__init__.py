"""Strict-partition combinatorics for modular spin representation theory.

Submodules:

* ``partitions``: the tuple-based partition model, predicates, parsing.
* ``ladders``: residues, ladders, regularisation, per-ladder identities.
* ``branching``: addable/removable nodes, signatures, tilde and
  extremal operators, ladder obstructions.
* ``barcores``: bar removal, cores, blocks, regularisation fibres.
* ``dimensions``: exact bar-length dimensions, reduced degrees,
  degree witnesses.
* ``tableaux``: standard shifted tableaux and patterned fillings.
* ``characters``: characters of the symmetric groups by
  Murnaghan-Nakayama.
* ``wreath``: Littlewood-Richardson coefficients and wreath Cartan
  invariants, including ingested decomposition matrices.
* ``families``: the named degree-comparison and chain families.
* ``classify``: the characteristic-3 homogeneity and irreducibility
  classifier with its independent certificate checks.
* ``verify``: the exhaustive small-case verification suites.
"""

from .partitions import Partition, PartitionError, format_partition, parse_partition

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "PartitionError",
    "format_partition",
    "parse_partition",
    "__version__",
]
