"""msvkit: exact computations with matrix Schubert varieties.

Partial permutations and their diagram combinatorics (``perm``), exact sparse
polynomial arithmetic over a ring that owns its coefficient field and its
antidiagonal term order (``poly``), Schubert determinantal ideals with
Groebner verification of their antidiagonal initial ideals (``detideal``),
the recursive complete intersection classifier with an independent
minimal-generator-count oracle (``ci``), pivot-localization verification
(``frlab``), and a command-line front end (``cli``).

The package root holds these modules (all but ``cli``, which the console
script imports) and ``PartialPermutation``; every other name is imported from
its module, as in ``from msvkit.ci import is_complete_intersection``.
"""

from . import ci, detideal, frlab, perm, poly
from .perm import PartialPermutation

__version__ = "0.1.0"
