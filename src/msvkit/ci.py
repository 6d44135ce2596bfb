"""Complete intersection classification of matrix Schubert varieties.

The variety of a permutation w is a complete intersection iff, for every
diagram cell (p, q) of positive rank r, the r x r block of w just northwest
of the cell is a permutation matrix whose matrix Schubert variety is again a
complete intersection (arXiv 1310.6473).  The second clause never decides a
verdict, so the verdict is the flat block test: no positive-rank diagram cell
has a non-permutation block.  The proof: if the block B at a positive cell
(p, q) of rank r is a permutation matrix, its r entries are all the entries
of w in the upper-left p x q corner.  So the rows above B have their entries
right of column q.  Hence B's diagram cells, with their ranks and blocks, are
exactly w's diagram cells inside B's region, shifted by (p-r-1, q-r-1), and
all of them lie in rows before p.  By induction on n, B is a complete
intersection iff none of those cells has a non-permutation block.  So the
first failing cell in row-major order always fails as
"block-not-permutation".  The certificate recurses into every permutation
block over one cell list: a block's cells are the cells of its region that
come before its own cell in the row-major list, shifted, so a query computes
one diagram.

When the verdict is positive, the defining ideal is generated by the
codimension-many polynomials {x[p,q] at rank-0 diagram cells} plus {det of
the (r+1) x (r+1) block with southeast corner (p, q) at positive-rank cells}.

The classifier does only the work its report needs.  Each block is read
straight from the one-line word of w, and its cells from w's cell list.  The
generator determinants are expanded only when ``CIReport.generators`` is
read, and never stored, so a report holds no polynomial and nothing is kept
between queries.

A necessary condition checked separately: every positive-rank diagram cell
must be essential (no diagram cell due east or due south of it).  It is not
sufficient: 352614 satisfies it and still fails the block test at (4, 4).

``minimal_generator_count`` is the independent oracle: the minimal number of
generators of the defining ideal, computed degree by degree as the dimension
of I/mI (graded Nakayama).  Each Fulton generator of degree d is reduced to
its normal form against a Groebner basis of the generators of lower degree,
and the normal forms are ranked by exact linear algebra; nothing of the
block criterion is used.  A complete intersection is exactly the case where
this count equals the codimension |D(w)|.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

from .perm import Cell, PartialPermutation, diagram, extend_to_permutation
from .poly import Polynomial, PolyRing, minor
from .detideal import fulton_generators


class NecessaryViolation(NamedTuple):
    """A positive-rank diagram cell that is not essential, together with the
    diagram cell due east or due south of it that blocks essentialness."""

    cell: Cell
    neighbor: Cell


class NecessaryConditionReport(NamedTuple):
    ok: bool
    violations: tuple


def necessary_condition(w: PartialPermutation) -> NecessaryConditionReport:
    """Check that every positive-rank diagram cell is essential.  A failure
    rules out the complete intersection property; passing does not establish
    it (352614 passes and is still not a complete intersection).

    >>> necessary_condition(PartialPermutation.from_one_line("462153")).ok
    True
    >>> necessary_condition(PartialPermutation.from_one_line("361452")).violations[0]
    NecessaryViolation(cell=Cell(p=2, q=4), neighbor=Cell(p=2, q=5))
    """
    d = diagram(w)
    # row-major cells, east before south: the violations come out sorted
    violations = tuple(NecessaryViolation(cell, neighbor) for cell, r in d.items() if r
                       for neighbor in (Cell(cell.p, cell.q + 1), Cell(cell.p + 1, cell.q))
                       if neighbor in d)
    return NecessaryConditionReport(not violations, violations)


@dataclass(frozen=True)
class Witness:
    """Why a permutation fails the classification, anchored at a cell."""

    cell: Cell
    detail: str
    kind = "block-not-permutation"  # the only way to fail; see the module docstring

    def to_json(self) -> dict:
        return {"cell": list(self.cell), "kind": self.kind, "detail": self.detail}


@dataclass(frozen=True)
class CertificateNode:
    """One positive-rank diagram cell of the recursion certificate."""

    cell: Cell
    rank: int
    is_permutation: bool
    child: Optional["CIReport"]

    def to_json(self) -> dict:
        return {
            "cell": list(self.cell),
            "rank": self.rank,
            "is_permutation": self.is_permutation,
            "child": self.child.to_json() if self.child is not None else None,
        }


@dataclass(frozen=True)
class CIReport:
    """Verdict, codimension, recursion certificate, and (for a positive
    verdict) the explicit codimension-many generator list.

    ``generators`` is computed on each read, so a report never holds a
    polynomial; read it once and keep the tuple when it is needed twice."""

    w: tuple[int, ...]
    verdict: bool
    codim: int
    certificate: tuple
    failure_witness: Optional[Witness]
    mu: Optional[int] = None

    @property
    def generators(self) -> Optional[tuple]:
        """The codimension-many generators for a positive verdict, else None:
        variables at rank-0 diagram cells and block determinants at
        positive-rank cells, in row-major cell order, in ``PolyRing(n, n)``."""
        if not self.verdict:
            return None
        n = len(self.w)
        return _ci_generator_tuple(PartialPermutation(n, n, self.w))

    def to_json(self) -> dict:
        generators = self.generators
        return {
            "w": PartialPermutation.from_one_line(self.w).to_json(),
            "verdict": self.verdict,
            "codim": self.codim,
            "mu": self.mu,
            "generators": ([str(g) for g in generators]
                           if generators is not None else None),
            "witness": (self.failure_witness.to_json()
                        if self.failure_witness is not None else None),
            "certificate": [node.to_json() for node in self.certificate],
        }


def is_complete_intersection(w: PartialPermutation, *, with_oracle: bool = False,
                             char: int = 0) -> CIReport:
    """Classify the matrix Schubert variety of ``w``.

    Partial permutations are first extended to a full permutation (the two
    varieties differ by a product with an affine space, which preserves the
    property).  ``with_oracle`` additionally runs the independent minimal
    generator count and stores it in ``mu``.

    >>> is_complete_intersection(PartialPermutation.from_one_line("462153")).verdict
    True
    >>> is_complete_intersection(PartialPermutation.from_one_line("361452")).failure_witness.cell
    Cell(p=2, q=5)
    """
    if not w.is_permutation:
        w = extend_to_permutation(w)
    report = _report(w.one_line(), list(diagram(w).items()))
    if with_oracle:
        report = replace(report, mu=minimal_generator_count(w, char=char))
    return report


def _report(word: tuple[int, ...], cells: list[tuple[Cell, int]]) -> CIReport:
    """The report of the permutation ``word`` whose row-major diagram cells,
    with their ranks, are ``cells``."""
    nodes = []
    witness: Optional[Witness] = None
    for index, (cell, r) in enumerate(cells):
        if not r:
            continue
        p, q = cell
        # The r x r block on rows p-r..p-1 and columns q-r..q-1 (inside the
        # grid, since w(p) > q and w^-1(q) > p) is a permutation matrix iff
        # all r of its rows have their value in its columns.
        top, left = p - r - 1, q - r - 1
        block = tuple(v - left for v in word[top:p - 1] if left < v < q)
        child = None
        if len(block) == r:
            # its cells are the earlier cells of its region, shifted; row p
            # has none there, since the block's columns have their 1s above it
            child = _report(block, [(Cell(c.p - top, c.q - left), s)
                                    for c, s in cells[:index]
                                    if c.p > top and left < c.q < q])
        elif witness is None:
            witness = Witness(cell, f"the {r}x{r} block on rows {p - r}..{p - 1} and columns "
                                    f"{q - r}..{q - 1} is not a permutation matrix")
        nodes.append(CertificateNode(cell, r, child is not None, child))
    return CIReport(w=word, verdict=witness is None, codim=len(cells),
                    certificate=tuple(nodes), failure_witness=witness)


def _ci_generator_tuple(w: PartialPermutation) -> tuple:
    ring = PolyRing(w.rows, w.cols)
    gens: list[Polynomial] = []
    for cell, r in diagram(w).items():
        if r == 0:
            gens.append(ring.variable(cell.p, cell.q))
        else:
            gens.append(minor(ring, range(cell.p - r, cell.p + 1),
                              range(cell.q - r, cell.q + 1)))
    return tuple(gens)


def minimal_generator_count(w: PartialPermutation, *, char: int = 0) -> int:
    """Minimal number of generators of the Schubert determinantal ideal,
    computed as the dimension of I/mI degree by degree (normal forms against
    the lower-degree generators, then exact ranks).  Defaults to
    exact rational arithmetic; a prime ``char`` selects the prime-field fast
    path."""
    return len(fulton_generators(w, PolyRing(w.rows, w.cols, char)).generators)
