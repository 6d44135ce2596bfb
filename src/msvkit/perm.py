"""Combinatorics of partial permutation matrices on a 1-based grid.

A partial permutation is an l-by-m matrix of 0s and 1s with at most one 1 in
each row and each column; it is a (full) permutation when l = m and every row
is assigned.  This module provides the grid combinatorics that drive the rest
of the package: rank functions of upper-left submatrices, the diagram with its
rank labels, essential sets, Coxeter length, extension of a partial
permutation to a full one, the row/column deletion used by the localization
routines, and square-block extraction.

Coordinates are 1-based throughout: ``Cell(p, q)`` is row ``p``, column ``q``,
and ``w(i)`` denotes the column of the 1 in row ``i`` (if any).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


class PermutationParseError(ValueError):
    """Raised on malformed permutation input; carries the offending position."""

    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message)
        self.position = position


class Cell(NamedTuple):
    """A grid cell (row p, column q), both 1-based.

    Cells sort row-major, which is the canonical cell order used for all
    deterministic enumerations in the package.
    """

    p: int
    q: int


@dataclass(frozen=True)
class PartialPermutation:
    """An l-by-m 0/1 matrix with at most one 1 per row and per column.

    ``assignment[i-1]`` is the column of the 1 in row ``i``, or ``None``.

    >>> w = PartialPermutation.from_one_line("35142")
    >>> w(1), w(3)
    (3, 1)
    >>> w.is_permutation
    True
    """

    rows: int
    cols: int
    assignment: tuple[Optional[int], ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")
        if len(self.assignment) != self.rows:
            raise ValueError("assignment length must equal the number of rows")
        seen: set[int] = set()
        for i, j in enumerate(self.assignment, start=1):
            if j is None:
                continue
            if not 1 <= j <= self.cols:
                raise ValueError(f"row {i} assigned to column {j} outside [1, {self.cols}]")
            if j in seen:
                raise ValueError(f"column {j} assigned twice")
            seen.add(j)

    @classmethod
    def from_one_line(cls, word: str | Iterable[int]) -> "PartialPermutation":
        """Build a full permutation from one-line notation.

        Accepts a digit string for n <= 9 ("35142"), a whitespace- or
        comma-separated string of integers, or any iterable of integers.

        >>> PartialPermutation.from_one_line("35142").one_line()
        (3, 5, 1, 4, 2)
        """
        if isinstance(word, str):
            values = _parse_one_line_text(word)
        else:
            values = tuple(int(v) for v in word)
        n = len(values)
        if n == 0:
            raise PermutationParseError("empty permutation")
        seen: set[int] = set()
        for pos, v in enumerate(values, start=1):
            if not 1 <= v <= n:
                raise PermutationParseError(
                    f"value {v} at position {pos} outside [1, {n}]", position=pos)
            if v in seen:
                raise PermutationParseError(
                    f"repeated value {v} at position {pos}", position=pos)
            seen.add(v)
        return cls(n, n, values)

    @classmethod
    def from_assignment(cls, rows: int, cols: int,
                        mapping: dict[int, int]) -> "PartialPermutation":
        """Build from a partial map row -> column (1-based)."""
        return cls(rows, cols, tuple(mapping.get(i) for i in range(1, rows + 1)))

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[int]]) -> "PartialPermutation":
        """Build from a dense 0/1 matrix (list of rows)."""
        rows = len(matrix)
        if rows == 0:
            raise ValueError("empty matrix")
        cols = len(matrix[0])
        assignment: list[Optional[int]] = []
        for i, row in enumerate(matrix, start=1):
            if len(row) != cols:
                raise ValueError(f"ragged matrix at row {i}")
            bad = [j for j, entry in enumerate(row, start=1) if entry not in (0, 1)]
            if bad:
                raise ValueError(f"entry at ({i},{bad[0]}) is not 0 or 1")
            ones = [j for j, entry in enumerate(row, start=1) if entry == 1]
            if len(ones) > 1:
                raise ValueError(f"row {i} has more than one 1")
            assignment.append(ones[0] if ones else None)
        return cls(rows, cols, tuple(assignment))

    def __call__(self, i: int) -> Optional[int]:
        """The column assigned to row ``i``, or None."""
        if not 1 <= i <= self.rows:
            raise ValueError(f"row {i} outside [1, {self.rows}]")
        return self.assignment[i - 1]

    @property
    def is_permutation(self) -> bool:
        return self.rows == self.cols and all(v is not None for v in self.assignment)

    @property
    def size(self) -> int:
        """The n of S_n; only meaningful for full permutations."""
        if not self.is_permutation:
            raise ValueError("not a full permutation")
        return self.rows

    def one_line(self) -> tuple[int, ...]:
        if not self.is_permutation:
            raise ValueError("not a full permutation")
        return tuple(v for v in self.assignment if v is not None)

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The dense 0/1 matrix."""
        return tuple(
            tuple(1 if self.assignment[i] == j else 0 for j in range(1, self.cols + 1))
            for i in range(self.rows))

    def inverse_map(self) -> dict[int, int]:
        """Map column -> row over the assigned entries."""
        return {j: i for i, j in enumerate(self.assignment, start=1) if j is not None}

    def to_json(self):
        """One-line notation for a permutation, else the grid and its 0/1
        matrix."""
        if self.is_permutation:
            return render_one_line(self)
        return {"rows": self.rows, "cols": self.cols, "matrix": [list(r) for r in self.matrix()]}

    def __str__(self) -> str:
        if self.is_permutation:
            return render_one_line(self)
        return "\n".join(" ".join(str(e) for e in row) for row in self.matrix())


def _parse_one_line_text(text: str) -> tuple[int, ...]:
    stripped = text.strip()
    if not stripped:
        raise PermutationParseError("empty permutation")
    if any(sep in stripped for sep in (" ", ",", "\t")):
        parts = stripped.replace(",", " ").split()
        values = []
        for pos, part in enumerate(parts, start=1):
            try:
                values.append(int(part))
            except ValueError:
                raise PermutationParseError(
                    f"token {part!r} at position {pos} is not an integer",
                    position=pos) from None
        return tuple(values)
    if not stripped.isdigit():
        bad = next(k for k, ch in enumerate(stripped, start=1) if not ch.isdigit())
        raise PermutationParseError(
            f"character {stripped[bad - 1]!r} at position {bad} is not a digit",
            position=bad)
    return tuple(int(ch) for ch in stripped)


def render_one_line(w: PartialPermutation) -> str:
    """One-line notation: digits for n <= 9, else space-separated integers.

    >>> render_one_line(PartialPermutation.from_one_line("35142"))
    '35142'
    """
    word = w.one_line()
    if len(word) <= 9:
        return "".join(str(v) for v in word)
    return " ".join(str(v) for v in word)


def parse_partial_matrix(text: str) -> PartialPermutation:
    """Parse the partial permutation file format: l lines of m 0/1 entries."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty partial permutation file")
    try:
        matrix = [[int(entry) for entry in row] for row in rows]
    except ValueError:
        raise ValueError("partial permutation file must contain integers") from None
    return PartialPermutation.from_matrix(matrix)


def identity(n: int) -> PartialPermutation:
    """The identity of S_n.

    >>> identity(3).one_line()
    (1, 2, 3)
    """
    return PartialPermutation(n, n, tuple(range(1, n + 1)))


def longest_element(n: int) -> PartialPermutation:
    """The order-reversing permutation n, n-1, ..., 1."""
    return PartialPermutation(n, n, tuple(range(n, 0, -1)))


def all_permutations(n: int) -> Iterator[PartialPermutation]:
    """All of S_n in lexicographic one-line order (the canonical census order)."""
    for word in itertools.permutations(range(1, n + 1)):
        yield PartialPermutation(n, n, word)


def all_partial_permutations(rows: int, cols: int) -> Iterator[PartialPermutation]:
    """All partial permutations of the given shape, deterministic order."""
    col_options = range(1, cols + 1)
    for k in range(0, min(rows, cols) + 1):
        for row_subset in itertools.combinations(range(1, rows + 1), k):
            for col_images in itertools.permutations(col_options, k):
                mapping = dict(zip(row_subset, col_images))
                yield PartialPermutation.from_assignment(rows, cols, mapping)


# ---------------------------------------------------------------------------
# Rank functions, diagrams and essential sets
# ---------------------------------------------------------------------------

def rank_at(w: PartialPermutation, cell: Cell | tuple[int, int]) -> int:
    """Rank of the upper-left p x q submatrix of ``w``.

    This counts the assigned entries (i, w(i)) with i <= p and w(i) <= q.

    >>> w = PartialPermutation.from_one_line("35142")
    >>> rank_at(w, (2, 4))
    1
    >>> rank_at(w, (5, 5))
    5
    """
    p, q = cell
    if not (1 <= p <= w.rows and 1 <= q <= w.cols):
        raise ValueError(f"cell ({p},{q}) outside the {w.rows}x{w.cols} grid")
    return sum(1 for i in range(1, p + 1)
               if (j := w.assignment[i - 1]) is not None and j <= q)


@dataclass(frozen=True)
class Diagram:
    """The diagram of a partial permutation with the rank at each cell.

    Cells are those neither due east nor due south of a 1; for a full
    permutation the number of cells equals the Coxeter length, which is also
    the codimension of the associated matrix Schubert variety.
    """

    ranks: dict[Cell, int]

    @property
    def cells(self) -> frozenset[Cell]:
        return frozenset(self.ranks)

    def sorted_cells(self) -> tuple[Cell, ...]:
        return tuple(sorted(self.ranks))

    def positive_cells(self) -> tuple[Cell, ...]:
        """Cells of positive rank, row-major."""
        return tuple(c for c in sorted(self.ranks) if self.ranks[c] > 0)

    def __contains__(self, cell) -> bool:
        return Cell(*cell) in self.ranks

    def __len__(self) -> int:
        return len(self.ranks)


def diagram(w: PartialPermutation) -> Diagram:
    """Diagram of ``w``: cells (i, j) with w(i) > j (or unassigned) and
    w^{-1}(j) > i (or unassigned), each labelled with its rank.

    >>> sorted(diagram(PartialPermutation.from_one_line("35142")).cells)
    [Cell(p=1, q=1), Cell(p=1, q=2), Cell(p=2, q=1), Cell(p=2, q=2), Cell(p=2, q=4), Cell(p=4, q=2)]
    >>> diagram(identity(4)).cells
    frozenset()
    """
    inverse = w.inverse_map()
    ranks: dict[Cell, int] = {}
    # Incremental rank computation: ranks[p][q] built row by row.
    prev_row = [0] * (w.cols + 1)
    for i in range(1, w.rows + 1):
        wi = w.assignment[i - 1]
        this_row = [0] * (w.cols + 1)
        for j in range(1, w.cols + 1):
            this_row[j] = prev_row[j] + (1 if wi is not None and wi <= j else 0)
            if (wi is None or wi > j):
                inv = inverse.get(j)
                if inv is None or inv > i:
                    ranks[Cell(i, j)] = this_row[j]
        prev_row = this_row
    return Diagram(ranks)


def essential_set(w: PartialPermutation) -> tuple[tuple[Cell, int], ...]:
    """The southeast-maximal diagram cells, each paired with its rank.

    Returned row-major; these cells suffice to define the Schubert
    determinantal ideal.

    >>> essential_set(PartialPermutation.from_one_line("35142"))
    ((Cell(p=2, q=2), 0), (Cell(p=2, q=4), 1), (Cell(p=4, q=2), 1))
    """
    d = diagram(w)
    cells = d.cells
    return tuple((c, d.ranks[c]) for c in sorted(cells)
                 if Cell(c.p + 1, c.q) not in cells and Cell(c.p, c.q + 1) not in cells)


def coxeter_length(w: PartialPermutation) -> int:
    """Number of inversions of a full permutation; equals |diagram(w)|.

    >>> coxeter_length(PartialPermutation.from_one_line("35142"))
    6
    """
    word = w.one_line()
    n = len(word)
    return sum(1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j])


# ---------------------------------------------------------------------------
# Extension, deletion, block extraction
# ---------------------------------------------------------------------------

def extend_to_permutation(w: PartialPermutation) -> PartialPermutation:
    """Extend an l x m partial permutation to a permutation in S_{l+m}.

    Assigned rows keep their columns; an unassigned row i <= l takes the
    smallest unused column in [m+1, n]; each row i > l takes the smallest
    unused column overall.  The diagram, essential set and determinantal
    generators of the extension agree with those of ``w``.

    >>> extend_to_permutation(PartialPermutation(1, 1, (None,))).one_line()
    (2, 1)
    """
    n = w.rows + w.cols
    used: set[int] = set()
    word: list[int] = []
    for i in range(1, n + 1):
        if i <= w.rows:
            j = w.assignment[i - 1]
            if j is None:
                j = min(v for v in range(w.cols + 1, n + 1) if v not in used)
        else:
            j = min(v for v in range(1, n + 1) if v not in used)
        used.add(j)
        word.append(j)
    return PartialPermutation(n, n, tuple(word))


def delete_row_col(w: PartialPermutation, p0: int, q0: int) -> PartialPermutation:
    """Delete row p0 and column q0 from a permutation with w(p0) = q0.

    The remaining rows and columns are relabelled order-preservingly, giving a
    permutation in S_{n-1}.

    >>> w = PartialPermutation.from_one_line("35142")
    >>> delete_row_col(w, 1, 3).one_line()
    (4, 1, 3, 2)
    """
    word = w.one_line()
    if w(p0) != q0:
        raise ValueError(f"w({p0}) = {w(p0)} != {q0}; can only delete at a 1 of w")
    new_word = [v if v < q0 else v - 1 for i, v in enumerate(word, start=1) if i != p0]
    return PartialPermutation(w.size - 1, w.size - 1, tuple(new_word))


class Submatrix(NamedTuple):
    """A square 0/1 block of a permutation matrix and whether it is itself a
    permutation matrix (exactly one 1 in every row and column)."""

    block: tuple[tuple[int, ...], ...]
    is_permutation: bool


def submatrix_w(w: PartialPermutation, cell: Cell | tuple[int, int]) -> Submatrix:
    """The r x r block of ``w`` on rows p-r..p-1 and columns q-r..q-1, where
    r = rank_at(w, (p, q)); requires r >= 1 and the block inside the grid.

    >>> w = PartialPermutation.from_one_line("35142")
    >>> submatrix_w(w, (2, 4))
    Submatrix(block=((1,),), is_permutation=True)
    """
    p, q = cell
    r = rank_at(w, (p, q))
    if r == 0:
        raise ValueError(f"rank at ({p},{q}) is 0; no block to extract")
    if p - r < 1 or q - r < 1:
        raise ValueError(f"block of size {r} at ({p},{q}) leaves the grid")
    block = tuple(
        tuple(1 if w.assignment[i - 1] == j else 0 for j in range(q - r, q))
        for i in range(p - r, p))
    ones = sum(sum(row) for row in block)
    return Submatrix(block, ones == r)

