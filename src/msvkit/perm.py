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
import operator
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
        for size in (self.rows, self.cols):
            if type(size) is not int:  # 2.0 fails in range, True renders as "True"
                raise TypeError(f"grid dimension {size!r} is not an int")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")
        # a list would make the permutation unhashable and unequal to its tuple
        object.__setattr__(self, "assignment", tuple(self.assignment))
        if len(self.assignment) != self.rows:
            raise ValueError("assignment length must equal the number of rows")
        seen: set[int] = set()
        for i, j in enumerate(self.assignment, start=1):
            if j is None:
                continue
            if type(j) is not int:  # a bool is an int, and would render as True
                raise TypeError(f"row {i} assigned to {j!r}, which is not an int column")
            if not 1 <= j <= self.cols:
                raise ValueError(f"row {i} assigned to column {j} outside [1, {self.cols}]")
            if j in seen:
                raise ValueError(f"column {j} assigned twice")
            seen.add(j)

    @classmethod
    def from_one_line(cls, word: str | Iterable[int]) -> "PartialPermutation":
        """Build a full permutation from one-line notation.

        Accepts a digit string for n <= 9 ("35142"), a whitespace- or
        comma-separated string of runs of decimal digits, or any iterable of
        integers.  An empty field between commas and a token that is not a
        run of decimal digits, such as "+3" or "1_0", are errors at their
        position, and so is an iterable's value that is not an integer
        (``operator.index`` refuses it), such as 2.7 or "+1", or is a bool.

        >>> PartialPermutation.from_one_line("35142").one_line()
        (3, 5, 1, 4, 2)
        """
        values = _parse_one_line_text(word) if isinstance(word, str) else tuple(word)
        n = len(values)
        if n == 0:
            raise PermutationParseError("empty permutation")
        seen: dict[int, None] = {}  # the columns in order, each once
        for pos, v in enumerate(values, start=1):
            try:
                if isinstance(v, bool):  # operator.index would read True as 1
                    raise TypeError
                v = operator.index(v)
            except TypeError:
                raise PermutationParseError(
                    f"value {v!r} at position {pos} is not an integer", position=pos) from None
            if not 1 <= v <= n:
                raise PermutationParseError(
                    f"value {v} at position {pos} outside [1, {n}]", position=pos)
            if v in seen:
                raise PermutationParseError(
                    f"repeated value {v} at position {pos}", position=pos)
            seen[v] = None
        return cls(n, n, tuple(seen))

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

    def to_json(self):
        """One-line notation for a permutation, else the grid and its 0/1
        matrix."""
        if self.is_permutation:
            return str(self)
        return {"rows": self.rows, "cols": self.cols, "matrix": [list(r) for r in self.matrix()]}

    def __str__(self) -> str:
        """One-line notation for a permutation: digits for n <= 9, else
        space-separated integers.  Otherwise the 0/1 matrix, one row a line.

        >>> str(PartialPermutation.from_one_line("35142"))
        '35142'
        """
        if self.is_permutation:
            word = self.one_line()
            return ("" if len(word) <= 9 else " ").join(str(v) for v in word)
        return "\n".join(" ".join(str(e) for e in row) for row in self.matrix())


def _parse_one_line_text(text: str) -> tuple[int, ...]:
    stripped = text.strip()
    if not stripped:
        raise PermutationParseError("empty permutation")
    if any(sep in stripped for sep in (" ", ",", "\t")):
        parts: list[str] = []
        for field in stripped.split(","):
            if not field.strip():
                raise PermutationParseError(
                    f"empty field at position {len(parts) + 1}", position=len(parts) + 1)
            parts += field.split()
        for pos, part in enumerate(parts, start=1):
            # int() would also read a sign and underscores between digits
            if not part.isdecimal():
                raise PermutationParseError(
                    f"token {part!r} at position {pos} is not an integer", position=pos)
        return tuple(map(int, parts))
    if not stripped.isdecimal():
        bad = next(k for k, ch in enumerate(stripped, start=1) if not ch.isdecimal())
        raise PermutationParseError(
            f"character {stripped[bad - 1]!r} at position {bad} is not a digit",
            position=bad)
    return tuple(int(ch) for ch in stripped)


def parse_partial_matrix(text: str) -> PartialPermutation:
    """Parse the partial permutation file format: l lines of m 0/1 entries,
    each a run of decimal digits, as in a one-line word."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty partial permutation file")
    try:
        # int() would also read a sign and underscores between digits
        if not all(entry.isdecimal() for row in rows for entry in row):
            raise ValueError
        matrix = [[int(entry) for entry in row] for row in rows]
    except ValueError:  # past int's digit limit too
        raise ValueError("partial permutation file must contain integers") from None
    return PartialPermutation.from_matrix(matrix)


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
                yield PartialPermutation(rows, cols,
                                         tuple(mapping.get(i) for i in range(1, rows + 1)))


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


def diagram(w: PartialPermutation) -> dict[Cell, int]:
    """Diagram of ``w``: cells (i, j) with w(i) > j (or unassigned) and
    w^{-1}(j) > i (or unassigned), each mapped to its rank.  The dict is
    built row by row, so it iterates row-major.

    Cells are those neither due east nor due south of a 1; for a full
    permutation the number of cells equals the Coxeter length, which is also
    the codimension of the associated matrix Schubert variety.

    >>> list(diagram(PartialPermutation.from_one_line("35142")))
    [Cell(p=1, q=1), Cell(p=1, q=2), Cell(p=2, q=1), Cell(p=2, q=2), Cell(p=2, q=4), Cell(p=4, q=2)]
    >>> diagram(PartialPermutation.from_one_line("1234"))
    {}
    """
    inverse = {j: i for i, j in enumerate(w.assignment, start=1) if j is not None}
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
    return ranks


def essential_set(w: PartialPermutation) -> tuple[tuple[Cell, int], ...]:
    """The southeast-maximal diagram cells, each paired with its rank.

    Returned row-major; these cells suffice to define the Schubert
    determinantal ideal.

    >>> essential_set(PartialPermutation.from_one_line("35142"))
    ((Cell(p=2, q=2), 0), (Cell(p=2, q=4), 1), (Cell(p=4, q=2), 1))
    """
    d = diagram(w)
    # a Cell is a tuple, so plain tuples look its neighbours up
    return tuple((c, r) for c, r in d.items()
                 if (c.p + 1, c.q) not in d and (c.p, c.q + 1) not in d)


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

    Assigned rows keep their columns; the unassigned rows i <= l take the
    columns m+1, m+2, ... in order, which w leaves free; the rows i > l take
    the leftover columns in increasing order.  So every row takes the
    smallest column still unused in its range.  The diagram, essential set
    and determinantal generators of the extension agree with those of ``w``.

    >>> extend_to_permutation(PartialPermutation(1, 1, (None,))).one_line()
    (2, 1)
    """
    n = w.rows + w.cols
    spare = iter(range(w.cols + 1, n + 1))
    word = [next(spare) if j is None else j for j in w.assignment]
    used = set(word)
    word += (j for j in range(1, n + 1) if j not in used)
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

