"""Exact sparse polynomial arithmetic over a grid of variables x[i,j].

Every ``PolyRing`` owns its coefficient field and its term order:

* The field is built once from ``char``: exact ints and Fractions for the
  rationals (characteristic 0) or ints reduced mod p for a prime p < 2^31.
  It normalizes and divides coefficients and runs the one in-place kernel
  ``axpy`` (target += c * x^u * src, ``u`` defaulting to the unit monomial)
  behind all polynomial arithmetic, one loop per field, so the choice of
  field is made when the ring is built, never inside a loop.  Only the
  minors of the generic matrix bypass it: their terms are distinct
  products of distinct variables with coefficient 1 or -1, which are
  written straight into a dict (see ``_laplace``).
* The order is antidiagonal-lexicographic: plain lex with variable
  precedence x[i,j] > x[i',j'] iff i < i', or i = i' and j > j' (row-major,
  columns descending).  Under it the leading term of every minor of the
  generic matrix is the product of its antidiagonal entries, which is
  certified exhaustively in the test suite for all minors of a 5x5 grid.
  It is the only term order; ``saturate`` gets its elimination order from
  it by moving the grid down one row (see there).

Monomials are opaque outside this module: they compare with ``<`` in the
ring's order, combine through the ``monomial_*`` functions, and are built,
inspected and enumerated through ``PolyRing`` methods (``monomial``,
``grid_support``, ``monomial_degree``, ``support``).  Coefficients stay
inside too: ``independent`` decides linear dependence over the field for
callers.  Inside, a monomial is one packed int with one byte per variable,
bytes in decreasing variable precedence from the most significant, after the
packed exponent vectors of Bachmann and Schoenemann (ISSAC 1998).  Bit 7 of
each byte is a guard bit, so an exponent is at most ``EXPONENT_BOUND``
(127).  Then int comparison is the term order, a product is one addition and a
quotient one subtraction, and a | b exactly when ``b - a`` sets no guard bit
(a borrow out of a byte lands on its guard bit).  Every path that raises
exponents (``monomial_mul``, the ``axpy`` kernels,
``PolyRing.monomial`` and the parser) raises ``ExponentOverflowError``
rather than carry into the next variable.  A variable is a single bit, so a
squarefree monomial (``PolyRing.is_squarefree``) is the bit set of its
variables: for squarefree a and b, a | b exactly when ``a & b == a``.  That
is the one documented exception to their opacity, and
``frlab.verify_pivot_minors`` is its one user outside this module: its
search joins squarefree monomials with ``|``, tests containment with ``&``
and splits one into its variables by its lowest set bit.

The Groebner engine keeps what it has computed: a polynomial caches its
leading monomial, and ``normal_forms`` sorts one reducer list for many
dividends.  A variable x in an ideal erases every term that x divides, which
on packed monomials is one AND against a mask of the variables' exponent
bytes.  So ``buchberger`` and ``normal_forms`` keep the variables out of
their pair updates and reducer scans; callers hand them variables like any
other generator and never erase terms themselves.
"""
from __future__ import annotations

import heapq
import itertools
import operator
import re
from bisect import insort
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from itertools import compress
from typing import Iterable, Iterator, Optional, Sequence

Monomial = int  # packed exponents, one byte per variable in decreasing precedence

PRIME_BOUND = 2 ** 31
EXPONENT_BOUND = 127  # the largest exponent one byte below its guard bit holds
MAX_VARIABLES = 4096
# The guard bit of every byte a ring may use.  ``x & _GUARD`` costs only the
# size of x when x >= 0, so the ring-free kernels test overflow and
# divisibility with it; the lcm needs a mask of the operands' width.
_GUARD = int.from_bytes(b"\x80" * MAX_VARIABLES, "big")


class ExponentOverflowError(ValueError):
    """An exponent above ``EXPONENT_BOUND`` was asked for."""

    def __init__(self):
        super().__init__(f"exponent exceeds the bound {EXPONENT_BOUND} of a packed monomial")


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 3, 5 and 7, which is exact
    for p < 3,215,031,751, so for every p below ``PRIME_BOUND``."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class _Rationals:
    """The field of rationals: coefficients are exact ints and Fractions."""

    __slots__ = ()
    name = "QQ"

    def coeff(self, c):
        """Normalize a coefficient into the field."""
        if isinstance(c, (int, Fraction)):
            return c
        raise TypeError(f"unsupported coefficient {c!r}")

    def div(self, a, b):
        if b == 1:
            return a
        if b == -1:
            return -a
        q = Fraction(a) / b
        return int(q) if q.denominator == 1 else q

    def axpy(self, target: dict, src: Iterable, c, u: Monomial = 0):
        """target += c * x^u * src, where ``src`` yields (monomial,
        coefficient) pairs and ``u`` defaults to the unit monomial 0; terms
        that cancel leave ``target``."""
        for m, v in src:
            key = m + u
            if key & _GUARD:
                raise ExponentOverflowError()
            v = target.get(key, 0) + v * c
            if v:
                target[key] = v
            else:
                target.pop(key, None)


class _PrimeField:
    """The field with p elements, p a prime below ``PRIME_BOUND``:
    coefficients are ints in [0, p)."""

    __slots__ = ("p", "name")

    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise ValueError(f"prime field characteristic must be below 2^31, got {p}")
        if not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or a prime, got {p}")
        self.p = p
        self.name = f"GF({p})"

    def coeff(self, c):
        """Normalize a coefficient into the field."""
        if isinstance(c, int):
            return c % self.p
        if isinstance(c, Fraction):
            if not c.denominator % self.p:
                raise ValueError(f"denominator {c.denominator} is zero in {self.name}")
            return c.numerator * pow(c.denominator, -1, self.p) % self.p
        raise TypeError(f"unsupported coefficient {c!r}")

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p

    def axpy(self, target: dict, src: Iterable, c, u: Monomial = 0):
        """target += c * x^u * src, as for the rationals, reduced mod p."""
        p = self.p
        for m, v in src:
            key = m + u
            if key & _GUARD:
                raise ExponentOverflowError()
            v = (target.get(key, 0) + v * c) % p
            if v:
                target[key] = v
            else:
                target.pop(key, None)


_RATIONALS = _Rationals()


class PolyRing:
    """Polynomial ring K[x[i,j] : 1 <= i <= rows, 1 <= j <= cols].

    ``char`` 0 means exact rationals, a prime p below 2^31 means the field
    with p elements; the ring's ``field`` carries out all coefficient
    arithmetic.  Monomials compare with ``<`` in the ring's order:

    >>> r = PolyRing(2, 4)
    >>> a = r.monomial({(1, 4): 1, (2, 3): 1})
    >>> b = r.monomial({(1, 3): 1, (2, 4): 1})
    >>> a > b
    True
    """

    __slots__ = ("rows", "cols", "char", "field", "nvars", "_variables", "_guard")

    def __init__(self, rows: int, cols: int, char: int = 0):
        if rows < 1 or cols < 1:
            raise ValueError("grid dimensions must be positive")
        self.field = _PrimeField(char) if char else _RATIONALS
        self.rows = rows
        self.cols = cols
        self.char = char
        self.nvars = rows * cols
        if self.nvars > MAX_VARIABLES:
            raise ValueError(f"a ring has at most {MAX_VARIABLES} variables, got {self.nvars}")
        variables: dict[tuple[int, int], Monomial] = {}
        for i in range(1, rows + 1):
            for j in range(cols, 0, -1):
                position = (i - 1) * cols + (cols - j)
                variables[(i, j)] = 1 << 8 * (self.nvars - 1 - position)
        self._variables = variables
        self._guard = _GUARD >> 8 * (MAX_VARIABLES - self.nvars)  # exactly nvars bytes

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyRing)
                and (self.rows, self.cols, self.char) == (other.rows, other.cols, other.char))

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.char))

    def __repr__(self) -> str:
        return f"PolyRing({self.rows}x{self.cols} over {self.field.name})"

    # -- monomials ----------------------------------------------------------

    def monomial(self, grid_exponents: dict[tuple[int, int], int] | Iterable = ()) -> Monomial:
        """Monomial from {(i, j): exponent} (or an iterable of pairs)."""
        items = grid_exponents.items() if isinstance(grid_exponents, dict) else grid_exponents
        m = 0
        for (i, j), e in items:
            if e < 0:
                raise ValueError("negative exponent")
            m += e * self._variable(i, j)
            # a repeated variable may reach the guard bit without either
            # exponent passing the bound
            if e > EXPONENT_BOUND or m & _GUARD:
                raise ExponentOverflowError()
        return m

    def _variable(self, i: int, j: int) -> Monomial:
        try:
            return self._variables[(i, j)]
        except KeyError:
            raise ValueError(
                f"variable x[{i},{j}] outside the {self.rows}x{self.cols} grid") from None

    def _exponents(self, m: Monomial) -> bytes:
        """The exponents of m, in decreasing variable precedence."""
        return m.to_bytes(self.nvars, "big")

    def monomial_degree(self, m: Monomial) -> int:
        return sum(m.to_bytes(self.nvars, "big"))  # _exponents, inlined

    def is_squarefree(self, m: Monomial) -> bool:
        """Whether no variable divides m twice: whether every exponent byte
        is 0 or 1, so that m sets none of the bits 1 to 6 of any byte."""
        return not m & (self._guard - (self._guard >> 6))

    def support(self, m: Monomial) -> frozenset:
        """Opaque keys of the variables dividing m; two monomials share a
        variable iff their supports meet."""
        return frozenset(compress(range(self.nvars), self._exponents(m)))

    def grid_support(self, m: Monomial) -> Iterator[tuple[int, int, int]]:
        """Yield (i, j, exponent) for the variables dividing m."""
        for pos, e in enumerate(self._exponents(m)):
            if e:
                yield pos // self.cols + 1, self.cols - pos % self.cols, e

    def minimal_monomials(self, monomials: Iterable[Monomial]) -> list:
        """The monomials that no other one of them divides, one copy each, in
        increasing term order.  A divisor of m is at most m in that order, so
        one pass in it keeps exactly the monomials that no kept one divides."""
        guard = self._guard
        kept: list[Monomial] = []
        for m in sorted(set(monomials)):
            for g in kept:
                if not (m - g) & guard:  # g | m, as in the division
                    break
            else:
                kept.append(m)
        return kept

    def sparse_monomial(self, m: Monomial) -> tuple:
        """Ring-independent canonical form: sorted ((i, j), e) pairs; equal
        sparse forms mean literally equal monomials."""
        return tuple(((i, j), e) for i, j, e in self.grid_support(m))

    def render_monomial(self, m: Monomial) -> str:
        factors = []
        for i, j, e in self.grid_support(m):
            name = f"x[{i},{j}]"
            factors.append(name if e == 1 else f"{name}^{e}")
        return "*".join(factors) if factors else "1"

    # -- polynomials --------------------------------------------------------

    def polynomial(self, terms: dict[Monomial, object] | Iterable) -> "Polynomial":
        items = terms.items() if isinstance(terms, dict) else terms
        coeff = self.field.coeff
        # a monomial of this ring is an int whose bits all lie below the
        # guard bits of its nvars bytes; negative ints have bits outside too
        outside = ~(self._guard - (self._guard >> 7))
        normalized = []
        for m, c in items:
            if type(m) is not int or m & outside:
                raise ValueError("monomial does not belong to this ring")
            normalized.append((m, coeff(c)))
        d: dict = {}
        self.field.axpy(d, normalized, 1)
        return Polynomial(self, d)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        c = self.field.coeff(c)
        return Polynomial(self, {0: c} if c else {})

    def variable(self, i: int, j: int) -> "Polynomial":
        return Polynomial(self, {self.monomial({(i, j): 1}): 1})

    def render(self, f: "Polynomial") -> str:
        if f.is_zero:
            return "0"
        parts = []
        for k, (m, c) in enumerate(f.terms()):
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            body = self.render_monomial(m)
            if body == "1":
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if k == 0:
                parts.append(text if sign == "+" else f"-{text}")
            else:
                parts.append(f" {sign} {text}")
        return "".join(parts)

    def parse(self, text: str) -> "Polynomial":
        """Parse a polynomial: signed terms joined by ``+`` or ``-``, the
        first sign optional; a term is factors joined by ``*``; a factor is
        ``n``, ``n/d`` or ``x[i,j]`` with an optional ``^e``, where n, d, i,
        j and e are runs of decimal digits (of any script, as ``int`` reads
        them).  Whitespace may stand between any two tokens; there are no
        parentheses.  So the rendering parses back, and so do fractions like
        3/2, powers and terms in any order.  Malformed text, a zero
        denominator (over F_p, one that p divides) and a variable outside the
        grid raise ``ValueError``; an exponent above the bound raises
        ``ExponentOverflowError``."""
        match = _SIGN.match(text)
        terms, sign, coeff, mono = [], match.group(1), 1, 0
        while True:
            factor = _FACTOR.match(text, match.end())
            if factor is None:
                raise ValueError(f"malformed polynomial at position {match.end()}")
            num, den, i, j, e = factor.groups()
            if num is None:
                mono = monomial_mul(mono, self.monomial({(int(i), int(j)): int(e or 1)}))
            elif den is None:
                coeff *= int(num)
            elif int(den):
                coeff *= Fraction(int(num), int(den))
            else:
                raise ValueError(f"zero denominator at position {factor.start(2)}")
            match = _JOINER.match(text, factor.end())
            if match is None:
                raise ValueError(f"malformed polynomial at position {factor.end()}")
            if match.group(1) != "*":
                terms.append((mono, -coeff if sign == "-" else coeff))
                if not match.group(1):
                    return self.polynomial(terms)
                sign, coeff, mono = match.group(1), 1, 0


# The three tokens of ``PolyRing.parse``, each after optional whitespace: a
# leading sign, a factor, and what follows a factor (a joiner or the end).
_SIGN = re.compile(r"\s*([-+]?)")
_FACTOR = re.compile(
    r"\s*(?:(\d+)(?:\s*/\s*(\d+))?|x\s*\[\s*(\d+)\s*,\s*(\d+)\s*\](?:\s*\^\s*(\d+))?)")
_JOINER = re.compile(r"\s*([-+*]|\Z)")


# ---------------------------------------------------------------------------
# Monomial helpers (ring-agnostic on packed ints).  Every operand is guard
# clean, so adding two never carries out of a byte, and a | b exactly when
# b - a sets no guard bit: the lowest byte where b is smaller borrows from
# its own guard bit, and bytes below it borrow nothing.  The engine below
# inlines the divisibility test with its ring's guard mask.
# ---------------------------------------------------------------------------

def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    m = a + b
    if m & _GUARD:
        raise ExponentOverflowError()
    return m


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True iff a | b."""
    d = b - a
    return d >= 0 and not d & _GUARD


def monomial_quotient(numerator: Monomial, denominator: Monomial) -> Monomial:
    """numerator / denominator; caller guarantees divisibility."""
    return numerator - denominator


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    # a guard mask one byte wider than the wider operand
    return _lcm(a, b, _GUARD & ((256 << max(a, b).bit_length()) - 1))


def _lcm(a: Monomial, b: Monomial, guard: int) -> Monomial:
    """lcm(a, b), guard covering every byte of a and b.  With every guard
    bit set in a, one subtraction borrows nothing and leaves the guard bit of
    each byte where a >= b; each such bit becomes a 0x7f byte mask that
    selects a's exponent, the other bytes keep b's."""
    ge = ((a | guard) - b) & guard
    return b ^ ((a ^ b) & (ge - (ge >> 7)))


def _variable_mask(monomials: Iterable[Monomial], guard: int) -> int:
    """The 0x7f byte of every variable dividing one of ``monomials``, guard
    covering their bytes: adding 0x7f to an exponent byte reaches its guard
    bit exactly when the exponent is positive, and a guard bit less its own
    low bit is the byte's mask.  A monomial m shares a variable with them iff
    ``m & mask``."""
    low = (guard >> 7) * EXPONENT_BOUND
    g = 0
    for m in monomials:
        g |= (m + low) & guard
    return g - (g >> 7)


def _is_variable(m: Monomial) -> bool:
    """True iff m is a single variable: one bit, the lowest of its byte."""
    return m > 0 and not m & (m - 1) and (m.bit_length() - 1) % 8 == 0


class Polynomial:
    """An immutable sparse polynomial; terms iterate in decreasing order.

    The leading monomial is cached once computed; a constructor that knows
    it (a rescaled or tail-reduced polynomial keeps its lead, a shifted one
    moves it) passes it as ``lead``."""

    __slots__ = ("ring", "_d", "_terms", "_lead")

    def __init__(self, ring: PolyRing, coeffs: dict, lead: Optional[Monomial] = None):
        self.ring = ring
        self._d = coeffs
        self._terms: Optional[tuple] = None
        self._lead = lead

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._d

    def __bool__(self) -> bool:
        return bool(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def terms(self) -> tuple:
        """Terms as ((monomial, coeff), ...) in decreasing term order."""
        if self._terms is None:
            self._terms = tuple(sorted(self._d.items(), reverse=True))
        return self._terms

    def coefficient(self, m: Monomial):
        return self._d.get(m, 0)

    def monomials(self) -> tuple:
        return tuple(m for m, _ in self.terms())

    def leading_monomial(self) -> Monomial:
        lead = self._lead
        if lead is None:
            if not self._d:
                raise ValueError("the zero polynomial has no leading term")
            lead = self._lead = max(self._d)
        return lead

    def leading_coefficient(self):
        return self._d[self.leading_monomial()]

    def total_degree(self) -> int:
        if not self._d:
            raise ValueError("the zero polynomial has no degree")
        return max(map(self.ring.monomial_degree, self._d))

    def homogeneous_degree(self) -> Optional[int]:
        """The degree of every term, or None when two terms differ in
        degree.  One ``|`` over the terms tells whether all of them are
        squarefree; then each is the bit set of its variables and its
        degree is its bit count, and otherwise the sum of its exponent
        bytes."""
        if not self._d:
            raise ValueError("the zero polynomial has no degree")
        ring = self.ring
        if ring.is_squarefree(reduce(operator.or_, self._d)):
            # every term is squarefree, so its degree is its number of bits
            degrees = set(map(int.bit_count, self._d))
        else:
            degrees = {sum(m.to_bytes(ring.nvars, "big")) for m in self._d}  # monomial_degree
        return degrees.pop() if len(degrees) == 1 else None

    def sparse_terms(self) -> tuple:
        """Ring-independent canonical form for cross-grid comparisons."""
        return tuple((self.ring.sparse_monomial(m), c) for m, c in self.terms())

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def _plus(self, other, c) -> "Polynomial":
        """self + c * other"""
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check_ring(other)
        d = dict(self._d)
        self.ring.field.axpy(d, other._d.items(), c)
        return Polynomial(self.ring, d)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return self.ring.const(other) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ring(other)
        axpy = self.ring.field.axpy
        d: dict = {}
        small, large = (self._d, other._d) if len(self._d) <= len(other._d) else (other._d, self._d)
        for m1, c1 in small.items():
            axpy(d, large.items(), c1, m1)
        return Polynomial(self.ring, d)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        return self.mul_term(0, c)

    def mul_term(self, mono: Monomial, c=1) -> "Polynomial":
        """c * x^mono * self; a cached lead moves up by mono."""
        field = self.ring.field
        c = field.coeff(c)
        if not c:
            return Polynomial(self.ring, {})
        d: dict = {}
        field.axpy(d, self._d.items(), c, mono)
        return Polynomial(self.ring, d, None if self._lead is None else self._lead + mono)

    def monic(self) -> "Polynomial":
        if not self._d:
            return self
        lm = self.leading_monomial()
        lc = self._d[lm]
        if lc == 1:
            return self
        div = self.ring.field.div
        return Polynomial(self.ring, {m: div(c, lc) for m, c in self._d.items()}, lm)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Equality with a polynomial of the same ring.  A scalar is never
        equal: ``const(2) == 7`` holds over F_5, and no hash could agree
        with both 2 and 7, so equal objects could not hash equal."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._d == other._d

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self._d.items())))

    def __repr__(self) -> str:
        return self.ring.render(self)

    __str__ = __repr__


# ---------------------------------------------------------------------------
# Minors of the generic matrix
# ---------------------------------------------------------------------------

def minor(ring: PolyRing, rows: Sequence[int], cols: Sequence[int]) -> Polynomial:
    """The determinant of the generic submatrix on the given rows/columns,
    expanded exactly, each term a product of distinct variables with the
    field's 1 or -1 as coefficient.

    Index lists must be equal-length, strictly increasing and inside the
    grid; they are checked here.  A minor of size 2 or 3 is its closed
    Leibniz form; a larger one is expanded along its first row down to
    3 x 3 blocks (see ``_laplace``), with a memo that lives for this call.

    >>> r = PolyRing(2, 4)
    >>> str(minor(r, [1, 2], [3, 4]))
    '-x[1,4]*x[2,3] + x[1,3]*x[2,4]'
    """
    return Polynomial(ring, _laplace(ring, *_minor_indices(ring, rows, cols), {}))


def _laplace(ring: PolyRing, rows: tuple, cols: tuple, memo: dict) -> dict:
    """The terms of the minor on the equal-length ``rows`` and ``cols``,
    which lie inside the grid.

    The t! terms of a generic minor are distinct squarefree products of t
    variables, each with coefficient +-1, so they are written straight into
    the dict: no term is merged, none cancels and none can overflow.  A 1 x 1
    minor is its variable; 2 x 2 and 3 x 3 minors are their closed Leibniz
    forms.  A larger one is expanded along its first row: its sub-minors
    lie on ``rows[1:]``, and the one at column k, times that row's variable
    at column k, gives a term set that no other k shares, since each holds a
    different variable of the first row.  ``memo`` maps the (rows, cols) of
    each minor of size 3 and up already expanded to its terms, so the
    recursion stops at 3 x 3 blocks, each built once per memo.  The signs
    are the field's own 1 and -1."""
    variables = ring._variables
    t = len(cols)
    if t == 1:
        return {variables[rows[0], cols[0]]: 1}
    minus = ring.field.coeff(-1)
    if t == 2:
        (r0, r1), (c0, c1) = rows, cols
        return {variables[r0, c0] + variables[r1, c1]: 1,
                variables[r0, c1] + variables[r1, c0]: minus}
    d = memo.get((rows, cols))
    if d is not None:
        return d
    if t == 3:
        (r0, r1, r2), (c0, c1, c2) = rows, cols
        a0, a1, a2 = variables[r0, c0], variables[r0, c1], variables[r0, c2]
        b0, b1, b2 = variables[r1, c0], variables[r1, c1], variables[r1, c2]
        e0, e1, e2 = variables[r2, c0], variables[r2, c1], variables[r2, c2]
        d = {a0 + b1 + e2: 1, a0 + b2 + e1: minus, a1 + b0 + e2: minus,
             a1 + b2 + e0: 1, a2 + b0 + e1: 1, a2 + b1 + e0: minus}
    else:
        d = {}
        flip = {1: minus, minus: 1}  # negation on the coefficients +-1
        row, below = rows[0], rows[1:]
        for k in range(t):
            x = variables[row, cols[k]]
            sub = _laplace(ring, below, cols[:k] + cols[k + 1:], memo)
            if k & 1:
                d.update({m + x: flip[c] for m, c in sub.items()})
            else:
                d.update({m + x: c for m, c in sub.items()})
    memo[rows, cols] = d
    return d


def corner_minors(ring: PolyRing, corners: Iterable) -> tuple:
    """(sites, minors): for each (p, q, t) of ``corners``, every t x t minor
    of the upper-left p x q corner with its (rows, cols), row subsets then
    column subsets lexicographic.  Each corner is checked once, and its
    sites are then valid by construction.  Each minor is the disjoint
    signed sum of ``minor``, expanded under one memo for the whole call,
    keyed by the row suffix and column set of each minor of size 3 and up,
    so a sub-minor that several sites share is expanded once; the memo is
    dropped when the call returns.

    >>> r = PolyRing(2, 4)
    >>> sites, fs = corner_minors(r, [(1, 2, 1), (2, 4, 2)])
    >>> sites[:3], str(fs[-1])
    ([((1,), (1,)), ((1,), (2,)), ((1, 2), (1, 2))], '-x[1,4]*x[2,3] + x[1,3]*x[2,4]')
    """
    sites = list(_corner_sites(ring, corners))
    memo: dict = {}
    return sites, [Polynomial(ring, _laplace(ring, rows, cols, memo)) for rows, cols in sites]


def corner_antidiagonals(ring: PolyRing, corners: Iterable) -> list:
    """The antidiagonal monomials (see ``antidiagonal_monomial``) of the
    minors of ``corner_minors(ring, corners)``, in the same order, without
    expanding them; each corner is checked once.

    >>> r = PolyRing(2, 4)
    >>> [r.render_monomial(m) for m in corner_antidiagonals(r, [(2, 3, 2)])]
    ['x[1,2]*x[2,1]', 'x[1,3]*x[2,1]', 'x[1,3]*x[2,2]']
    """
    variable = ring._variables.__getitem__
    # distinct variables: their sum sets no guard bit
    return [sum(map(variable, zip(rows, reversed(cols))))
            for rows, cols in _corner_sites(ring, corners)]


def _corner_sites(ring: PolyRing, corners: Iterable) -> Iterator[tuple]:
    """The (rows, cols) of the t x t minors of each upper-left p x q corner,
    after checking (p, q, t) once: 1 <= t <= min(p, q), and p, q inside the
    grid."""
    for p, q, t in corners:
        if not 1 <= t <= min(p, q):
            raise ValueError("a corner's minor size must be between 1 and its sides")
        if p > ring.rows or q > ring.cols:
            raise ValueError("corner leaves the grid")
        col_sets = list(itertools.combinations(range(1, q + 1), t))
        for rows in itertools.combinations(range(1, p + 1), t):
            for cols in col_sets:
                yield rows, cols


def _minor_indices(ring: PolyRing, rows: Sequence[int], cols: Sequence[int]) -> tuple:
    """The row and column index lists of a minor as tuples, after checking
    that they are equal-length, nonempty, strictly increasing and inside the
    grid."""
    rows = tuple(rows)
    cols = tuple(cols)
    if not rows or len(rows) != len(cols):
        raise ValueError("row and column index lists must be equal-length and nonempty")
    if not (all(map(operator.lt, rows, rows[1:])) and all(map(operator.lt, cols, cols[1:]))):
        raise ValueError("index lists must be strictly increasing without repeats")
    if rows[-1] > ring.rows or cols[-1] > ring.cols or rows[0] < 1 or cols[0] < 1:
        raise ValueError("minor indices leave the grid")
    return rows, cols


def antidiagonal_monomial(ring: PolyRing, rows: Sequence[int], cols: Sequence[int]) -> Monomial:
    """The antidiagonal monomial of the minor on the given rows/columns: the
    product x[rows[0], cols[-1]] * x[rows[1], cols[-2]] * ...  Index lists
    must be as for ``minor``.

    >>> r = PolyRing(2, 4)
    >>> r.render_monomial(antidiagonal_monomial(r, [1, 2], [3, 4]))
    'x[1,4]*x[2,3]'
    """
    rows, cols = _minor_indices(ring, rows, cols)
    # distinct variables: their sum sets no guard bit
    return sum(map(ring._variables.__getitem__, zip(rows, reversed(cols))))


# ---------------------------------------------------------------------------
# Ideals, division, Buchberger
# ---------------------------------------------------------------------------

def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial (lcm/lt(f))*f - (lcm/lt(g))*g."""
    f._check_ring(g)
    field = f.ring.field
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcm = _lcm(lmf, lmg, f.ring._guard)
    d: dict = {}
    field.axpy(d, f._d.items(), field.div(1, f._d[lmf]), monomial_quotient(lcm, lmf))
    field.axpy(d, g._d.items(), -field.div(1, g._d[lmg]), monomial_quotient(lcm, lmg))
    return Polynomial(f.ring, d)


def normal_form(f: Polynomial, reducers: Sequence[Polynomial]) -> Polynomial:
    """Remainder of f under full multivariate division by ``reducers``; the
    one-element case of ``normal_forms``.

    No term of the result is divisible by any reducer's leading monomial, and
    f minus the result lies in the ideal generated by the reducers.  The
    division is deterministic: a reducer that is a single variable times a
    unit erases every term that variable divides before any other reducer is
    tried; otherwise the reducer with the smallest leading monomial is
    preferred (ties broken by input order).  When the reducers form a
    Groebner basis, as every caller's in this package do, the remainder is
    the unique normal form, whichever reducer the rule prefers.
    """
    return normal_forms((f,), reducers)[0]


def normal_forms(fs: Sequence[Polynomial], reducers: Sequence[Polynomial]) -> tuple:
    """``normal_form(f, reducers)`` for each f in ``fs``, in order.  The
    reducers are prepared and sorted once for all of them, so a caller
    dividing many polynomials by one basis makes one call.  The variables
    among them become one erasing mask and leave the scanned list."""
    fs = tuple(fs)
    if not fs:
        return ()
    ring = fs[0].ring
    for f in fs:
        if f.ring is not ring and f.ring != ring:
            raise ValueError("polynomials must live in a common ring")
    entries = [_reducer_entry(ring, k, g) for k, g in enumerate(reducers)]
    if not entries:
        return fs
    variables = [e[0] for e in entries if len(e[3]) == 1 and _is_variable(e[0])]
    mask = _variable_mask(variables, ring._guard)
    # a reducer whose lead the mask meets divides only erased terms
    prepared = sorted(e for e in entries if not e[0] & mask)
    return tuple(Polynomial(ring, _reduce_dict(dict(f._d), prepared, ring, mask)) for f in fs)


def _reducer_entry(ring: PolyRing, k: int, g: Polynomial) -> tuple:
    """The division entry (lm, k, lc, terms) of reducer number k.  Entries
    sort by (lm, k), the reducer preference, because k is unique."""
    if g.ring is not ring and g.ring != ring:
        raise ValueError("reducers must live in the same ring")
    if g.is_zero:
        raise ValueError("reducers must be nonzero")
    lm = g.leading_monomial()
    return lm, k, g._d[lm], g._d


def _reduce_dict(p: dict, prepared: list, ring: PolyRing, mask: int = 0) -> dict:
    """Destructively reduce the term dict ``p`` by the sorted entries
    ``prepared``, after erasing every term that ``mask`` (the variable mask
    of the variable reducers) meets; returns the remainder dict."""
    if mask:
        p = {m: c for m, c in p.items() if not m & mask}
    if not prepared:
        return p
    div = ring.field.div
    axpy = ring.field.axpy
    guard = ring._guard
    rem: dict = {}
    while p:
        m = max(p)
        c = p[m]
        if m & mask:  # a variable reducer divides m
            del p[m]
            continue
        for lm, _, lc, gd in prepared:
            u = m - lm
            if not u & guard:  # lm | m, inlined
                axpy(p, gd.items(), -div(c, lc), u)
                break
        else:
            rem[m] = c
            del p[m]
    return rem


def independent(fs: Sequence[Polynomial]) -> tuple:
    """The indices of the ``fs`` that lie outside the span, over the ring's
    field, of the ones before them; the kept ones form a basis of the span
    of all.  Each f is reduced by an echelon of the kept ones, stored monic
    under their distinct leading monomials, and kept iff a term survives.

    >>> r = PolyRing(2, 2)
    >>> x, y = r.variable(1, 1), r.variable(1, 2)
    >>> independent([x, 2 * x, x + y, r.zero(), y, x - 3 * y])
    (0, 2)
    """
    fs = tuple(fs)
    if not fs:
        return ()
    ring = fs[0].ring
    if any(f.ring is not ring and f.ring != ring for f in fs):
        raise ValueError("polynomials must live in a common ring")
    axpy, div = ring.field.axpy, ring.field.div
    echelon: dict = {}
    kept = []
    for k, f in enumerate(fs):
        row = dict(f._d)
        while row:
            lead = max(row)
            pivot = echelon.get(lead)
            if pivot is None:
                lc = row[lead]
                echelon[lead] = row if lc == 1 else {m: div(c, lc) for m, c in row.items()}
                kept.append(k)
                break
            axpy(row, pivot.items(), -row[lead])
    return tuple(kept)


class GroebnerCertificationError(AssertionError):
    """A certified Buchberger run found a basis violating its contract."""


_CERTIFY = False


@contextmanager
def certified():
    """Context manager enabling post-hoc certification of every Groebner basis
    computed inside: every S-pair of the output reduces to zero, every input
    generator reduces to zero, and the basis is monic, auto-reduced and
    sorted.  Raises GroebnerCertificationError on any violation."""
    global _CERTIFY
    previous = _CERTIFY
    _CERTIFY = True
    try:
        yield
    finally:
        _CERTIFY = previous


def buchberger(generators: Sequence[Polynomial]) -> tuple:
    """The reduced Groebner basis of the ideal generated by ``generators``.

    Pair handling uses the coprime-product and chain criteria (the
    Gebauer-Moeller installation) with normal-strategy selection (smallest
    lcm first, ties by pair index), so the run is deterministic.  The output
    is monic, auto-reduced, and sorted by increasing leading monomial.

    The generators that are a single variable times a unit are split off
    first.  They erase every term they divide from the other generators, the
    zero ones are dropped, and the core runs on the rest, whose basis is
    then free of those variables.  So the variables and that basis together
    are reduced and Groebner (a variable's pairs with it have coprime leads)
    and are merged in lead order, unless that basis is ``(1,)``, which is
    then the result.  The reduced basis is unique, so this is the basis the
    core would give on all the generators, without the variables in its
    reducer scans and pair updates.

    >>> r = PolyRing(2, 2)
    >>> gb = buchberger([r.parse("x[1,1]*x[2,2] - 1"), r.parse("x[1,1]")])
    >>> [str(g) for g in gb]
    ['1']
    >>> gb = buchberger([r.parse("x[1,2]"), r.parse("x[1,1] - x[1,2]")])
    >>> [str(g) for g in gb]
    ['x[1,1]', 'x[1,2]']
    """
    gens = tuple(generators)
    if not gens:
        return ()
    ring = gens[0].ring
    for g in gens:
        if g.is_zero:
            raise ValueError("generators must be nonzero")
        if g.ring is not ring and g.ring != ring:
            raise ValueError("generators must live in a common ring")
    variables = {g.leading_monomial() for g in gens
                 if len(g._d) == 1 and _is_variable(g.leading_monomial())}
    rest = gens
    if variables:
        # the variables themselves erase to zero
        mask = _variable_mask(variables, ring._guard)
        rest = [Polynomial(ring, d) for d in
                (_reduce_dict(dict(g._d), [], ring, mask) for g in gens) if d]
    result = _interreduce(_buchberger_core(ring, [g.monic() for g in rest]))
    if result[:1] != (ring.one(),):  # the unit ideal absorbs the variables
        result = tuple(sorted(result + tuple(Polynomial(ring, {v: 1}, v) for v in variables),
                              key=Polynomial.leading_monomial))
    if _CERTIFY:
        _certify_basis(ring, gens, result)
    return result


def _buchberger_core(ring: PolyRing, basis: list) -> list:
    # basis: list of monic Polynomial; pairs managed by Gebauer-Moeller update
    pairs: dict[tuple[int, int], Monomial] = {}
    heap: list = []
    leads = [g.leading_monomial() for g in basis]
    reducers: list = []
    for t in range(len(basis)):
        _gm_update(pairs, heap, leads, t, ring._guard)
        insort(reducers, _reducer_entry(ring, t, basis[t]))
    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) not in pairs:
            continue
        del pairs[(i, j)]
        # the S-polynomial is built for this reduction alone, so its own
        # term dict is reduced in place
        rem = _reduce_dict(s_polynomial(basis[i], basis[j])._d, reducers, ring)
        if not rem:
            continue
        h = Polynomial(ring, rem).monic()
        lm = h.leading_monomial()
        basis.append(h)
        leads.append(lm)
        t = len(basis) - 1
        _gm_update(pairs, heap, leads, t, ring._guard)
        insort(reducers, _reducer_entry(ring, t, h))
    return basis


def _gm_update(pairs: dict, heap: list, leads: list, t: int, guard: int):
    """Install pairs (i, t) for i < t, pruned by the Gebauer-Moeller form of
    the coprime-product and chain criteria; prune superseded old pairs.
    ``pairs`` maps each live pair to its lcm, and ``guard`` is the ring's
    guard mask."""
    lt = leads[t]
    lcms = []
    for lead in leads[:t]:  # _lcm(lead, lt, guard), inlined
        ge = ((lead | guard) - lt) & guard
        lcms.append(lt ^ ((lead ^ lt) & (ge - (ge >> 7))))
    # chain criterion among the new pairs: keep (i, t) only if no kept pair's
    # lcm divides its lcm (equal lcms keep the first)
    kept: list[int] = []
    kept_lcms: list = []
    for lcm, i in sorted(zip(lcms, range(t))):
        for other in kept_lcms:
            if not (lcm - other) & guard:
                break
        else:
            kept.append(i)
            kept_lcms.append(lcm)
    # prune old pairs now covered by t
    for pair in [(i, j) for (i, j), lcm_ij in pairs.items()
                 if not (lcm_ij - lt) & guard and lcms[i] != lcm_ij and lcms[j] != lcm_ij]:
        del pairs[pair]
    # coprime-product criterion last (sound in combination with the above):
    # the leads are coprime exactly when their lcm is their product
    for i in kept:
        if lcms[i] == leads[i] + lt:
            continue
        pairs[(i, t)] = lcms[i]
        heapq.heappush(heap, (lcms[i], i, t))


def _interreduce(basis: list) -> tuple:
    """Minimalize and tail-reduce a nonzero monic basis into the reduced
    Groebner basis."""
    if not basis:
        return ()
    ring = basis[0].ring
    # minimal: for each lead that no other lead divides, in lead order, the
    # first element carrying it
    first: dict = {}
    for g in basis:
        first.setdefault(g.leading_monomial(), g)
    kept = [first[lm] for lm in ring.minimal_monomials(first)]
    # reduced: replace each by its normal form against the others.  The kept
    # leads are minimal, distinct and increasing, and a lead divides only
    # monomials at least as large.  So no entry before an element's own
    # divides its lead, and none from its own on divides a term below its
    # lead: reducing by the entries before its own (``prepared`` grows by
    # one entry per element) reduces its tail by all the others and keeps
    # its lead, so the result stays sorted.
    prepared: list = []
    reduced = []
    for idx, g in enumerate(kept):
        rem = _reduce_dict(dict(g._d), prepared, ring)
        reduced.append(Polynomial(ring, rem, g.leading_monomial()))
        prepared.append(_reducer_entry(ring, idx, g))
    return tuple(reduced)


def _certify_basis(ring: PolyRing, gens: Sequence[Polynomial], basis: tuple):
    for g in basis:
        if g.is_zero:
            raise GroebnerCertificationError("basis element not monic")
        if g.leading_monomial() != max(g._d):
            raise GroebnerCertificationError("cached leading monomial is not the largest term")
        if g.leading_coefficient() != 1:
            raise GroebnerCertificationError("basis element not monic")
    for idx in range(1, len(basis)):
        if not basis[idx - 1].leading_monomial() < basis[idx].leading_monomial():
            raise GroebnerCertificationError("basis not sorted by leading monomial")
    for idx, g in enumerate(basis):
        for jdx, h in enumerate(basis):
            if idx == jdx:
                continue
            lm = h.leading_monomial()
            if any(monomial_divides(lm, m) for m in g.monomials()):
                raise GroebnerCertificationError("basis not auto-reduced")
    pairs = list(itertools.combinations(range(len(basis)), 2))
    s_polys = [s_polynomial(basis[i], basis[j]) for i, j in pairs]
    remainders = normal_forms(s_polys + list(gens), basis)
    for (i, j), rem in zip(pairs, remainders):
        if rem:
            raise GroebnerCertificationError(
                f"S-polynomial of basis elements {i},{j} does not reduce to 0")
    if any(remainders[len(pairs):]):
        raise GroebnerCertificationError("input generator does not reduce to 0")


# ---------------------------------------------------------------------------
# Variable transplants and saturation
# ---------------------------------------------------------------------------

def transplant(f: Polynomial, target: PolyRing,
               cell_map: Optional[dict[tuple[int, int], tuple[int, int]]] = None) -> Polynomial:
    """Re-express ``f`` in another ring, optionally relabelling grid variables
    through ``cell_map``; every variable of ``f`` must land in ``target``'s
    grid."""
    ring = f.ring
    terms = []
    for m, c in f._d.items():
        pairs = []
        for i, j, e in ring.grid_support(m):
            cell = (i, j) if cell_map is None else cell_map[(i, j)]
            pairs.append((cell, e))
        terms.append((target.monomial(pairs), c))
    return target.polynomial(terms)


def saturate(generators: Sequence[Polynomial], c: Polynomial) -> tuple:
    """Generators of the saturation (I : c^infinity) = (I + <1 - t*c>) cap
    K[x] (Cox-Little-O'Shea, ch. 4 section 4), for I the ideal of the
    nonzero ``generators`` in the ring of c.

    The grid moves to rows 2..rows+1 of a ring with one row more, and
    t = x[1,cols] is the first variable of the ring's lex order, so every
    monomial containing t lies above every monomial free of it: the ring's
    own order eliminates t.  Buchberger runs on I + <1 - t*c> there, the
    basis elements whose lead is free of t (then so are all their terms) are
    kept, and they move back up.  The shift keeps the precedence among the
    grid variables, so this is the reduced basis an elimination order with
    t adjoined to the grid gives.  The larger ring must stay within
    ``MAX_VARIABLES``.

    Nothing is relabelled to move: x[i,j] is the byte at position
    (i-1)*cols + cols-j counted from the top of the ring's nvars bytes, and
    moving it down one row in a ring one row taller adds cols to both that
    position and nvars.  So its byte, and every monomial's int, stays the
    same, and the term dicts are wrapped in the other ring as they are.

    The returned generators are themselves a reduced Groebner basis in the
    base ring, so membership in the localization of I at c is exactly
    ``normal_form(f, result).is_zero``.

    >>> r = PolyRing(2, 2)
    >>> [str(g) for g in saturate([r.parse("x[1,1]*x[2,2]")], r.variable(1, 1))]
    ['x[2,2]']
    """
    ring = c.ring
    if any(g.ring != ring for g in generators):
        raise ValueError("generators must live in the saturating element's ring")
    if c.is_zero:
        raise ValueError("cannot saturate at zero")
    extended = PolyRing(ring.rows + 1, ring.cols, ring.char)
    t = extended.monomial({(1, ring.cols): 1})
    # buchberger rejects a zero generator
    lifted = [Polynomial(extended, g._d) for g in generators]
    lifted.append(extended.one() - Polynomial(extended, c._d).mul_term(t))
    kept = [g for g in buchberger(lifted) if g.leading_monomial() < t]
    return tuple(Polynomial(ring, g._d) for g in kept)


def ideals_equal(a: Sequence[Polynomial], b: Sequence[Polynomial]) -> bool:
    """Whether the generators ``a`` and ``b`` generate the same ideal, by
    mutual normal-form containment."""
    return (not any(normal_forms(b, buchberger(a)))
            and not any(normal_forms(a, buchberger(b))))
