"""Exact sparse polynomial arithmetic over a grid of variables x[i,j].

Every ``PolyRing`` owns its coefficient field and its term order:

* The field is built once from ``char``: exact ints and Fractions for the
  rationals (characteristic 0) or ints reduced mod p for a prime p < 2^31.
  It normalizes and divides coefficients and runs the one in-place kernel
  ``axpy`` (target += c * x^u * src) behind all polynomial arithmetic, so
  the choice of field is made when the ring is built, never inside a loop.
* The order is antidiagonal-lexicographic: plain lex with variable
  precedence x[i,j] > x[i',j'] iff i < i', or i = i' and j > j' (row-major,
  columns descending).  Under it the leading term of every minor of the
  generic matrix is the product of its antidiagonal entries, which is
  certified exhaustively in the test suite for all minors of a 5x5 grid.  A
  ring may carry one auxiliary variable (used for saturation); its order is
  then the elimination order, which ranks any monomial containing the
  auxiliary variable above every monomial free of it.

Monomials are opaque outside this module: they compare with ``<`` in the
ring's order, combine through the ``monomial_*`` functions, and are built,
inspected and enumerated through ``PolyRing`` methods (``monomial``,
``grid_support``, ``monomial_degree``, ``support``, ``free_of``).
Inside, a monomial is one packed int with one byte per variable, bytes in
decreasing variable precedence from the most significant (the auxiliary
variable first), after the packed exponent vectors of Bachmann and
Schoenemann (ISSAC 1998).  Bit 7 of each byte is a guard bit, so an exponent
is at most ``EXPONENT_BOUND`` (127).  Then int comparison is the term order,
a product is one addition and a quotient one subtraction, and a | b exactly
when ``b - a`` sets no guard bit (a borrow out of a byte lands on its guard
bit).  Every path that raises exponents (``monomial_mul``, the shifted
``axpy`` kernels, ``PolyRing.monomial`` and the parser) raises
``ExponentOverflowError`` rather than carry into the next variable.

The Groebner engine keeps what it has computed: a polynomial caches its
leading monomial; ``normal_forms`` sorts one reducer list for many
dividends; and extending a known basis re-reduces only the known elements
that a new lead touches.
"""
from __future__ import annotations

import heapq
import itertools
import re
from bisect import insort
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
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

    def axpy(self, target: dict, src: Iterable, c, u: Optional[Monomial] = None):
        """target += c * x^u * src, where ``src`` yields (monomial,
        coefficient) pairs and ``u`` None means no shift; terms that cancel
        leave ``target``."""
        if u is None:
            for m, v in src:
                v = target.get(m, 0) + v * c
                if v:
                    target[m] = v
                else:
                    target.pop(m, None)
        else:
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
        if isinstance(c, Fraction):
            return c.numerator * pow(c.denominator, -1, self.p) % self.p
        return int(c) % self.p

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p

    def axpy(self, target: dict, src: Iterable, c, u: Optional[Monomial] = None):
        """target += c * x^u * src, as for the rationals, reduced mod p."""
        p = self.p
        if u is None:
            for m, v in src:
                v = (target.get(m, 0) + v * c) % p
                if v:
                    target[m] = v
                else:
                    target.pop(m, None)
        else:
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
    arithmetic.  At most one auxiliary variable (named by ``aux``) may be
    adjoined, in which case the ring's order is the elimination order.
    Monomials compare with ``<`` in the ring's order:

    >>> r = PolyRing(2, 4)
    >>> a = r.monomial({(1, 4): 1, (2, 3): 1})
    >>> b = r.monomial({(1, 3): 1, (2, 4): 1})
    >>> a > b
    True
    """

    __slots__ = ("rows", "cols", "char", "field", "aux", "nvars", "_variables", "_guard")

    def __init__(self, rows: int, cols: int, char: int = 0, aux: Optional[str] = None):
        if rows < 1 or cols < 1:
            raise ValueError("grid dimensions must be positive")
        self.field = _PrimeField(char) if char else _RATIONALS
        self.rows = rows
        self.cols = cols
        self.char = char
        self.aux = aux
        offset = 1 if aux else 0
        self.nvars = rows * cols + offset
        if self.nvars > MAX_VARIABLES:
            raise ValueError(f"a ring has at most {MAX_VARIABLES} variables, got {self.nvars}")
        variables: dict[tuple[int, int], Monomial] = {}
        for i in range(1, rows + 1):
            for j in range(cols, 0, -1):
                position = offset + (i - 1) * cols + (cols - j)
                variables[(i, j)] = 1 << 8 * (self.nvars - 1 - position)
        self._variables = variables
        self._guard = _GUARD >> 8 * (MAX_VARIABLES - self.nvars)  # exactly nvars bytes

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyRing)
                and (self.rows, self.cols, self.char, self.aux)
                == (other.rows, other.cols, other.char, other.aux))

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.char, self.aux))

    def __repr__(self) -> str:
        aux = f" + {self.aux}" if self.aux else ""
        return f"PolyRing({self.rows}x{self.cols} over {self.field.name}{aux})"

    # -- monomials ----------------------------------------------------------

    def monomial(self, grid_exponents: dict[tuple[int, int], int] | Iterable = (),
                 aux_power: int = 0) -> Monomial:
        """Monomial from {(i, j): exponent} (or an iterable of pairs)."""
        items = grid_exponents.items() if isinstance(grid_exponents, dict) else grid_exponents
        powers = [(self._variable(i, j), e) for (i, j), e in items]
        if aux_power:
            if not self.aux:
                raise ValueError("ring has no auxiliary variable")
            powers.append((1 << 8 * (self.nvars - 1), aux_power))
        m = 0
        for var, e in powers:
            if e < 0:
                raise ValueError("negative exponent")
            m += e * var
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

    def one_monomial(self) -> Monomial:
        return 0

    def _exponents(self, m: Monomial) -> bytes:
        """The exponents of m, in decreasing variable precedence."""
        return m.to_bytes(self.nvars, "big")

    def monomial_degree(self, m: Monomial) -> int:
        return sum(m.to_bytes(self.nvars, "big"))  # _exponents, inlined

    def aux_degree(self, m: Monomial) -> int:
        return m >> 8 * (self.nvars - 1) if self.aux else 0

    def support(self, m: Monomial) -> frozenset:
        """Opaque keys of the variables dividing m, for ``free_of``."""
        return frozenset(compress(range(self.nvars), self._exponents(m)))

    def free_of(self, m: Monomial, keys) -> bool:
        """True iff no variable among ``keys`` (from ``support``) divides m."""
        exps = self._exponents(m)
        return not any(exps[k] for k in keys)

    def grid_support(self, m: Monomial) -> Iterator[tuple[int, int, int]]:
        """Yield (i, j, exponent) for the grid variables dividing m."""
        offset = 1 if self.aux else 0
        exps = self._exponents(m)
        for pos in range(offset, self.nvars):
            e = exps[pos]
            if e:
                idx = pos - offset
                i = idx // self.cols + 1
                j = self.cols - idx % self.cols
                yield i, j, e

    def sparse_monomial(self, m: Monomial) -> tuple:
        """Ring-independent canonical form: sorted ((i, j), e) pairs plus the
        auxiliary power; equal sparse forms mean literally equal monomials."""
        return (tuple(((i, j), e) for i, j, e in self.grid_support(m)),
                self.aux_degree(m))

    def render_monomial(self, m: Monomial) -> str:
        factors = []
        a = self.aux_degree(m)
        if a:
            factors.append(self.aux if a == 1 else f"{self.aux}^{a}")
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

    def aux_variable(self) -> "Polynomial":
        if not self.aux:
            raise ValueError("ring has no auxiliary variable")
        return Polynomial(self, {self.monomial(aux_power=1): 1})

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
        """Parse the canonical rendering grammar (also accepts '^' powers,
        arbitrary term order and fraction coefficients like 3/2)."""
        return _parse_polynomial(self, text)


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[\[\],*^+\-/]))")


def _parse_polynomial(ring: PolyRing, text: str) -> "Polynomial":
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"unexpected character {text[pos]!r} in polynomial")
            break
        tokens.append(m.group().strip())
        pos = m.end()
    idx = 0

    def peek() -> Optional[str]:
        return tokens[idx] if idx < len(tokens) else None

    def take(expected: Optional[str] = None) -> str:
        nonlocal idx
        if idx >= len(tokens):
            raise ValueError("unexpected end of polynomial")
        tok = tokens[idx]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        idx += 1
        return tok

    def parse_factor():
        tok = take()
        if tok.isdigit():
            value = int(tok)
            if peek() == "/":
                take("/")
                den = take()
                if not den.isdigit():
                    raise ValueError("malformed fraction coefficient")
                return Fraction(value, int(den)), ring.one_monomial()
            return value, ring.one_monomial()
        if tok == "x":
            take("[")
            i = int(take())
            take(",")
            j = int(take())
            take("]")
            exp = 1
            if peek() == "^":
                take("^")
                exp = int(take())
            return 1, ring.monomial({(int(i), int(j)): exp})
        if ring.aux and tok == ring.aux:
            exp = 1
            if peek() == "^":
                take("^")
                exp = int(take())
            return 1, ring.monomial(aux_power=exp)
        raise ValueError(f"unexpected token {tok!r} in polynomial")

    def parse_term():
        coeff, mono = parse_factor()
        while peek() == "*":
            take("*")
            c2, m2 = parse_factor()
            coeff = coeff * c2
            mono = monomial_mul(mono, m2)
        return coeff, mono

    terms = []
    sign = 1
    if peek() in ("+", "-"):
        sign = -1 if take() == "-" else 1
    while True:
        coeff, mono = parse_term()
        terms.append((mono, sign * coeff))
        nxt = peek()
        if nxt is None:
            break
        if nxt not in ("+", "-"):
            raise ValueError(f"expected '+' or '-', found {nxt!r}")
        sign = -1 if take() == "-" else 1
    return ring.polynomial(terms)


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


def monomial_coprime(a: Monomial, b: Monomial) -> bool:
    """True iff no variable divides both, that is iff lcm(a, b) = a * b."""
    return monomial_lcm(a, b) == a + b


def _lcm(a: Monomial, b: Monomial, guard: int) -> Monomial:
    """lcm(a, b), guard covering every byte of a and b.  With every guard
    bit set in a, one subtraction borrows nothing and leaves the guard bit of
    each byte where a >= b; each such bit becomes a 0x7f byte mask that
    selects a's exponent, the other bytes keep b's."""
    ge = ((a | guard) - b) & guard
    return b ^ ((a ^ b) & (ge - (ge >> 7)))


class Polynomial:
    """An immutable sparse polynomial; terms iterate in decreasing order.

    The leading monomial is cached once computed; a constructor that knows
    it (a rescaled or tail-reduced polynomial keeps its lead) passes it as
    ``lead``."""

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

    def is_homogeneous(self) -> bool:
        degrees = set(map(self.ring.monomial_degree, self._d))
        return len(degrees) <= 1

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
        field = self.ring.field
        c = field.coeff(c)
        d: dict = {}
        if c:
            field.axpy(d, self._d.items(), c)
        return Polynomial(self.ring, d, self._lead if c else None)

    def mul_term(self, mono: Monomial, c=1) -> "Polynomial":
        """c * x^mono * self"""
        field = self.ring.field
        c = field.coeff(c)
        d: dict = {}
        if c:
            field.axpy(d, self._d.items(), c, mono)
        return Polynomial(self.ring, d)

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
        if not isinstance(other, Polynomial):
            if other == 0:
                return self.is_zero
            return self == self.ring.const(other)
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
    expanded exactly with +-1 coefficients.

    Index lists must be equal-length, strictly increasing and inside the grid.
    The expansion is Laplace's along the first row, with each sub-minor
    expanded once per call.

    >>> r = PolyRing(2, 4)
    >>> str(minor(r, [1, 2], [3, 4]))
    '-x[1,4]*x[2,3] + x[1,3]*x[2,4]'
    """
    rows = tuple(rows)
    cols = tuple(cols)
    t = len(rows)
    if t == 0 or t != len(cols):
        raise ValueError("row and column index lists must be equal-length and nonempty")
    if list(rows) != sorted(set(rows)) or list(cols) != sorted(set(cols)):
        raise ValueError("index lists must be strictly increasing without repeats")
    if rows[-1] > ring.rows or cols[-1] > ring.cols or rows[0] < 1 or cols[0] < 1:
        raise ValueError("minor indices leave the grid")
    signs = (ring.field.coeff(1), ring.field.coeff(-1))
    return Polynomial(ring, _laplace(ring, rows, cols, signs, {}))


def _laplace(ring: PolyRing, rows: tuple, cols: tuple, signs: tuple, memo: dict) -> dict:
    """The terms of the minor on ``cols`` and the last len(cols) of ``rows``,
    expanded along its first row; ``memo`` maps the columns of each sub-minor
    already expanded to its terms."""
    t = len(cols)
    if t == 1:
        return {ring._variable(rows[-1], cols[0]): signs[0]}
    d = memo.get(cols)
    if d is None:
        d = memo[cols] = {}
        row = rows[-t]
        for k in range(t):
            sub = _laplace(ring, rows, cols[:k] + cols[k + 1:], signs, memo)
            ring.field.axpy(d, sub.items(), signs[k % 2], ring._variable(row, cols[k]))
    return d


def antidiagonal_monomial(ring: PolyRing, rows: Sequence[int], cols: Sequence[int]) -> Monomial:
    """The antidiagonal monomial of the minor on the given rows/columns: the
    product x[rows[0], cols[-1]] * x[rows[1], cols[-2]] * ...

    >>> r = PolyRing(2, 4)
    >>> r.render_monomial(antidiagonal_monomial(r, [1, 2], [3, 4]))
    'x[1,4]*x[2,3]'
    """
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols) or not rows:
        raise ValueError("row and column index lists must be equal-length and nonempty")
    t = len(rows)
    return ring.monomial([((rows[k], cols[t - 1 - k]), 1) for k in range(t)])


# ---------------------------------------------------------------------------
# Ideals, division, Buchberger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdealPresentation:
    """A finite list of nonzero generators in a fixed ring."""

    ring: PolyRing
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if not isinstance(g, Polynomial) or g.ring != self.ring:
                raise ValueError("generators must be polynomials of the ambient ring")
            if g.is_zero:
                raise ValueError("generators must be nonzero")


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
    reducer with the smallest leading monomial is preferred (ties broken by
    input order), which makes the division deterministic.
    """
    return normal_forms((f,), reducers)[0]


def normal_forms(fs: Sequence[Polynomial], reducers: Sequence[Polynomial]) -> tuple:
    """``normal_form(f, reducers)`` for each f in ``fs``, in order.  The
    reducers are prepared and sorted once for all of them, so a caller
    dividing many polynomials by one basis makes one call."""
    fs = tuple(fs)
    if not fs:
        return ()
    ring = fs[0].ring
    for f in fs:
        if f.ring is not ring and f.ring != ring:
            raise ValueError("polynomials must live in a common ring")
    prepared = sorted(_reducer_entry(ring, k, g) for k, g in enumerate(reducers))
    if not prepared:
        return fs
    return tuple(Polynomial(ring, _reduce_dict(dict(f._d), prepared, ring)) for f in fs)


def _reducer_entry(ring: PolyRing, k: int, g: Polynomial) -> tuple:
    """The division entry (lm, k, lc, terms) of reducer number k.  Entries
    sort by (lm, k), the reducer preference, because k is unique."""
    if g.ring is not ring and g.ring != ring:
        raise ValueError("reducers must live in the same ring")
    if g.is_zero:
        raise ValueError("reducers must be nonzero")
    lm = g.leading_monomial()
    return lm, k, g._d[lm], g._d


def _reduce_dict(p: dict, prepared: list, ring: PolyRing) -> dict:
    """Destructively reduce the term dict ``p``; returns the remainder dict."""
    if not prepared:
        return p
    div = ring.field.div
    axpy = ring.field.axpy
    guard = ring._guard
    rem: dict = {}
    while p:
        m = max(p)
        c = p[m]
        for lm, _, lc, gd in prepared:
            u = m - lm
            if not u & guard:  # lm | m, inlined
                axpy(p, gd.items(), -div(c, lc), u)
                break
        else:
            rem[m] = c
            del p[m]
    return rem


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


def buchberger(generators: Sequence[Polynomial] | IdealPresentation, *,
               basis: Sequence[Polynomial] = ()) -> tuple:
    """The reduced Groebner basis of the ideal generated by ``generators``
    and ``basis``.

    Pair handling uses the coprime-product and chain criteria (the
    Gebauer-Moeller installation) with normal-strategy selection (smallest
    lcm first, ties by pair index), so the run is deterministic.  The output
    is monic, auto-reduced, and sorted by increasing leading monomial.

    ``basis`` extends a known Groebner basis: the caller vouches that it is
    a reduced Groebner basis in the generators' ring, such as an earlier
    ``buchberger`` output.  Its elements serve as reducers from the start,
    but pairs are installed only for the new elements, so no S-pair between
    two basis elements is ever formed (they all reduce to zero already).
    Known elements are not re-reduced either: the final interreduction drops
    one whose lead a new lead divides, tail-reduces one with a term some new
    lead divides, and keeps every other one as it is.  Under
    ``certified()`` the output is checked against basis + generators, which
    catches a basis that breaks the contract, including one that is a
    Groebner basis but not a reduced one.

    >>> r = PolyRing(2, 2)
    >>> gb = buchberger([r.parse("x[1,1]*x[2,2] - 1"), r.parse("x[1,1]")])
    >>> [str(g) for g in gb]
    ['1']
    >>> gb = buchberger([r.parse("x[1,2]")], basis=buchberger([r.parse("x[1,1] - x[1,2]")]))
    >>> [str(g) for g in gb]
    ['x[1,1]', 'x[1,2]']
    """
    basis = tuple(basis)
    if isinstance(generators, IdealPresentation):
        ring = generators.ring
        gens = generators.generators
    else:
        gens = tuple(generators)
        if not gens and not basis:
            return ()
        ring = (gens or basis)[0].ring
    for g in gens + basis:
        if g.is_zero:
            raise ValueError("generators must be nonzero")
        if g.ring != ring:
            raise ValueError("generators must live in a common ring")
    core = _buchberger_core(ring, [g.monic() for g in basis + gens], len(basis))
    result = _interreduce(core, len(basis))
    if _CERTIFY:
        _certify_basis(ring, basis + gens, result)
    return result


def _buchberger_core(ring: PolyRing, basis: list, known: int) -> list:
    # basis: list of monic Polynomial whose first ``known`` elements form a
    # Groebner basis; pairs managed by Gebauer-Moeller update
    pairs: dict[tuple[int, int], Monomial] = {}
    heap: list = []
    leads = [g.leading_monomial() for g in basis]
    reducers: list = []
    for t in range(len(basis)):
        if t >= known:
            _gm_update(pairs, heap, leads, t, ring._guard)
        insort(reducers, _reducer_entry(ring, t, basis[t]))
    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in pairs:
            continue
        del pairs[(i, j)]
        s = s_polynomial(basis[i], basis[j])
        rem = _reduce_dict(dict(s._d), reducers, ring)
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
    lcms = [_lcm(lead, lt, guard) for lead in leads[:t]]
    # chain criterion among the new pairs: keep (i, t) only if no kept pair's
    # lcm divides its lcm (equal lcms keep the first)
    kept: list[int] = []
    kept_lcms: list = []
    for i in sorted(range(t), key=lambda i: (lcms[i], i)):
        lcm = lcms[i]
        for other in kept_lcms:
            if not (lcm - other) & guard:
                break
        else:
            kept.append(i)
            kept_lcms.append(lcm)
    # prune old pairs now covered by t
    for (i, j), lcm_ij in list(pairs.items()):
        if not (lcm_ij - lt) & guard and lcms[i] != lcm_ij and lcms[j] != lcm_ij:
            del pairs[(i, j)]
    # coprime-product criterion last (sound in combination with the above):
    # the leads are coprime exactly when their lcm is their product
    for i in kept:
        if lcms[i] == leads[i] + lt:
            continue
        pairs[(i, t)] = lcms[i]
        heapq.heappush(heap, (lcms[i], i, i, t))


def _interreduce(basis: list, known: int) -> tuple:
    """Minimalize and tail-reduce a nonzero monic basis into the reduced
    Groebner basis.  Its first ``known`` elements form a reduced Groebner
    basis already, so each of them is left as it is unless a new kept lead
    divides one of its terms."""
    if not basis:
        return ()
    ring = basis[0].ring
    guard = ring._guard
    # minimal: drop any element whose lead is divisible by another kept lead
    order = sorted(range(len(basis)), key=lambda k: (basis[k].leading_monomial(), k))
    kept: list = []
    kept_leads: list = []
    for k in order:
        lm = basis[k].leading_monomial()
        if any(not (lm - lead) & guard for lead in kept_leads):
            continue
        kept.append(k)
        kept_leads.append(lm)
    new_leads = [lead for k, lead in zip(kept, kept_leads) if k >= known]
    # reduced: replace each by its normal form against the others.  The kept
    # leads are distinct and increasing, so one sorted entry list serves
    # every element with its own entry left out, and tail reduction keeps
    # each lead, so the result stays sorted.
    prepared = [_reducer_entry(ring, idx, basis[k]) for idx, k in enumerate(kept)]
    reduced = []
    for idx, k in enumerate(kept):
        g = basis[k]
        if k < known and not any(not (m - lead) & guard
                                 for m in g._d for lead in new_leads):
            reduced.append(g)
            continue
        rem = _reduce_dict(dict(g._d), prepared[:idx] + prepared[idx + 1:], ring)
        reduced.append(Polynomial(ring, rem, g.leading_monomial()))
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


def is_reduced_groebner_basis(basis: Sequence[Polynomial]) -> bool:
    """Check the reduced-Groebner contract directly (used by the test suite)."""
    if not basis:
        return True
    ring = basis[0].ring
    try:
        _certify_basis(ring, (), tuple(basis))
    except GroebnerCertificationError:
        return False
    return True


# ---------------------------------------------------------------------------
# Variable transplants and saturation
# ---------------------------------------------------------------------------

def transplant(f: Polynomial, target: PolyRing,
               cell_map: Optional[dict[tuple[int, int], tuple[int, int]]] = None) -> Polynomial:
    """Re-express ``f`` in another ring, optionally relabelling grid variables
    through ``cell_map``; the auxiliary variable (if any) must be absent."""
    ring = f.ring
    terms = []
    for m, c in f._d.items():
        if ring.aux_degree(m):
            raise ValueError("cannot transplant a polynomial using the auxiliary variable")
        pairs = []
        for i, j, e in ring.grid_support(m):
            cell = (i, j) if cell_map is None else cell_map[(i, j)]
            pairs.append((cell, e))
        terms.append((target.monomial(pairs), c))
    return target.polynomial(terms)


def aux_ring(ring: PolyRing, name: str = "t") -> PolyRing:
    """The ring with one auxiliary variable adjoined (elimination order)."""
    if ring.aux:
        raise ValueError("ring already has an auxiliary variable")
    return PolyRing(ring.rows, ring.cols, ring.char, aux=name)


def saturate(ideal: IdealPresentation, c: Polynomial) -> IdealPresentation:
    """Generators of the saturation (I : c^infinity), computed by adjoining an
    auxiliary variable t, running Buchberger on I + <1 - t*c> under the
    elimination order, and keeping the t-free basis elements.

    The returned generators are themselves a reduced Groebner basis in the
    base ring, so membership in the localization of I at c is exactly
    ``normal_form(f, result.generators).is_zero``.

    >>> r = PolyRing(2, 2)
    >>> I = IdealPresentation(r, (r.parse("x[1,1]*x[2,2]"),))
    >>> [str(g) for g in saturate(I, r.variable(1, 1)).generators]
    ['x[2,2]']
    """
    ring = ideal.ring
    if c.ring != ring:
        raise ValueError("saturating element must live in the ideal's ring")
    if c.is_zero:
        raise ValueError("cannot saturate at zero")
    if not ideal.generators:
        return IdealPresentation(ring, ())
    extended = aux_ring(ring)
    lifted = [transplant(g, extended) for g in ideal.generators]
    lifted.append(extended.one() - extended.aux_variable() * transplant(c, extended))
    basis = buchberger(lifted)
    kept = [g for g in basis if all(extended.aux_degree(m) == 0 for m in g.monomials())]
    return IdealPresentation(ring, tuple(transplant(g, ring) for g in kept))


def ideals_equal(a: IdealPresentation, b: IdealPresentation) -> bool:
    """Ideal equality via mutual normal-form containment."""
    return (not any(normal_forms(b.generators, buchberger(a)))
            and not any(normal_forms(a.generators, buchberger(b))))
