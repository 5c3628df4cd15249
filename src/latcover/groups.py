"""Finite groups as validated Cayley tables.

Each group family is defined once, as a GroupSpec subclass: it checks
its parameters when constructed, names its group, gives its order and
drafts its table, and a scan family (FAMILIES) lists its members.
Every family is realized through a fixed normal-form element encoding,
so tables, subgroup listings, and downstream reports come out
byte-identical across runs.  Elements are the integers 0..order-1 and
the identity always sits at index 0.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import OrderCapExceeded, SpecInvalid

DEFAULT_MAX_ORDER = 512


@dataclass(eq=False, repr=False)
class GroupTable:
    """A finite group on 0..order-1 with identity 0.

    Treated as immutable after construction; instances are safe to share.
    """

    order: int
    mul: list[list[int]]
    inv: list[int]
    labels: list[str]
    spec: str

    def __repr__(self) -> str:
        return f"GroupTable({self.spec!r}, order={self.order})"

    @cached_property
    def element_orders(self) -> list[int]:
        return self._cyclic_walk[0]

    @cached_property
    def least_generator(self) -> list[int]:
        """For each element x, the least element generating the cyclic subgroup <x>."""
        return self._cyclic_walk[1]

    @cached_property
    def _cyclic_walk(self) -> tuple[list[int], list[int]]:
        """Element orders and least generators, from one walk per cyclic subgroup.

        The powers of a are walked once, for the least a outside every
        cyclic subgroup walked so far.  With k = ord(a), the power a^j has
        order k/gcd(j, k), and a^i, a^j generate the same subgroup exactly
        when gcd(i, k) = gcd(j, k).  A subgroup met again inside a later
        walk keeps what the first walk set, which is the same.
        """
        n = self.order
        mul = self.mul
        orders = [0] * n
        least = [0] * n
        orders[0] = 1
        for a in range(1, n):
            if orders[a]:
                continue
            powers = []
            x = a
            while x:
                powers.append(x)
                x = mul[x][a]
            k = len(powers) + 1
            gcds = [math.gcd(j, k) for j in range(1, k)]
            first: dict[int, int] = {}
            for d, x in zip(gcds, powers):
                if not orders[x]:
                    orders[x] = k // d
                    if x < first.get(d, n):
                        first[d] = x
            for d, x in zip(gcds, powers):
                if d in first:
                    least[x] = first[d]
        return orders, least

    @cached_property
    def generators(self) -> list[int] | None:
        """At most order.bit_length() elements generating the group.

        None means more were needed, so the table is not a group; a table
        that is not a group may still get a list.
        """
        return _right_generators(self.mul)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    problem: str | None = None
    witness: tuple[int, ...] | None = None


def _right_generators(mul: list[list[int]] | np.ndarray) -> list[int] | None:
    """Greedy generators, in index order, whose right-multiplication closure from 0 is everything.

    mul is the table as rows or as an index array; only the column of
    each generator is read, as a list.  In a group each generator at
    least doubles the closure, so more than n.bit_length() of them means
    the table is not a group: None.
    """
    n = len(mul)
    reached = [False] * n
    reached[0] = True
    elems = [0]
    gens: list[int] = []
    cols: list[list[int]] = []
    for a in range(1, n):
        if len(elems) == n:
            break
        if reached[a]:
            continue
        if len(gens) == n.bit_length():
            return None
        gens.append(a)
        col = mul[:, a].tolist() if isinstance(mul, np.ndarray) else [row[a] for row in mul]
        cols.append(col)
        # elements already reached are closed under the older generators
        done = len(elems)
        for i in range(done):
            y = col[elems[i]]
            if not reached[y]:
                reached[y] = True
                elems.append(y)
        i = done
        while i < len(elems):
            x = elems[i]
            for c in cols:
                y = c[x]
                if not reached[y]:
                    reached[y] = True
                    elems.append(y)
            i += 1
    return gens


def validate_group(g: GroupTable) -> ValidationResult:
    """Check the four table axioms, reporting the first violation found.

    Checks run in a fixed order: latin square, identity row/column,
    two-sided inverses, associativity.  The witness is an index triple
    locating the violation.

    Associativity is proved by Light's test (Clifford and Preston, 1961):
    the elements a with (x*a)*y = x*(a*y) for all x, y include the
    identity and are closed under the product, so when every element is
    a product of a few generators, checking those generators proves the
    whole table associative in O(n^2) per generator.  When that fails or
    needs too many generators, the full O(n^3) sweep runs and reports the
    least violating triple.
    """
    n = g.order
    if n < 1 or len(g.mul) != n or any(len(row) != n for row in g.mul):
        return ValidationResult(False, "shape", (n,))
    return _validate_table(np.asarray(g.mul, dtype=np.int64), g.inv, g.labels)[0]


def _validate_table(
    m: np.ndarray, inv: Sequence[int], labels: Sequence[str]
) -> tuple[ValidationResult, list[int] | None]:
    """validate_group on the table as an n x n index array, and the generators Light's test used.

    A table with entries in range, identity 0, the given two-sided
    inverses and Light's test passing is associative, so it is a group,
    and a group's table is a latin square.  That is tried first, with no
    sort.  Only a table that fails it goes through the checks in their
    reporting order, to find its first violation.
    """
    n = len(m)
    if len(inv) != n or len(labels) != n:
        return ValidationResult(False, "shape", (n,)), None
    if m.min() < 0 or m.max() >= n:
        bad = np.argwhere((m < 0) | (m >= n))[0]
        return ValidationResult(False, "latin", (int(bad[0]), int(bad[1]))), None
    # the narrowest type that holds every index: the gathers below move a quarter of the bytes or less
    m = m.astype(np.min_scalar_type(n - 1), copy=False)
    ar = np.arange(n)
    zeros = np.zeros(n, dtype=np.int64)
    iv = np.asarray(inv, dtype=np.int64)
    identity = np.array_equal(m[0], ar) and np.array_equal(m[:, 0], ar)
    inverse = not (iv.min() < 0 or iv.max() >= n) and (
        np.array_equal(m[ar, iv], zeros) and np.array_equal(m[iv, ar], zeros)
    )
    gens = _right_generators(m)
    if identity and inverse and gens is not None and all(np.array_equal(m[m[:, a]], m[:, m[a]]) for a in gens):
        return ValidationResult(True), gens
    if not np.array_equal(np.sort(m, axis=1), np.broadcast_to(ar, (n, n))):
        for i, row in enumerate(m.tolist()):
            seen: dict[int, int] = {}
            for j, v in enumerate(row):
                if v in seen:
                    return ValidationResult(False, "latin", (i, seen[v], j)), gens
                seen[v] = j
    if not np.array_equal(np.sort(m, axis=0), np.broadcast_to(ar[:, None], (n, n))):
        for j, col in enumerate(m.T.tolist()):
            seen = {}
            for i, v in enumerate(col):
                if v in seen:
                    return ValidationResult(False, "latin", (seen[v], i, j)), gens
                seen[v] = i
    if not identity:
        first, left = m[0].tolist(), m[:, 0].tolist()
        for i in range(n):
            if first[i] != i:
                return ValidationResult(False, "identity", (0, i, first[i])), gens
            if left[i] != i:
                return ValidationResult(False, "identity", (i, 0, left[i])), gens
    if not inverse:
        for i in range(n):
            j = inv[i]
            if not 0 <= j < n or m[i, j] != 0 or m[j, i] != 0:
                return ValidationResult(False, "inverse", (i, j, int(m[i, j]) if 0 <= j < n else -1)), gens
    # Light's test did not prove it: the full O(n^3) sweep, chunked so peak memory stays modest
    block = max(1, (1 << 21) // max(1, n * n))
    for s in range(0, n, block):
        rows = m[s : s + block]
        left = m[rows]          # left[b, j, k] = m[m[s+b, j], k]
        right = rows[:, m]      # right[b, j, k] = m[s+b, m[j, k]]
        if not np.array_equal(left, right):
            b, j, k = np.argwhere(left != right)[0]
            return ValidationResult(False, "associativity", (s + int(b), int(j), int(k))), gens
    return ValidationResult(True), gens


# ---------------------------------------------------------------------------
# construction expressions


class GroupSpec:
    """A group construction expression; each subclass is one family.

    A family checks its parameters when a spec is constructed, so every
    spec object is valid.  It names its group, gives its order and drafts
    its table; a scan family (FAMILIES) also lists its members.
    """

    def expected_order(self) -> int | None:
        """Order implied by the parameters, or None when only known after closure.

        An order of at least _ORDER_BOUND may come back as any value
        that is itself at least that bound.
        """
        raise NotImplementedError

    def canonical(self) -> str:
        raise NotImplementedError

    def draft(self, max_order: int) -> _Draft:
        """The group's table, not yet checked; a group of unknown order stops past max_order."""
        raise NotImplementedError

    @classmethod
    def members(cls, max_order: int) -> list[GroupSpec]:
        """The members of order at most max_order that a scan of the family analyzes, in row order."""
        raise NotImplementedError


# Orders are multiplied out only up to this bound.  Anything larger is
# past every order cap, and has more digits than Python converts to text
# by default, so messages show it as the bound.
_ORDER_DIGITS = 4300
_ORDER_BOUND = 10**_ORDER_DIGITS


def _bounded_product(factors: Iterable[int]) -> int:
    """Product of the factors, or the first partial product >= _ORDER_BOUND."""
    out = 1
    for f in factors:
        out *= f
        if out >= _ORDER_BOUND:
            break
    return out


def _up_to(max_order: int, specs: Iterable[GroupSpec]) -> list[GroupSpec]:
    """The specs in the order given, up to the first whose group is larger than max_order."""
    return list(itertools.takewhile(lambda s: s.expected_order() <= max_order, specs))


def _is_pow2(v: int) -> bool:
    return v >= 1 and v & (v - 1) == 0


def primes_of(g: GroupTable | int) -> list[int]:
    """Distinct prime divisors of the group order (or of an integer), ascending."""
    n = g if isinstance(g, int) else g.order
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# Miller-Rabin with the prime bases up to 41 has no strong pseudoprime
# below this bound (Sorenson and Webster, 2017), so it is exact there.
_PRIME_TEST_BOUND = 3317044064679887385961981
_PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Whether n is prime, for n below _PRIME_TEST_BOUND, in time polynomial in its digits."""
    if n < 2:
        return False
    for p in _PRIME_TEST_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _PRIME_TEST_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Cyclic(GroupSpec):
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SpecInvalid(f"cyclic order must be >= 1, got {self.n}")

    def expected_order(self) -> int:
        return self.n

    def canonical(self) -> str:
        return f"C{self.n}"

    def draft(self, max_order: int) -> _Draft:
        return _build_metacyclic(self.n, 1, 1, 0, "a", "b", self.canonical())

    @classmethod
    def members(cls, max_order: int) -> list[GroupSpec]:
        return _up_to(max_order, map(cls, itertools.count(1)))


@dataclass(frozen=True)
class Dihedral(GroupSpec):
    order: int

    def __post_init__(self) -> None:
        if self.order < 4 or self.order % 2:
            raise SpecInvalid(f"dihedral order must be even and >= 4, got {self.order}")

    def expected_order(self) -> int:
        return self.order

    def canonical(self) -> str:
        return f"D{self.order}"

    def draft(self, max_order: int) -> _Draft:
        m = self.order // 2
        return _build_metacyclic(m, 2, m - 1, 0, "x", "y", self.canonical())

    @classmethod
    def members(cls, max_order: int) -> list[GroupSpec]:
        # D4 = C2xC2 is left out
        return _up_to(max_order, map(cls, itertools.count(6, 2)))


@dataclass(frozen=True)
class Dicyclic(GroupSpec):
    m: int          # order is 4m; m a power of two gives the quaternion family

    def __post_init__(self) -> None:
        if self.m < 2:
            raise SpecInvalid(f"dicyclic parameter must be >= 2, got {self.m}")

    def expected_order(self) -> int:
        return 4 * self.m

    def canonical(self) -> str:
        return f"Q{4 * self.m}" if _is_pow2(self.m) else f"Dic{self.m}"

    def draft(self, max_order: int) -> _Draft:
        m = self.m
        return _build_metacyclic(2 * m, 2, 2 * m - 1, m, "a", "b", self.canonical())

    @classmethod
    def members(cls, max_order: int) -> list[GroupSpec]:
        return _up_to(max_order, map(cls, itertools.count(2)))


@dataclass(frozen=True)
class ModularMaxCyclic(GroupSpec):
    p: int
    n: int

    def __post_init__(self) -> None:
        if self.p >= _PRIME_TEST_BOUND:
            raise SpecInvalid(
                f"modular family base {self.p} is too large: primality is decided only below {_PRIME_TEST_BOUND}"
            )
        if not _is_prime(self.p):
            raise SpecInvalid(f"modular family needs a prime base, got {self.p}")
        if self.n < (least := self._least_n(self.p)):
            raise SpecInvalid(f"M{self.p}^n needs n >= {least}, got n={self.n}")

    @staticmethod
    def _least_n(p: int) -> int:
        """The family's least n: 4 for p = 2, as M(2^3) would be D8, and 3 for odd p."""
        return 4 if p == 2 else 3

    def expected_order(self) -> int:
        return _bounded_product(itertools.repeat(self.p, self.n))

    def canonical(self) -> str:
        return f"M{self.p}^{self.n}"

    def draft(self, max_order: int) -> _Draft:
        p, n = self.p, self.n
        mx = p ** (n - 1)
        r = p ** (n - 2) + 1
        # y x y^-1 = x^(r^-1) follows from x^y = x^r; r has order p mod mx
        t = pow(r, p - 1, mx)
        return _build_metacyclic(mx, p, t, 0, "x", "y", self.canonical())

    @classmethod
    def members(cls, max_order: int) -> list[GroupSpec]:
        out = []
        p = 2
        while p**3 <= max_order:
            if _is_prime(p):
                out += _up_to(max_order, (cls(p, n) for n in itertools.count(cls._least_n(p))))
            p += 1
        return out


@dataclass(frozen=True)
class Semidihedral(GroupSpec):
    order: int

    def __post_init__(self) -> None:
        if not _is_pow2(self.order) or self.order < 16:
            raise SpecInvalid(f"semidihedral order must be 2^n with n >= 4, got {self.order}")

    def expected_order(self) -> int:
        return self.order

    def canonical(self) -> str:
        return f"SD{self.order}"

    def draft(self, max_order: int) -> _Draft:
        mx = self.order // 2
        r = mx // 2 - 1      # self-inverse mod mx
        return _build_metacyclic(mx, 2, r, 0, "x", "y", self.canonical())

    @classmethod
    def members(cls, max_order: int) -> list[GroupSpec]:
        return _up_to(max_order, (cls(1 << k) for k in itertools.count(4)))


@dataclass(frozen=True)
class Symmetric(GroupSpec):
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SpecInvalid(f"symmetric degree must be >= 1, got {self.n}")

    def expected_order(self) -> int:
        return _bounded_product(range(2, self.n + 1))

    def canonical(self) -> str:
        return f"S{self.n}"

    def draft(self, max_order: int) -> _Draft:
        n = self.n
        # a transposition and an n-cycle
        gens = [(1, 0, *range(2, n)), (*range(1, n), 0)] if n > 1 else []
        return _perm_draft(gens, range(n), self.canonical(), max_order)

    @classmethod
    def members(cls, max_order: int) -> list[GroupSpec]:
        # S1 and S2 are cyclic
        return _up_to(max_order, map(cls, itertools.count(3)))


@dataclass(frozen=True)
class Alternating(GroupSpec):
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SpecInvalid(f"alternating degree must be >= 1, got {self.n}")

    def expected_order(self) -> int:
        return _bounded_product(range(3, self.n + 1))  # n!/2, and 1 for n < 3

    def canonical(self) -> str:
        return f"A{self.n}"

    def draft(self, max_order: int) -> _Draft:
        # the 3-cycles (1 2 k)
        gens = [(1, k, *range(2, k), 0, *range(k + 1, self.n)) for k in range(2, self.n)]
        return _perm_draft(gens, range(self.n), self.canonical(), max_order)

    @classmethod
    def members(cls, max_order: int) -> list[GroupSpec]:
        # A1 to A3 are cyclic
        return _up_to(max_order, map(cls, itertools.count(4)))


@dataclass(frozen=True)
class ZM(GroupSpec):
    """Metacyclic group <a, b | a^m = b^n = 1, b a b^-1 = a^r>."""

    m: int
    n: int
    r: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise SpecInvalid(f"ZM parameters must be positive, got ({self.m},{self.n},{self.r})")
        if not 1 <= self.r <= max(1, self.m):
            raise SpecInvalid(f"ZM twist {self.r} out of range for modulus {self.m}")
        if math.gcd(self.m, self.n * (self.r - 1)) != 1:
            raise SpecInvalid(
                f"ZM({self.m},{self.n},{self.r}) needs gcd(m, n*(r-1)) = 1"
            )
        if pow(self.r, self.n, self.m) != 1 % self.m:
            raise SpecInvalid(f"ZM({self.m},{self.n},{self.r}) needs r^n = 1 (mod m)")

    def expected_order(self) -> int:
        return self.m * self.n

    def canonical(self) -> str:
        return f"ZM({self.m},{self.n},{self.r})"

    def draft(self, max_order: int) -> _Draft:
        return _build_metacyclic(self.m, self.n, self.r % max(1, self.m), 0, "a", "b", self.canonical())

    @classmethod
    def members(cls, max_order: int) -> list[GroupSpec]:
        """The non-abelian ones: m, n >= 2 and 1 < r < m, under the two rules above."""
        return [
            cls(m, n, r)
            for m in range(2, max_order // 2 + 1)
            for n in range(2, max_order // m + 1)
            for r in range(2, m)
            if math.gcd(m, n * (r - 1)) == 1 and pow(r, n, m) == 1
        ]


@dataclass(frozen=True)
class DirectProduct(GroupSpec):
    factors: tuple[GroupSpec, ...]

    def __post_init__(self) -> None:
        if len(self.factors) < 2:
            raise SpecInvalid("direct product needs at least two factors")

    def expected_order(self) -> int | None:
        total = 1
        for f in self.factors:
            o = f.expected_order()
            if o is None:
                return None
            total *= o
        return total

    def canonical(self) -> str:
        return "x".join(f.canonical() for f in self.factors)

    def draft(self, max_order: int) -> _Draft:
        # a product table is a group exactly when every factor's is, so only the product is checked
        return reduce(lambda a, b: _product(a, b, max_order), [_build(f, max_order) for f in self.factors])


@dataclass(frozen=True)
class PermGenerated(GroupSpec):
    """Closure of explicit permutation generators on points 0..degree-1.

    Only the points some generator moves are kept, in ascending order:
    each generator permutes 0..len(points)-1, where i stands for
    points[i], so the cost follows the cycles written, not the degree.
    """

    degree: int
    points: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise SpecInvalid(f"permutation degree must be >= 1, got {self.degree}")
        pts = list(self.points)
        if pts != sorted(set(pts)) or any(not 0 <= v < self.degree for v in pts):
            raise SpecInvalid(f"moved points must be distinct, ascending and in 0..{self.degree - 1}")
        for p in self.generators:
            if sorted(p) != list(range(len(self.points))):
                raise SpecInvalid(f"not a permutation of the {len(self.points)} moved points: {p}")

    def expected_order(self) -> None:
        return None

    def canonical(self) -> str:
        gens = ";".join(_cycles_text(p, self.points) for p in self.generators)
        return f"perm:{self.degree}:{gens}"

    def draft(self, max_order: int) -> _Draft:
        return _perm_draft(self.generators, self.points, self.canonical(), max_order)


# each scan family, in row order
FAMILIES: dict[str, type[GroupSpec]] = {
    "cyclic": Cyclic,
    "dihedral": Dihedral,
    "dicyclic": Dicyclic,
    "modular": ModularMaxCyclic,
    "semidihedral": Semidihedral,
    "symmetric": Symmetric,
    "alternating": Alternating,
    "zm": ZM,
}


# ---------------------------------------------------------------------------
# spec grammar


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:
        # past the interpreter's limit on digits converted (4300 by default)
        raise SpecInvalid(f"integer of {len(digits)} digits is too long") from None


def _parse_cycles(degree: int, text: str) -> dict[int, int]:
    """One generator written as 1-based cycles, e.g. '(1,2)(3,4)', as a map of the points it moves."""
    if text == "()":
        return {}
    if not re.fullmatch(r"(\(\d+(,\d+)*\))+", text):
        raise SpecInvalid(f"bad cycle notation: {text!r}")
    perm: dict[int, int] = {}
    pre: dict[int, int] = {}  # inverse of perm
    for body in re.findall(r"\(([^()]*)\)", text):
        pts = [_int(v) - 1 for v in body.split(",")]
        if any(not 0 <= v < degree for v in pts):
            raise SpecInvalid(f"cycle point out of range 1..{degree}: ({body})")
        if len(set(pts)) != len(pts):
            raise SpecInvalid(f"repeated point in cycle ({body})")
        # compose: apply accumulated permutation, then this cycle, so the
        # point perm sends to a now goes on to the cycle's image of a
        moved = {pre.get(a, a): b for a, b in zip(pts, pts[1:] + pts[:1])}
        perm.update(moved)
        pre.update({b: v for v, b in moved.items()})
    return {v: w for v, w in perm.items() if v != w}


def parse_spec(text: str) -> GroupSpec:
    """Parse a construction expression like 'Q16', 'ZM(7,3,2)' or 'C2xC2xM3^3'.

    The returned spec has already passed its family constraints.
    """
    s = text.strip()
    if not s:
        raise SpecInvalid("empty group spec")
    parts = s.split("x")  # no atom has an x in it
    if len(parts) == 1:
        return _parse_atom(s)
    if any(not p for p in parts):
        raise SpecInvalid(f"empty factor in product spec {text!r}")
    return DirectProduct(tuple(parse_spec(p) for p in parts))


# the atoms whose fields are the integers written, in field order
_ATOMS = (
    (r"C(\d+)", Cyclic),
    (r"D(\d+)", Dihedral),
    (r"Dic(\d+)", Dicyclic),
    (r"M(\d+)\^(\d+)", ModularMaxCyclic),
    (r"SD(\d+)", Semidihedral),
    (r"S(\d+)", Symmetric),
    (r"A(\d+)", Alternating),
    (r"ZM\((\d+),(\d+),(\d+)\)", ZM),
)


def _parse_atom(s: str) -> GroupSpec:
    for pattern, family in _ATOMS:
        if m := re.fullmatch(pattern, s):
            return family(*map(_int, m.groups()))
    if m := re.fullmatch(r"Q(\d+)", s):
        q = _int(m.group(1))
        if not _is_pow2(q) or q < 8:
            raise SpecInvalid(f"quaternion order must be 2^n >= 8, got {q}")
        return Dicyclic(q // 4)
    if m := re.fullmatch(r"perm:(\d+):(.+)", s):
        degree = _int(m.group(1))
        if degree < 1:
            raise SpecInvalid(f"permutation degree must be >= 1, got {degree}")
        maps = [_parse_cycles(degree, part) for part in m.group(2).split(";")]
        points = tuple(sorted(set().union(*maps)))
        local = {v: i for i, v in enumerate(points)}
        gens = tuple(tuple(local[mp.get(v, v)] for v in points) for mp in maps)
        return PermGenerated(degree, points, gens)
    raise SpecInvalid(f"unrecognized group spec {s!r}")


# ---------------------------------------------------------------------------
# table builders


def _rows(m: np.ndarray) -> list[list[int]]:
    """An n x n array of indices as lists of plain ints, one shared int object per index.

    CPython already shares the ints up to 256.  Above that, plain
    .tolist() makes a fresh int for every cell: 4 MB more for a
    512 x 512 table, whose list slots take 2 MB.
    """
    if len(m) <= 257:
        return m.tolist()
    return np.array(range(len(m)), dtype=object)[m].tolist()


@dataclass(frozen=True)
class _Draft:
    """A Cayley table as a builder made it, before build_group has checked it.

    table is the n x n index array the check reads, in any integer type
    that holds its entries; the metacyclic builder makes it narrow.  The
    rows GroupTable keeps are made from it once the check has passed.
    """

    table: np.ndarray
    inv: list[int]
    labels: list[str]
    spec: str

    def group(self) -> GroupTable:
        return GroupTable(len(self.table), _rows(self.table), self.inv, self.labels, self.spec)


def _from_array(m: np.ndarray, labels: list[str], spec_str: str) -> _Draft:
    """A table built as an array of indices.  Row x holds 0, the least index, once: at column x^-1."""
    return _Draft(m, m.argmin(axis=1).tolist(), labels, spec_str)


def _word_labels(mx: int, k: int, xn: str, yn: str) -> list[str]:
    """Labels x^i*y^e in index order i*k + e, dropping trivial parts."""
    xs = [""] + [xn if i == 1 else f"{xn}^{i}" for i in range(1, mx)]
    ys = [""] + [yn if e == 1 else f"{yn}^{e}" for e in range(1, k)]
    return [f"{x}*{y}" if x and y else x or y or "1" for x in xs for y in ys]


def _build_metacyclic(mx: int, k: int, t: int, twist: int, xn: str, yn: str, spec_str: str) -> _Draft:
    """Words x^i y^e with y x y^-1 = x^t and y^k = x^twist; index is i*k + e.

    With k = 1 the words are the powers of x: the cyclic group of order mx.
    """
    n = mx * k
    labels = _word_labels(mx, k, xn, yn)
    # x^i y^e * x^j y^f = x^(i + v) y^((e + f) mod k), with v = j t^e + twist [e + f >= k] mod mx,
    # has index (i k + w) mod n, where w is the index of x^v y^((e + f) mod k)
    s = np.arange(k)[:, None, None] + np.arange(k)  # e + f, on axes (e, j, f)
    tpow = np.array([pow(t, e, mx) for e in range(k)], dtype=np.int64)[:, None, None]
    w = (np.arange(mx)[:, None] * tpow + twist * (s // k)) % mx * k + s % k  # the only division
    # on axes (i, e, j, f), i k + w < 2n, in the narrowest unsigned type that holds 2n
    dt = np.min_scalar_type(2 * n)
    m = np.arange(0, n, k, dtype=dt)[:, None, None, None] + w.astype(dt)
    # where i k + w < n, m - n wraps around to above m
    m = np.minimum(m, m - dt.type(n))
    return _from_array(m.reshape(n, n), labels, spec_str)


def _cycles_text(p: tuple[int, ...], points: Sequence[int]) -> str:
    """p's cycles, 1-based, where p permutes 0..len(p)-1 standing for the given points."""
    out = []
    seen = [False] * len(p)
    for s in range(len(p)):
        if seen[s] or p[s] == s:
            seen[s] = True
            continue
        cyc = []
        v = s
        while not seen[v]:
            seen[v] = True
            cyc.append(str(points[v] + 1))
            v = p[v]
        out.append("(" + ",".join(cyc) + ")")
    return "".join(out) if out else "()"


def _cycle_label(p: tuple[int, ...], points: Sequence[int]) -> str:
    txt = _cycles_text(p, points)
    return txt.replace(",", " ")


def _table_from_perms(perms: list[tuple[int, ...]], points: Sequence[int], spec_str: str) -> _Draft:
    """Cayley table of a list of permutations closed under the product p*q, which applies p first.

    p*q sends v to q[p[v]].  Each element and each product gets a key
    numbering its distinct images on the points read so far; after the
    last point the keys of the elements are distinct and index them.  A
    point that splits no key is skipped: on the elements, and so on the
    products, which are elements, its image follows from the others.
    """
    n = len(perms)
    p = np.asarray(perms, dtype=np.int64).reshape(n, -1)
    d = p.shape[1]
    key = np.zeros(n, dtype=np.int64)
    prod_key = np.zeros((n, n), dtype=np.int64)
    size = 1
    for col in p.T:
        if size == n:
            break
        ref = key * d + col
        srt = np.sort(ref)
        uniq = srt[np.concatenate(([True], srt[1:] != srt[:-1]))]
        if len(uniq) == size:
            continue
        size = len(uniq)
        key = np.searchsorted(uniq, ref)
        # p[y, col[x]] is the image under x*y, at [x, y] after the transpose
        prod_key = np.searchsorted(uniq, prod_key * d + p[:, col].T)
    index = np.empty(n, dtype=np.int64)
    index[key] = np.arange(n)
    labels = [_cycle_label(q, points) for q in perms]
    return _from_array(index[prod_key], labels, spec_str)


def _perm_draft(
    generators: Sequence[tuple[int, ...]], points: Sequence[int], spec_str: str, max_order: int
) -> _Draft:
    """The table of the group that permutations of 0..len(points)-1 generate, its elements in sorted order."""
    identity = tuple(range(len(points)))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for gen in generators:
                q = tuple(map(gen.__getitem__, p))  # p, then gen
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if len(seen) > max_order:
                        raise OrderCapExceeded(
                            f"generated permutation group exceeds order cap {max_order}"
                        )
        frontier = nxt
    return _table_from_perms(sorted(seen), points, spec_str)


def _product(d1: _Draft, d2: _Draft, max_order: int) -> _Draft:
    """Pairwise product with mixed-radix encoding (i, j) -> i*|d2| + j; the tables are not checked."""
    n1, n2 = len(d1.table), len(d2.table)
    n = n1 * n2
    if n > max_order:
        raise OrderCapExceeded(f"product order {n} exceeds cap {max_order}")
    # axes (a1, b1, a2, b2): (a1, b1) * (a2, b2) = (a1 a2, b1 b2)
    # widened first: a factor's narrow index type need not hold i*|d2| + j
    m = (d1.table.astype(np.int64)[:, None, :, None] * n2 + d2.table[None, :, None, :]).reshape(n, n)
    inv = [i * n2 + j for i in d1.inv for j in d2.inv]
    labels = [f"({x},{y})" for x in d1.labels for y in d2.labels]
    return _Draft(m, inv, labels, f"{d1.spec}x{d2.spec}")


def _build(spec: GroupSpec, max_order: int) -> _Draft:
    """spec.draft(max_order), once the order the spec implies is known to be within the cap."""
    expected = spec.expected_order()
    if expected is not None and expected > max_order:
        shown = expected if expected < _ORDER_BOUND else f">= 10^{_ORDER_DIGITS}"
        raise OrderCapExceeded(f"{spec.canonical()} has order {shown} > cap {max_order}")
    return spec.draft(max_order)


def build_group(spec: GroupSpec | str, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Construct and validate the Cayley table for a spec (or spec string).

    The check reads the index array the builder made, with the checks of
    validate_group, and the table is turned into rows only once it has
    passed.  The generators Light's test found are kept as the group's.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    draft = _build(spec, max_order)
    check, gens = _validate_table(draft.table, draft.inv, draft.labels)
    if not check.ok:
        raise RuntimeError(
            f"constructed table for {spec.canonical()} failed {check.problem} at {check.witness}"
        )
    g = draft.group()
    g.generators = gens  # what GroupTable.generators would find again from the rows
    return g
