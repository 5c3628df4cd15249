"""Brute-force reference implementations the fast engine is tested against.

Everything here trades speed for obviousness: subgroups come from an
exhaustive subset sweep or from the plain coset-skipping extension loop,
the subgroup counts of abelian groups, by order and by type, from a
closed form, poset facts from the raw definitions or from the transpose
of leq, table associativity from checking every triple, the abelian,
nilpotent and solvable flags from sweeps over the table or from Hall
p-complements in the lattice, element orders, conjugates and
normalizers from their definitions, and Cayley tables cell by cell in
pure Python.  Results are
cached per spec string because several test modules share them.
family_specs lists the specs of a family for the tests that sweep one.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from operator import and_

import numpy as np

from latcover import groups
from latcover.groups import GroupTable, ValidationResult, primes_of
from latcover.posets import IntervalCoverWitness, PosetView
from latcover.structure import p_complement, sylow_subgroups
from latcover.errors import SubgroupCapExceeded
from latcover.subgroups import Subgroup, SubgroupLattice, _zuppos, closure
from latcover.verify import _family, analyze_spec

_SUBGROUP_CACHE: dict[str, list[tuple[int, ...]]] = {}


def family_specs(family: str, max_order: int) -> list[str]:
    """The canonical specs of a family's members up to max_order, as scan_class_c lists them."""
    return [spec.canonical() for spec in _family(family).members(max_order)]


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """The q-binomial [n choose k]_q: for a prime power q, the k-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _conjugate(parts: list[int], length: int) -> list[int]:
    """The conjugate of a partition, padded with zeros to length entries."""
    return [sum(1 for x in parts if x >= i) for i in range(1, length + 1)]


def _partitions_inside(lam: list[int]) -> list[list[int]]:
    """Every partition nu with nu_i <= lam_i, as a list as long as lam."""
    out: list[list[int]] = [[]]
    for bound in lam:
        out = [nu + [x] for nu in out for x in range(min(bound, nu[-1] if nu else bound) + 1)]
    return out


# an abelian group's type: (p, nu) for each prime p of its order, ascending, where
# the Sylow p-subgroup is the product of the C_(p^nu_i), parts descending and nonzero
AbelianType = tuple[tuple[int, tuple[int, ...]], ...]


def abelian_subgroup_type_counts(cyclic_orders: list[int] | tuple[int, ...]) -> dict[AbelianType, int]:
    """The subgroups of C_n1 x ... x C_nk by type, from a closed form alone.

    For each prime p the p-parts p^lam_i of the n_i give the type lam of
    the Sylow p-subgroup.  Its subgroups of type nu, a partition inside
    lam, number

        prod_i p^(nu'_(i+1) (lam'_i - nu'_i)) [lam'_i - nu'_(i+1) choose nu'_i - nu'_(i+1)]_p

    where ' is the conjugate partition (Birkhoff; Butler, "Subgroup
    lattices and symmetric functions", 1994).  A subgroup is the product
    of its Sylow subgroups, so the counts of the primes multiply.
    """
    exps: dict[int, list[int]] = {}
    for n in cyclic_orders:
        p = 2
        while n > 1:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                exps.setdefault(p, []).append(e)
            p += 1
    counts: dict[AbelianType, int] = {(): 1}
    for p in sorted(exps):
        lam = sorted(exps[p], reverse=True)
        lam_c = _conjugate(lam, lam[0] + 1)
        by_type: dict[tuple[int, ...], int] = {}
        for nu in _partitions_inside(lam):
            nu_c = _conjugate(nu, lam[0] + 1)
            count = 1
            for i in range(lam[0]):
                count *= p ** (nu_c[i + 1] * (lam_c[i] - nu_c[i]))
                count *= gaussian_binomial(lam_c[i] - nu_c[i + 1], nu_c[i] - nu_c[i + 1], p)
            by_type[tuple(x for x in nu if x)] = count
        counts = {t + ((p, nu),): c * cn for t, c in counts.items() for nu, cn in by_type.items()}
    return counts


def abelian_subgroup_counts(cyclic_orders: list[int] | tuple[int, ...]) -> dict[int, int]:
    """The subgroups of C_n1 x ... x C_nk by order: the closed-form counts of each type, summed."""
    counts: dict[int, int] = {}
    for t, count in abelian_subgroup_type_counts(cyclic_orders).items():
        k = math.prod(p ** sum(nu) for p, nu in t)
        counts[k] = counts.get(k, 0) + count
    return counts


def abelian_subgroup_type(g: GroupTable, elems: tuple[int, ...]) -> AbelianType:
    """The type of an abelian subgroup, for each prime of |g|, from the orders of its elements.

    A Sylow p-subgroup of type nu has p^(nu'_1 + ... + nu'_k) elements
    of order dividing p^k, so each k that adds elements gives the next
    part of the conjugate partition nu'.
    """
    orders = g.element_orders
    out = []
    for p in primes_of(g.order):
        logs = [0]  # logs[k]: log_p of the elements of order dividing p^k
        while True:
            q = p ** len(logs)
            count = sum(1 for x in elems if q % orders[x] == 0)
            e = 0
            while count > 1:
                count //= p
                e += 1
            if e == logs[-1]:
                break
            logs.append(e)
        nu_c = [b - a for a, b in zip(logs, logs[1:])]
        out.append((p, tuple(_conjugate(nu_c, nu_c[0] if nu_c else 0))))
    return tuple(out)


def brute_subgroups(g: GroupTable) -> list[tuple[int, ...]]:
    """Every subgroup, found by testing subsets for closure.

    A finite subset containing the identity and closed under the product
    is a subgroup, so closure is the only thing checked.  Feasible up to
    order 24 or so.
    """
    if g.order <= 16:
        return _brute_bitmask(g)
    return _brute_batched(g)


def _brute_bitmask(g: GroupTable) -> list[tuple[int, ...]]:
    n = g.order
    mul = g.mul
    divs = set(_divisors(n))
    out = []
    for mask in range(1 << (n - 1)):
        elems = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1]
        if len(elems) not in divs:
            continue
        es = set(elems)
        if all(mul[a][b] in es for a in elems for b in elems):
            out.append(tuple(elems))
    return sorted(out, key=lambda t: (len(t), t))


def _brute_batched(g: GroupTable) -> list[tuple[int, ...]]:
    # same sweep, but sized subsets streamed through numpy in batches
    n = g.order
    m = np.asarray(g.mul, dtype=np.int64)
    orders = [element_order(g, i) for i in range(n)]
    out = [(0,)]
    for d in _divisors(n):
        if d == 1:
            continue
        allowed = [i for i in range(1, n) if d % orders[i] == 0]
        if len(allowed) < d - 1:
            continue
        combos = itertools.combinations(allowed, d - 1)
        while True:
            batch = list(itertools.islice(combos, 200_000))
            if not batch:
                break
            cand = np.zeros((len(batch), d), dtype=np.int64)
            cand[:, 1:] = np.asarray(batch, dtype=np.int64)
            bm = np.zeros(len(batch), dtype=np.int64)
            for j in range(d):
                bm |= np.int64(1) << cand[:, j]
            # products against the second element prune most rows cheaply
            p1 = m[cand[:, 1][:, None], cand]
            ok = np.ones(len(batch), dtype=bool)
            for j in range(d):
                ok &= (bm >> p1[:, j] & 1).astype(bool)
            for row in cand[ok]:
                es = {int(v) for v in row}
                if all(int(m[a, b]) in es for a in row for b in row):
                    out.append(tuple(int(v) for v in row))
    return sorted(out, key=lambda t: (len(t), t))


def sweep_validate_group(g: GroupTable) -> ValidationResult:
    """validate_group with associativity checked by the full O(n^3) sweep.

    The witness of an associativity failure is the least (a, b, c), in
    index order, with (a*b)*c != a*(b*c).
    """
    n = g.order
    if n < 1 or len(g.mul) != n or any(len(row) != n for row in g.mul):
        return ValidationResult(False, "shape", (n,))
    if len(g.inv) != n or len(g.labels) != n:
        return ValidationResult(False, "shape", (n,))
    m = np.asarray(g.mul, dtype=np.int64)
    if m.min() < 0 or m.max() >= n:
        bad = np.argwhere((m < 0) | (m >= n))[0]
        return ValidationResult(False, "latin", (int(bad[0]), int(bad[1])))
    ar = np.arange(n)
    if not np.array_equal(np.sort(m, axis=1), np.broadcast_to(ar, (n, n))):
        for i in range(n):
            seen: dict[int, int] = {}
            for j, v in enumerate(g.mul[i]):
                if v in seen:
                    return ValidationResult(False, "latin", (i, seen[v], j))
                seen[v] = j
    if not np.array_equal(np.sort(m, axis=0), np.broadcast_to(ar[:, None], (n, n))):
        for j in range(n):
            seen = {}
            for i in range(n):
                v = g.mul[i][j]
                if v in seen:
                    return ValidationResult(False, "latin", (seen[v], i, j))
                seen[v] = i
    if not (np.array_equal(m[0], ar) and np.array_equal(m[:, 0], ar)):
        for i in range(n):
            if g.mul[0][i] != i:
                return ValidationResult(False, "identity", (0, i, g.mul[0][i]))
            if g.mul[i][0] != i:
                return ValidationResult(False, "identity", (i, 0, g.mul[i][0]))
    iv = np.asarray(g.inv, dtype=np.int64)
    if iv.min() < 0 or iv.max() >= n or not (
        np.array_equal(m[ar, iv], np.zeros(n, dtype=np.int64))
        and np.array_equal(m[iv, ar], np.zeros(n, dtype=np.int64))
    ):
        for i in range(n):
            j = g.inv[i]
            if not 0 <= j < n or g.mul[i][j] != 0 or g.mul[j][i] != 0:
                return ValidationResult(False, "inverse", (i, j, g.mul[i][j] if 0 <= j < n else -1))
    # full O(n^3) sweep, chunked so peak memory stays modest
    block = max(1, (1 << 21) // max(1, n * n))
    for s in range(0, n, block):
        rows = m[s : s + block]
        left = m[rows]          # left[b, j, k] = m[m[s+b, j], k]
        right = rows[:, m]      # right[b, j, k] = m[s+b, m[j, k]]
        if not np.array_equal(left, right):
            b, j, k = np.argwhere(left != right)[0]
            return ValidationResult(False, "associativity", (s + int(b), int(j), int(k)))
    return ValidationResult(True)


def sweep_is_abelian(g: GroupTable) -> bool:
    """Every pair of elements commutes."""
    mul = g.mul
    return all(mul[i][j] == mul[j][i] for i in range(g.order) for j in range(i + 1, g.order))


def element_order(g: GroupTable, i: int) -> int:
    """Least k >= 1 with i multiplied by itself k times giving the identity."""
    if not 0 <= i < g.order:
        raise ValueError(f"element index {i} out of range for order {g.order}")
    k = 1
    x = i
    while x != 0:
        x = g.mul[x][i]
        k += 1
    return k


def conjugate_subgroup(g: GroupTable, sub: Subgroup, x: int) -> Subgroup:
    """The subgroup x^-1 * sub * x."""
    if not 0 <= x < g.order:
        raise ValueError(f"element index {x} out of range for order {g.order}")
    mul = g.mul
    pre = mul[g.inv[x]]
    return Subgroup(tuple(sorted(mul[pre[h]][x] for h in sub.elems)))


def normalizer(g: GroupTable, sub: Subgroup) -> Subgroup:
    """Elements whose conjugation maps sub onto itself."""
    mask = sub.mask
    mul = g.mul
    inv = g.inv
    keep = []
    for x in range(g.order):
        pre = mul[inv[x]]
        if all(mask >> mul[pre[h]][x] & 1 for h in sub.elems):
            keep.append(x)
    return Subgroup(tuple(keep))


def is_normal(g: GroupTable, sub: Subgroup) -> bool:
    return normalizer(g, sub).order == g.order


def normal_sylow_is_nilpotent(lat: SubgroupLattice) -> bool:
    """A Sylow p-subgroup is normal, checked by conjugating it by every element, for each p."""
    for p in primes_of(lat.group.order):
        first = sylow_subgroups(lat, p)[0]
        if not is_normal(lat.group, lat.subs[first]):
            return False
    return True


def _commutator_closure(g: GroupTable, elems: tuple[int, ...]) -> Subgroup:
    mul = g.mul
    inv = g.inv
    comms = {mul[mul[inv[x]][inv[y]]][mul[x][y]] for x in elems for y in elems}
    return closure(g, tuple(comms))


def derived_series_is_solvable(g: GroupTable) -> bool:
    """The derived series G, G', G'', ... reaches the trivial subgroup."""
    cur = tuple(range(g.order))
    while True:
        nxt = _commutator_closure(g, cur).elems
        if len(nxt) == 1:
            return True
        if len(nxt) == len(cur):
            return False
        cur = nxt


def hall_complements_is_solvable(lat: SubgroupLattice) -> bool:
    """A p-complement exists for every prime p (P. Hall, 1928 and 1937)."""
    return all(p_complement(lat, p) is not None for p in primes_of(lat.group.order))


def _coset_extend(g: GroupTable, elems: list[int], mask: int, gens: list[int], a: int) -> tuple[list[int], int]:
    """<H, a> by Dimino's coset step, giving up only past |G|/2 elements."""
    n = g.order
    mul = g.mul
    base = elems
    elems = list(base)
    step = [*gens, a]
    reps = [0]
    for r in reps:
        row = mul[r]
        for s in step:
            t = row[s]
            if mask >> t & 1:
                continue
            coset = [mul[h][t] for h in base]
            elems += coset
            for c in coset:
                mask |= 1 << c
            if len(elems) > n // 2:
                return list(range(n)), (1 << n) - 1
            reps.append(t)
    return elems, mask


def coset_enumerate_subgroups(g: GroupTable, max_subgroups: int = 100_000) -> SubgroupLattice:
    """enumerate_subgroups with only the right coset H*a of each zuppo tried marked as tried.

    Every zuppo outside the cosets tried so far is extended by Dimino's
    closure, whether or not a double coset or a normal prime-index step
    says the result is already known, so the lattice comes from the
    plain search.  Orbits are numbered in the order they were found;
    orbits_by_least_member renumbers them the way enumerate_subgroups
    does.  solvable comes from the Hall p-complement criterion.
    """
    n = g.order
    mul = g.mul
    inv = g.inv
    zuppos = _zuppos(g)
    ident = list(range(n))
    tables = [t for t in ([mul[mul[inv[x]][h]][x] for h in range(n)] for x in g.generators) if t != ident]
    found: dict[int, tuple[list[int], int]] = {}
    reps: list[tuple[list[int], int, list[int]]] = [([0], 1, [])]

    def add(elems: list[int], mask: int, k: int) -> None:
        found[mask] = (elems, k)
        if len(found) > max_subgroups:
            raise SubgroupCapExceeded(f"more than {max_subgroups} subgroups in group of order {n}")

    add([0], 1, 0)
    for base, base_mask, base_gens in reps:
        if len(base) == n:
            continue
        tried = base_mask
        for a in zuppos:
            if tried >> a & 1:
                continue
            for h in base:
                tried |= 1 << mul[h][a]
            elems, mask = _coset_extend(g, base, base_mask, base_gens, a)
            if mask in found:
                continue
            k = len(reps)
            reps.append((elems, mask, [*base_gens, a]))
            add(elems, mask, k)
            orbit = [elems]
            for cur in orbit:
                for t in tables:
                    c = [t[h] for h in cur]
                    m = 0
                    for e in c:
                        m |= 1 << e
                    if m not in found:
                        add(c, m, k)
                        orbit.append(c)

    ordered = sorted(
        ((sorted(elems), mask, k) for mask, (elems, k) in found.items()),
        key=lambda t: (len(t[0]), t[0]),
    )
    subs = [Subgroup(tuple(elems)) for elems, _, _ in ordered]
    within = [0] * n
    for j, s in enumerate(subs):
        for e in s.elems:
            within[e] |= 1 << j
    lat = SubgroupLattice(
        group=g,
        subs=subs,
        subset=[reduce(and_, [within[e] for e in s.elems]) for s in subs],
        orbit=[k for _, _, k in ordered],
        solvable=False,
        _index={mask: i for i, (_, mask, _) in enumerate(ordered)},
    )
    lat.solvable = hall_complements_is_solvable(lat)
    return lat


def orbits_by_least_member(orbit: list[int]) -> list[int]:
    """orbit renumbered so that orbits count up in the order of their least members."""
    rank: dict[int, int] = {}
    return [rank.setdefault(k, len(rank)) for k in orbit]


def subgroups_by_spec(spec: str) -> list[tuple[int, ...]]:
    if spec not in _SUBGROUP_CACHE:
        _SUBGROUP_CACHE[spec] = brute_subgroups(analyze_spec(spec).group)
    return _SUBGROUP_CACHE[spec]


def brute_breaking_points(view: PosetView) -> list[int]:
    out = []
    for x in range(view.size):
        if x == 0 or x == view.top_idx:
            continue
        if view.top_idx is None and not any(view.le(x, y) for y in range(view.size) if y != x):
            continue
        if all(view.le(x, y) or view.le(y, x) for y in range(view.size)):
            out.append(x)
    return out


def brute_cover_pairs(view: PosetView) -> list[tuple[int, int]]:
    els = [
        x
        for x in range(view.size)
        if x != 0 and (view.top_idx is None or x != view.top_idx)
    ]
    pairs = []
    for m in els:
        for n in els:
            if all(view.le(x, m) or view.le(n, x) for x in range(view.size)):
                pairs.append((m, n))
    return pairs


def loop_hasse_edges(view: PosetView) -> list[tuple[int, int]]:
    """Covering pairs (x, y), sorted, by one loop that takes no order into account.

    The least node strictly above x is a cover of x, as anything between
    would come before it.  Dropping everything above that cover leaves
    the least remaining node as the next cover, so each step emits one
    edge.
    """
    leq = view.leq
    edges = []
    for x in range(view.size):
        rem = leq[x] & ~(1 << x)
        while rem:
            y = (rem & -rem).bit_length() - 1
            edges.append((x, y))
            rem &= ~leq[y]
    return edges


def edge_list(covers: list[list[int]]) -> list[tuple[int, int]]:
    """hasse_edges's per-node cover lists as (x, y) pairs, sorted by x and then y."""
    return [(x, y) for x, ys in enumerate(covers) for y in ys]


def brute_hasse(view: PosetView) -> list[tuple[int, int]]:
    def lt(a: int, b: int) -> bool:
        return a != b and view.le(a, b)

    edges = []
    for x in range(view.size):
        for y in range(view.size):
            if lt(x, y) and not any(lt(x, z) and lt(z, y) for z in range(view.size)):
                edges.append((x, y))
    return edges


def transpose(rows: list[int]) -> list[int]:
    """The transpose of a bitrow matrix, one step per set bit: bit i of out[j] is bit j of rows[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        r = row
        while r:
            j = (r & -r).bit_length() - 1
            out[j] |= 1 << i
            r &= r - 1
    return out


def down_breaking_points(view: PosetView, down: list[int]) -> list[int]:
    """breaking_points through down, the transpose of leq: x qualifies when leq[x] | down[x] is every node."""
    full = (1 << view.size) - 1
    out = []
    for x in range(view.size):
        if x == 0 or x == view.top_idx:
            continue
        if view.top_idx is None and view.leq[x] == 1 << x:
            continue
        if view.leq[x] | down[x] == full:
            out.append(x)
    return out


def down_hasse_edges(view: PosetView, down: list[int]) -> list[tuple[int, int]]:
    """hasse_edges with one between-test per containment pair, through down."""
    edges = []
    for x in range(view.size):
        up = view.leq[x] & ~(1 << x)
        r = up
        while r:
            y = (r & -r).bit_length() - 1
            r &= r - 1
            if up & down[y] & ~(1 << y) == 0:
                edges.append((x, y))
    return edges


def down_two_interval_cover(
    view: PosetView, down: list[int], find_all: bool = False
) -> IntervalCoverWitness | tuple[int, int] | None:
    """two_interval_cover by walking m in search order and testing down[m] | leq[n].

    Without find_all it stops at the first pair and returns it as (m, n).

    When some node is not below m, n must lie below the least such
    node, so only those candidates are tried, still in search order.
    """
    full = (1 << view.size) - 1
    eligible = [x for x in range(view.size) if x != 0 and x != view.top_idx]
    ms = sorted(eligible, key=lambda i: (-view.orders[i], view.labels[i]))
    ns = sorted(eligible, key=lambda i: (view.orders[i], view.labels[i]))
    rank = {n: r for r, n in enumerate(ns)}
    pairs: list[tuple[int, int]] = []
    for m in ms:
        dm = down[m]
        missing = full & ~dm
        if missing:
            low = (missing & -missing).bit_length() - 1
            below = down[low]
            cands = []
            while below:
                x = (below & -below).bit_length() - 1
                if x in rank:
                    cands.append(x)
                below &= below - 1
            cands.sort(key=rank.__getitem__)
        else:
            cands = ns
        for n in cands:
            if dm | view.leq[n] == full:
                if not find_all:
                    return m, n
                pairs.append((m, n))
    if pairs:
        return IntervalCoverWitness(pairs[0][0], pairs[0][1], tuple(pairs))
    return None


def reachability(size: int, edges: list[tuple[int, int]]) -> list[int]:
    """Reflexive-transitive closure of an edge list, as leq bitrows."""
    adj: list[list[int]] = [[] for _ in range(size)]
    for x, y in edges:
        adj[x].append(y)
    rows = []
    for x in range(size):
        seen = {x}
        stack = [x]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        row = 0
        for v in seen:
            row |= 1 << v
        rows.append(row)
    return rows


def ordered_cover_pairs(view: PosetView) -> list[tuple[int, int]]:
    """Every cover pair, listed in two_interval_cover's documented search order.

    m runs by descending order then label, n by ascending order then
    label, ties by node index; bottom and top are never candidates.
    """
    els = [x for x in range(view.size) if x != 0 and x != view.top_idx]
    ms = sorted(els, key=lambda i: (-view.orders[i], view.labels[i], i))
    ns = sorted(els, key=lambda i: (view.orders[i], view.labels[i], i))
    return [
        (m, n)
        for m in ms
        for n in ns
        if all(view.le(x, m) or view.le(n, x) for x in range(view.size))
    ]


# ---------------------------------------------------------------------------
# tables handed to the engine


def relabelled(g: GroupTable, s: list[int]) -> GroupTable:
    """g with each element a renamed s[a], s a permutation fixing 0: s(a)*s(b) is s(a*b)."""
    n = g.order
    mul = [[0] * n for _ in range(n)]
    inv = [0] * n
    labels = [""] * n
    for a in range(n):
        row = mul[s[a]]
        for b, c in enumerate(g.mul[a]):
            row[s[b]] = s[c]
        inv[s[a]] = s[g.inv[a]]
        labels[s[a]] = g.labels[a]
    return GroupTable(n, mul, inv, labels, g.spec)


def draft_of(g: GroupTable) -> groups._Draft:
    """g's table as the unchecked draft a builder hands to build_group."""
    return groups._Draft(np.asarray(g.mul, dtype=np.int64), g.labels)


# ---------------------------------------------------------------------------
# Cayley tables cell by cell; python_build_metacyclic and
# python_table_from_perms take the arguments of the builder of the same
# name without the python_ prefix in latcover.groups, and return its draft


def table_of(d: groups._Draft, spec: str = "") -> GroupTable:
    """The group named spec whose table and labels the draft holds, each inverse found by a search of its row for 0."""
    mul = d.table.tolist()
    return GroupTable(len(mul), mul, [row.index(0) for row in mul], d.labels, spec)


def python_build_cyclic(spec) -> GroupTable:
    n = spec.n
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["1" if i == 0 else "a" if i == 1 else f"a^{i}" for i in range(n)]
    return table_of(groups._Draft(np.asarray(mul, dtype=np.int64), labels), spec.canonical())


def _word_label(i: int, e: int, xn: str, yn: str) -> str:
    parts = []
    if i:
        parts.append(xn if i == 1 else f"{xn}^{i}")
    if e:
        parts.append(yn if e == 1 else f"{yn}^{e}")
    return "*".join(parts) if parts else "1"


def python_build_metacyclic(mx: int, k: int, t: int, twist: int, xn: str, yn: str) -> groups._Draft:
    n = mx * k
    tpow = [pow(t, e, mx) for e in range(k)]
    mul = [[0] * n for _ in range(n)]
    for i in range(mx):
        for e in range(k):
            row = mul[i * k + e]
            te = tpow[e]
            for j in range(mx):
                lead = i + j * te
                for f in range(k):
                    s = e + f
                    i2 = (lead + twist * (s // k)) % mx
                    row[j * k + f] = i2 * k + (s % k)
    labels = [_word_label(i, e, xn, yn) for i in range(mx) for e in range(k)]
    return groups._Draft(np.asarray(mul, dtype=np.int64), labels)


def _cycle_label(p: tuple[int, ...], points) -> str:
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
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out) if out else "()"


def python_table_from_perms(perms: list[tuple[int, ...]], points) -> groups._Draft:
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[tuple(q[v] for v in p)] for q in perms] for p in perms]
    return groups._Draft(np.asarray(mul, dtype=np.int64), [_cycle_label(p, points) for p in perms])


def _perm_parity(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    parity = 0
    for s in range(len(p)):
        if seen[s]:
            continue
        length = 0
        v = s
        while not seen[v]:
            seen[v] = True
            v = p[v]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def listed_permutations(n: int, even: bool) -> list[tuple[int, ...]]:
    """Every permutation of 0..n-1, or every even one, in lexicographic order: S_n or A_n without a closure."""
    return [p for p in itertools.permutations(range(n)) if not (even and _perm_parity(p))]


def python_direct_product(g1: GroupTable, g2: GroupTable, max_order: int = 512) -> GroupTable:
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    mul = [[0] * n for _ in range(n)]
    for a1 in range(n1):
        r1 = g1.mul[a1]
        for b1 in range(n2):
            row = mul[a1 * n2 + b1]
            r2 = g2.mul[b1]
            for a2 in range(n1):
                base = r1[a2] * n2
                for b2 in range(n2):
                    row[a2 * n2 + b2] = base + r2[b2]
    inv = [g1.inv[i] * n2 + g2.inv[j] for i in range(n1) for j in range(n2)]
    labels = [f"({g1.labels[i]},{g2.labels[j]})" for i in range(n1) for j in range(n2)]
    return GroupTable(n, mul, inv, labels, f"{g1.spec}x{g2.spec}")


def full_degree_perm_group(text: str) -> GroupTable:
    """A perm: spec built on every point 0..degree-1, fixed ones included.

    The generators are composed cycle by cycle from the text and closed
    breadth first; elements are sorted as full-degree tuples.
    """
    _, deg, body = text.split(":")
    degree = int(deg)
    gens = []
    for part in body.split(";"):
        perm = list(range(degree))
        for cyc in part.strip("()").split(")(") if part != "()" else []:
            pts = [int(v) - 1 for v in cyc.split(",")]
            step = list(range(degree))
            for a, b in zip(pts, pts[1:] + pts[:1]):
                step[a] = b
            perm = [step[v] for v in perm]
        gens.append(tuple(perm))
    seen = {tuple(range(degree))}
    frontier = list(seen)
    while frontier:
        new = {tuple(g[v] for v in p) for p in frontier for g in gens} - seen
        seen |= new
        frontier = list(new)
    return table_of(python_table_from_perms(sorted(seen), range(degree)), text)


def element_orders_by_walk(g: GroupTable) -> list[int]:
    """Every element's order, from a walk of its own powers."""
    return [element_order(g, i) for i in range(g.order)]


def least_generators_by_walk(g: GroupTable) -> list[int]:
    """For each x, the least x^j with j prime to ord(x), that is, the least generator of <x>."""
    out = []
    for x in range(g.order):
        k = element_order(g, x)
        best, y = x, x
        for j in range(2, k):
            y = g.mul[y][x]
            if math.gcd(j, k) == 1:
                best = min(best, y)
        out.append(best)
    return out
