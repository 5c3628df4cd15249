"""Poset views over a subgroup lattice and its conjugacy classes.

Four views share one representation: L (all subgroups), Lbar (classes
of subgroups), C (cyclic subgroups), Cbar (classes of cyclic
subgroups).  Order relations are bitrows: bit j of leq[i] means node i
lies below node j.  build_poset derives every view's rows from the
lattice's containment rows, so the order on classes lives only in the
Lbar and Cbar views.  For C and Cbar the whole group is absent unless
it is itself cyclic, so those views may have no top.

Every view lists its nodes by ascending order (subgroups by (order,
elements), classes by their least member), and a node lies below only
nodes of larger order or itself.  The node order is therefore a linear
extension: leq[i] has no bit below i.  The queries rely on this to
read only leq, so no view keeps its transpose.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .groups import GroupTable, primes_of
from .subgroups import ConjClassPoset, Subgroup, SubgroupLattice

KINDS = ("L", "Lbar", "C", "Cbar")


def subgroup_is_cyclic(g: GroupTable, sub: Subgroup) -> bool:
    orders = g.element_orders
    return any(orders[e] == sub.order for e in sub.elems)


@dataclass
class PosetView:
    """One of the four poset views, with a fixed node order."""

    kind: str
    leq: list[int]
    labels: list[str]
    payload: list[int]      # subgroup index (L, C) or class index (Lbar, Cbar)
    orders: list[int]
    top_idx: int | None

    @property
    def size(self) -> int:
        return len(self.leq)

    def le(self, i: int, j: int) -> bool:
        return self.leq[i] >> j & 1 == 1


def build_poset(lat: SubgroupLattice, ccp: ConjClassPoset, kind: str) -> PosetView:
    """One view of the lattice; the only place a view's leq is derived from the containment rows.

    A node is a subgroup (L, C) or a class (Lbar, Cbar), and C and Cbar
    keep only the cyclic ones.  Node x lies below node y when some
    member of y contains the representative of x: the bits of the
    containment row of rep(x) that fall on kept subgroups, each mapped
    to its node.  L and C read lat.subset, which builds every row;
    Lbar and Cbar ask lat.rows for their representatives' rows alone.
    Node 0 is the trivial subgroup, the bottom; since the node order is
    a linear extension, the whole group is the last node, the top, when
    it is kept.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown poset kind {kind!r}, expected one of {KINDS}")
    by_class = kind in ("Lbar", "Cbar")
    reps = ccp.rep if by_class else range(len(lat.subs))
    if kind in ("C", "Cbar"):
        keep = [i for i, r in enumerate(reps) if lat.cyclic[r]]
    else:
        keep = list(range(len(reps)))
    if by_class:
        rows = lat.rows([reps[i] for i in keep])
    else:
        rows = list(map(lat.subset.__getitem__, keep))
    if len(keep) == len(lat.subs):
        # every node is one subgroup and none is dropped: node i is subgroup i
        leq = rows
    else:
        node = [0] * len(lat.subs)
        inside = 0  # a bit for every subgroup that belongs to a kept node
        for x, i in enumerate(keep):
            for j in ccp.classes[i] if by_class else (i,):
                node[j] = x
                inside |= 1 << j
        leq = []
        for above in rows:
            row = 0
            above &= inside
            while above:
                j = (above & -above).bit_length() - 1
                row |= 1 << node[j]
                above &= above - 1
            leq.append(row)
    orders = [lat.subs[reps[i]].order for i in keep]
    if by_class:
        labels = [f"o{o}×{len(ccp.classes[c])}" for o, c in zip(orders, keep)]
    else:
        labels = [f"o{o}" for o in orders]
    return PosetView(
        kind=kind,
        leq=leq,
        labels=labels,
        payload=keep,
        orders=orders,
        top_idx=len(keep) - 1 if reps[keep[-1]] == len(lat.subs) - 1 else None,
    )


def breaking_points(p: PosetView) -> list[int]:
    """Nodes comparable to everything, other than the bottom (node 0) and the top.

    In a view without a top, maximal nodes are excluded as well;
    anything below the missing whole group would not separate it.
    Every node after x must lie above x, which one shift of leq[x]
    tells; only the few x that pass are checked against the nodes
    before them, which must lie below x.
    """
    leq = p.leq
    full = (1 << p.size) - 1
    out = []
    for x in range(1, p.size):
        if x == p.top_idx:
            continue
        if p.top_idx is None and leq[x] == 1 << x:
            continue
        if leq[x] >> x == full >> x and all(leq[y] >> x & 1 for y in range(x)):
            out.append(x)
    return out


@dataclass(frozen=True)
class IntervalCoverWitness:
    """A pair (m, n) whose down-set and up-set jointly cover the poset.

    all_pairs lists every such pair in search order; (m_idx, n_idx) is its first.
    """

    m_idx: int
    n_idx: int
    all_pairs: tuple[tuple[int, int], ...]


def two_interval_cover(p: PosetView) -> IntervalCoverWitness | None:
    """Every (m, n) with every node below m or above n, or None if there is none.

    Bottom (node 0) and top are excluded as candidates for both slots; m = n is
    allowed.  Search order is fixed: m by descending order then label, n
    by ascending order then label, ties by node index.  For each n, the
    m that work are those above every node not above n, the AND of their
    leq rows.  The rows are taken from the highest node down, as those
    are the shortest, so the AND soon empties when no m works.
    """
    full = (1 << p.size) - 1
    eligible = [x for x in range(1, p.size) if x != p.top_idx]
    m_rank = {m: r for r, m in enumerate(sorted(eligible, key=lambda i: (-p.orders[i], p.labels[i])))}
    n_rank = {n: r for r, n in enumerate(sorted(eligible, key=lambda i: (p.orders[i], p.labels[i])))}
    elig = full & ~1
    if p.top_idx is not None:
        elig &= ~(1 << p.top_idx)
    leq = p.leq
    found = []
    for n in eligible:
        ms = elig
        rest = full & ~leq[n]
        while rest and ms:
            x = rest.bit_length() - 1
            ms &= leq[x]
            rest ^= 1 << x
        while ms:
            m = (ms & -ms).bit_length() - 1
            found.append((m_rank[m], n_rank[n], m, n))
            ms &= ms - 1
    if not found:
        return None
    found.sort()
    pairs = tuple((m, n) for _, _, m, n in found)
    return IntervalCoverWitness(pairs[0][0], pairs[0][1], pairs)


def _check_nodes(p: PosetView, *nodes: int) -> None:
    for x in nodes:
        if not 0 <= x < p.size:
            raise ValueError(f"node {x} out of range for {p.kind} view of size {p.size}")


def cover_holds(p: PosetView, m: int, n: int) -> bool:
    """Re-check a claimed cover pair node by node."""
    _check_nodes(p, m, n)
    return all(p.le(x, m) or p.le(n, x) for x in range(p.size))


def hasse_edges(p: PosetView) -> list[list[int]]:
    """The covers of each node, ascending: y covers x when x < y with nothing strictly between.

    A node above x whose order is a prime times |x| covers x, as by
    Lagrange no order lies strictly between.  Each order is one
    contiguous range of nodes, so those covers are the bits of leq[x] in
    the ranges of the orders p*|x|.  Any other cover lies above none of
    them.  Among the nodes above x that are left, the least is a cover,
    as anything between would come before it; dropping everything above
    it leaves the next, at one step per cover.  Nothing is left in the
    C and Cbar views, nor in any view of a nilpotent group, where every
    cover has prime index.
    """
    leq, orders = p.leq, p.orders
    # the nodes of each order, as (first node, a bit per node)
    span = {o: (lo := bisect_left(orders, o), (1 << bisect_right(orders, o) - lo) - 1) for o in sorted(set(orders))}
    # for each order o, the spans of the orders p*o, highest first
    up = {o: [span[q] for q in reversed(span) if q % o == 0 and primes_of(q // o) == [q // o]] for o in span}
    covers = []
    for x, row in enumerate(leq):
        ys = []
        for lo, bits in up[orders[x]]:
            level = row >> lo & bits
            while level:  # highest first, so ys comes out descending
                y = level.bit_length() - 1
                ys.append(lo + y)
                level ^= 1 << y
        ys.reverse()
        rest = row & ~reduce(or_, map(leq.__getitem__, ys), 1 << x)
        if rest:
            while rest:
                y = (rest & -rest).bit_length() - 1
                ys.append(y)
                rest &= ~leq[y]
            ys.sort()
        covers.append(ys)
    return covers
