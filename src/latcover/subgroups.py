"""Subgroup enumeration and conjugacy classes of subgroups.

Subgroups are stored as sorted element-index tuples plus a bitmask over
0..order-1, and the full listing is sorted by (order, elements) so every
index mentioned in reports is stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import SubgroupCapExceeded
from .groups import GroupTable

DEFAULT_MAX_SUBGROUPS = 100_000


@dataclass(frozen=True)
class Subgroup:
    elems: tuple[int, ...]

    @cached_property
    def mask(self) -> int:
        m = 0
        for e in self.elems:
            m |= 1 << e
        return m

    @property
    def order(self) -> int:
        return len(self.elems)


def closure(g: GroupTable, seed: tuple[int, ...] | list[int]) -> Subgroup:
    """Smallest subgroup containing the seed elements (and the identity)."""
    fresh = []
    seen = {0}
    for s in seed:
        if not 0 <= s < g.order:
            raise ValueError(f"seed element {s} out of range for order {g.order}")
        if s not in seen:
            seen.add(s)
            fresh.append(s)
    flags = bytearray(g.order)
    flags[0] = 1
    elems = [0]
    _extend(g, flags, elems, fresh)
    return Subgroup(tuple(sorted(elems)))


def _extend(g: GroupTable, flags: bytearray, elems: list[int], fresh: list[int]) -> None:
    """Grow (flags, elems) to closure after adding the fresh elements.

    flags/elems must already describe a subgroup not containing fresh.
    Mutates all three lists in place; elems ends unsorted.
    """
    mul = g.mul
    n = g.order
    for f in fresh:
        flags[f] = 1
    work = list(fresh)
    elems.extend(fresh)
    while work:
        a = work.pop()
        row = mul[a]
        for b in tuple(elems):
            for c in (row[b], mul[b][a]):
                if not flags[c]:
                    flags[c] = 1
                    elems.append(c)
                    work.append(c)
        if len(elems) > n // 2:
            # index 2 subgroups are as large as proper ones get
            for c in range(n):
                if not flags[c]:
                    flags[c] = 1
                    elems.append(c)
            return


def conjugate_subgroup(g: GroupTable, sub: Subgroup, x: int) -> Subgroup:
    """The subgroup x^-1 * sub * x."""
    mul = g.mul
    xi = g.inv[x]
    pre = mul[xi]
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


@dataclass
class SubgroupLattice:
    """All subgroups of a group, ordered by inclusion.

    subset is a bitrow per subgroup: bit j of subset[i] means subs[i] is
    contained in subs[j].  orbit[i] numbers the conjugation orbit of
    subs[i] in the order enumeration found them; conjugacy_classes turns
    these numbers into the class poset.
    """

    group: GroupTable
    subs: list[Subgroup]
    subset: list[int]
    orbit: list[int]
    trivial_idx: int
    full_idx: int
    _index: dict[int, int] = field(repr=False, default_factory=dict)

    def __len__(self) -> int:
        return len(self.subs)

    def index_of(self, elems: tuple[int, ...] | Subgroup) -> int:
        if not isinstance(elems, Subgroup):
            elems = Subgroup(tuple(elems))
        return self._index[elems.mask]


def enumerate_subgroups(g: GroupTable, max_subgroups: int = DEFAULT_MAX_SUBGROUPS) -> SubgroupLattice:
    """Enumerate every subgroup of g together with its conjugation orbit.

    Works one conjugacy class at a time: each orbit representative is
    extended by single generators, and each new subgroup contributes its
    whole conjugation orbit.  Extending only representatives reaches all
    classes, since closure(H, a) conjugates to closure(H^x, a^x).
    """
    n = g.order
    mul = g.mul

    # one generator per cyclic subgroup keeps the branching factor down
    cyclic_of: dict[int, tuple[int, ...]] = {}
    gen_reps: list[int] = []
    seen_cyc: set[int] = set()
    for a in range(1, n):
        elems = [0]
        x = a
        while x != 0:
            elems.append(x)
            x = mul[x][a]
        cyc = Subgroup(tuple(sorted(elems)))
        cyclic_of[a] = cyc.elems
        if cyc.mask not in seen_cyc:
            seen_cyc.add(cyc.mask)
            gen_reps.append(a)

    # mask -> (elements, orbit number); reps[k] represents orbit k
    found: dict[int, tuple[tuple[int, ...], int]] = {1: ((0,), 0)}
    reps: list[tuple[int, ...]] = [(0,)]

    def add_orbit(sub: Subgroup) -> None:
        if sub.mask in found:
            return
        k = len(reps)
        reps.append(sub.elems)
        for x in range(n):
            c = conjugate_subgroup(g, sub, x)
            if c.mask not in found:
                found[c.mask] = (c.elems, k)
                if len(found) > max_subgroups:
                    raise SubgroupCapExceeded(
                        f"more than {max_subgroups} subgroups in group of order {n}"
                    )

    for base in reps:  # grows as add_orbit finds new orbits
        base_mask = 0
        for e in base:
            base_mask |= 1 << e
        if len(base) == n:
            continue
        for a in gen_reps:
            if base_mask >> a & 1:
                continue
            flags = bytearray(n)
            elems = list(base)
            for e in base:
                flags[e] = 1
            fresh = [e for e in cyclic_of[a] if not flags[e]]
            _extend(g, flags, elems, fresh)
            add_orbit(Subgroup(tuple(sorted(elems))))

    ordered = sorted(found.items(), key=lambda kv: (len(kv[1][0]), kv[1][0]))
    subs = [Subgroup(elems) for _, (elems, _) in ordered]
    subset = []
    for s in subs:
        row = 0
        sm = s.mask
        for j, t in enumerate(subs):
            if sm & t.mask == sm:
                row |= 1 << j
        subset.append(row)
    return SubgroupLattice(
        group=g,
        subs=subs,
        subset=subset,
        orbit=[k for _, (_, k) in ordered],
        trivial_idx=0,
        full_idx=len(subs) - 1,
        _index={mask: i for i, (mask, _) in enumerate(ordered)},
    )


@dataclass
class ConjClassPoset:
    """Conjugacy classes of subgroups, ordered by contained-in-some-member.

    classes[c] lists the subgroup indices of one enumeration orbit;
    rep[c] is the least of them, and classes are numbered by rep.  Bit
    c2 of leq[c1] means some member of c2 contains rep(c1).
    """

    lattice: SubgroupLattice
    classes: list[tuple[int, ...]]
    rep: list[int]
    leq: list[int]
    bottom_idx: int
    top_idx: int
    class_of: list[int]

    def __len__(self) -> int:
        return len(self.classes)


def conjugacy_classes(lat: SubgroupLattice) -> ConjClassPoset:
    members: dict[int, list[int]] = {}
    for i, k in enumerate(lat.orbit):
        members.setdefault(k, []).append(i)
    # first-seen order of orbits is the order of their least members
    classes = [tuple(m) for m in members.values()]
    class_of = [0] * len(lat.subs)
    for c, cls in enumerate(classes):
        for i in cls:
            class_of[i] = c
    rep = [cls[0] for cls in classes]
    leq = []
    for r in rep:
        row = 0
        above = lat.subset[r]
        while above:
            j = (above & -above).bit_length() - 1
            row |= 1 << class_of[j]
            above &= above - 1
        leq.append(row)
    return ConjClassPoset(
        lattice=lat,
        classes=classes,
        rep=rep,
        leq=leq,
        bottom_idx=class_of[lat.trivial_idx],
        top_idx=class_of[lat.full_idx],
        class_of=class_of,
    )
