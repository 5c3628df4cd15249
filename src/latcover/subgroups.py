"""Subgroup enumeration and conjugacy classes of subgroups.

Subgroups are stored as sorted element-index tuples plus a bitmask over
0..order-1, and the full listing is sorted by (order, elements) so every
index mentioned in reports is stable across runs.

Enumeration is the cyclic extension method over zuppos (Neubüser 1960):
each class representative is extended by one generator of every cyclic
subgroup of prime-power order, and every closure is Dimino's coset-based
step (Butler, LNCS 559, 1991), which adds whole right cosets of the
subgroup being extended.  A zuppo is skipped when its extension is
known already: a subgroup found before contains H and the zuppo with
prime index over H, so by Lagrange it is the extension; or the zuppo
lies in a double coset H*a*H of a zuppo a tried on the same H.  With
the first skip, an elementary abelian group runs one closure per
subgroup.  A closure stops as soon as it is larger than every proper
subgroup it could still be.  Conjugation orbits are collected under a
small generating set of the group rather than all of it.

conjugacy_classes turns the orbits into a plain partition of the
listing; the order on classes is derived with every other view's order
in posets.build_poset.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_, or_

from .errors import SubgroupCapExceeded
from .groups import GroupTable, primes_of

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
    n = g.order
    elems, mask, gens = [0], 1, []
    for s in seed:
        if not 0 <= s < n:
            raise ValueError(f"seed element {s} out of range for order {n}")
        if not mask >> s & 1:
            elems, mask = _extend(g, elems, mask, gens, s, n // primes_of(n // len(elems))[0])
            gens.append(s)
    return Subgroup(tuple(sorted(elems)))


def _extend(
    g: GroupTable, elems: list[int], mask: int, gens: list[int], a: int, limit: int
) -> tuple[list[int], int]:
    """Elements and mask of <H, a>, where gens generate H = elems and a is not in H.

    Dimino's step: <H, a> is a union of right cosets H*t.  From the coset
    H*1, every coset representative r and every s in gens + [a] give
    t = r*s, and the whole coset H*t is added unless t is already in.
    The result is closed under right multiplication by the generators,
    so it is the subgroup.  limit is |G|/p for the least prime p of
    |G:H|: a subgroup strictly between H and G has an order that |H|
    divides and that divides |G|, so it is at most that large.  Once
    more elements than limit are in, the only order left for <H, a> is
    |G|, and the whole group is returned at once.  The inputs are not
    mutated.
    """
    n = g.order
    mul = g.mul
    base = elems
    elems = list(base)
    step = [*gens, a]
    reps = [0]
    for r in reps:  # grows as cosets are added
        row = mul[r]
        for s in step:
            t = row[s]
            if mask >> t & 1:
                continue
            coset = [mul[h][t] for h in base]
            elems += coset
            for c in coset:
                mask |= 1 << c
            if len(elems) > limit:
                return list(range(n)), (1 << n) - 1
            reps.append(t)
    return elems, mask


def _zuppos(g: GroupTable) -> list[int]:
    """One generator, the least, of each cyclic subgroup of prime-power order."""
    orders, least = g.element_orders, g.least_generator
    prime_power = {k: len(primes_of(k)) == 1 for k in set(orders)}
    return [a for a in range(1, g.order) if least[a] == a and prime_power[orders[a]]]


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
    these numbers into the partition into classes.
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

    @cached_property
    def _orders(self) -> list[int]:
        return [len(s.elems) for s in self.subs]

    def of_order(self, k: int) -> range:
        """Indices of the subgroups of order k, a range since the listing is sorted by order."""
        orders = self._orders
        return range(bisect_left(orders, k), bisect_right(orders, k))

    @cached_property
    def cyclic(self) -> list[bool]:
        """cyclic[i] tells whether subs[i] is cyclic, that is, holds an element of order |subs[i]|."""
        of_order: dict[int, int] = {}
        for e, k in enumerate(self.group.element_orders):
            of_order[k] = of_order.get(k, 0) | 1 << e
        flags = [False] * len(self.subs)
        for mask, i in self._index.items():
            flags[i] = mask & of_order.get(self.subs[i].order, 0) != 0
        return flags


def enumerate_subgroups(g: GroupTable, max_subgroups: int = DEFAULT_MAX_SUBGROUPS) -> SubgroupLattice:
    """Enumerate every subgroup of g together with its conjugation orbit.

    Works one conjugacy class at a time: each orbit representative is
    extended by every zuppo it lacks, and each new subgroup contributes
    its whole conjugation orbit.  Extending only representatives reaches
    all classes, since <H, a> conjugates to <H^x, a^x>; extending only by
    zuppos reaches all subgroups, since every subgroup is generated by
    its elements of prime-power order.

    A zuppo is skipped when it is known to give a subgroup found before.
    First, when a subgroup K found before contains H and a, and |K:H|
    is prime, then H < <H, a> <= K forces <H, a> = K, so no closure
    runs and all of K counts as tried on H.  Bitrows over the found
    subgroups, one per zuppo and one per order, find such a K with a
    few big-integer ANDs.  Otherwise, after a is tried on H, so is the
    double coset H*a*H, since <H, h*a*h'> = <H, a>.  No skip changes
    the order in which new subgroups are found, so the orbit numbers
    and the subgroup at which the cap trips stay those of the plain
    search.
    """
    n = g.order
    mul = g.mul
    inv = g.inv
    zuppos = _zuppos(g)
    zuppo_mask = reduce(or_, [1 << z for z in zuppos], 0)

    # conjugation tables of the group's generators; central ones act trivially
    ident = list(range(n))
    tables = [t for t in ([mul[mul[inv[x]][h]][x] for h in range(n)] for x in g.generators) if t != ident]

    # mask -> (elements, orbit number); reps[k] is (elements, mask, generators) of orbit k
    found: dict[int, tuple[list[int], int]] = {}
    reps: list[tuple[list[int], int, list[int]]] = [([0], 1, [])]
    # masks[d] is the d-th subgroup found; bit d of holds[z] means it contains
    # zuppo z, and bit d of of_order[o] that its order is o
    masks: list[int] = []
    holds = [0] * n
    of_order: dict[int, int] = {}

    def add(elems: list[int], mask: int, k: int) -> None:
        bit = 1 << len(masks)
        masks.append(mask)
        found[mask] = (elems, k)
        of_order[len(elems)] = of_order.get(len(elems), 0) | bit
        inside = mask & zuppo_mask
        while inside:
            low = inside & -inside
            holds[low.bit_length() - 1] |= bit
            inside ^= low
        if len(found) > max_subgroups:
            raise SubgroupCapExceeded(f"more than {max_subgroups} subgroups in group of order {n}")

    add([0], 1, 0)  # the trivial subgroup counts against the cap too

    for base, base_mask, base_gens in reps:  # grows as new orbits are found
        order = len(base)
        if order == n:
            continue
        primes = primes_of(n // order)
        limit = n // primes[0]
        tried = base_mask  # a union of right cosets H*t
        # found subgroups that contain H with prime index, as of len(masks) == seen
        over, seen = 0, -1
        for a in zuppos:
            if tried >> a & 1:
                continue
            if seen != len(masks):
                seen = len(masks)
                above = reduce(or_, [of_order.get(p * order, 0) for p in primes])
                over = reduce(and_, [holds[x] for x in base_gens], above)
            # a found K holds H and a with |K:H| prime, so H < <H, a> <= K gives <H, a> = K;
            # there is at most one such K, and every element of K outside H gives it too
            known = holds[a] & over
            if known:
                tried |= masks[known.bit_length() - 1]
                continue
            # H*a*H is the cosets H*(a*h)
            for t in [mul[a][h] for h in base]:
                if not tried >> t & 1:
                    for h in base:
                        tried |= 1 << mul[h][t]
            elems, mask = _extend(g, base, base_mask, base_gens, a, limit)
            if mask in found:
                continue
            k = len(reps)
            add(elems, mask, k)
            # breadth-first over the orbit, one generator's conjugation at a time
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
            reps.append((elems, mask, [*base_gens, a]))

    ordered = sorted(
        ((sorted(elems), mask, k) for mask, (elems, k) in found.items()),
        key=lambda t: (len(t[0]), t[0]),
    )
    subs = [Subgroup(tuple(elems)) for elems, _, _ in ordered]
    # bit j of within[e] means e is in subs[j]
    within = [0] * n
    for j, s in enumerate(subs):
        bit = 1 << j
        for e in s.elems:
            within[e] |= bit
    subset = [reduce(and_, [within[e] for e in s.elems]) for s in subs]
    return SubgroupLattice(
        group=g,
        subs=subs,
        subset=subset,
        orbit=[k for _, _, k in ordered],
        trivial_idx=0,
        full_idx=len(subs) - 1,
        _index={mask: i for i, (_, mask, _) in enumerate(ordered)},
    )


@dataclass
class ConjClassPoset:
    """Conjugacy classes of subgroups, a partition of the lattice.

    classes[c] lists the subgroup indices of one enumeration orbit;
    rep[c] is the least of them, classes are numbered by rep, and
    class_of maps each subgroup index to its class.  The order on
    classes is not kept here: build_poset derives it for the Lbar and
    Cbar views.
    """

    lattice: SubgroupLattice
    classes: list[tuple[int, ...]]
    rep: list[int]
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
    return ConjClassPoset(lattice=lat, classes=classes, rep=[cls[0] for cls in classes], class_of=class_of)
