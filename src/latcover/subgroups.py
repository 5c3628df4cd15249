"""Subgroup enumeration and conjugacy classes of subgroups.

Subgroups are stored as sorted element-index tuples plus a bitmask over
0..order-1, and the full listing is sorted by (order, elements) so every
index mentioned in reports is stable across runs.

Enumeration is the cyclic extension method over zuppos (Neubüser 1960),
the generators of cyclic subgroups of prime-power order, one class
representative H at a time, and every extension <H, a> is Dimino's
coset-based step (Butler, LNCS 559, 1991), which adds whole right
cosets of H and stops as soon as it is larger than every proper
subgroup it could still be.  A first sweep over the representatives
takes only normal steps of prime index (Holt, Eick and O'Brien,
Handbook of Computational Group Theory, 2005): a zuppo a that
normalizes H and has a^p in H, for the prime p of its order, gives
<H, a> as the p cosets H*a^i.  Those steps reach exactly the solvable
subgroups, so they reach the whole group exactly when it is solvable,
and the lattice records that.  For any other group a second sweep
continues from the subgroups found: it goes over every representative
again, the first sweep's included, and tries every zuppo, skipping a
zuppo in a double coset H*a*H of a zuppo a tried on the same H.  Both
sweeps skip a zuppo when a subgroup found before contains H and the
zuppo with prime index over H, since by Lagrange it is the extension:
each base starts with every such subgroup counted as tried, and takes
in each one found while it is the base.  With that skip, an elementary
abelian group builds each nontrivial subgroup once.  Conjugation
orbits are collected under a small generating set of the group rather
than all of it, and numbered by their least member in the listing.

conjugacy_classes reads the orbit numbers as a plain partition of the
listing; the order on classes is derived with every other view's order
in posets.build_poset.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_, attrgetter, or_

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


@dataclass
class SubgroupLattice:
    """All subgroups of a group, ordered by inclusion.

    subs lists them by order, then elements, so subs[0] is the trivial
    subgroup and the whole group is the last.  within is a bitrow per
    element: bit j of within[e] means e is in subs[j].  rows gives the
    containment rows of the subgroups asked for, each the AND of its
    elements' within rows, and keeps none of them.  orbit[i]
    is the class number of subs[i]: orbits are numbered by their least
    member, so class numbers come from the listing, not from the order
    in which the search found them.  solvable tells whether the group
    is solvable, which the search's prime-index sweep finds out on the
    way.
    """

    group: GroupTable
    subs: list[Subgroup]
    within: list[int]
    orbit: list[int]
    solvable: bool
    _index: dict[int, int] = field(repr=False, default_factory=dict)

    def index_of(self, elems: tuple[int, ...] | Subgroup) -> int:
        """The listing index of a subgroup given by its elements, in any order.

        A KeyError names any other set: one with a repeated or out of
        range element, or one that is not closed.
        """
        if not isinstance(elems, Subgroup):
            elems = Subgroup(tuple(elems))
        n = self.group.order
        i = self._index.get(elems.mask) if all(0 <= e < n for e in elems.elems) else None
        if i is None or self.subs[i].order != elems.order:
            raise KeyError(f"{elems.elems} is not a subgroup of {self.group.spec}")
        return i

    def of_order(self, k: int) -> range:
        """Indices of the subgroups of order k, a range since the listing is sorted by order."""
        order = attrgetter("order")
        return range(bisect_left(self.subs, k, key=order), bisect_right(self.subs, k, key=order))

    def rows(self, indices: range | list[int]) -> list[int]:
        """The containment rows of the subgroups at indices: bit j of a row means that subgroup lies in subs[j]."""
        within, subs = self.within, self.subs
        return [reduce(and_, [within[e] for e in subs[i].elems]) for i in indices]

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


def _search(g: GroupTable, max_subgroups: int) -> tuple[dict[int, tuple[list[int], int]], bool]:
    """Subgroups found by cyclic extension, and whether g is solvable.

    The subgroups map mask -> (elements, orbit number in order found).
    The first sweep extends each class representative H only by the
    zuppos a that normalize H and have a^p in H, for the prime p of a's
    order; this reaches exactly the solvable subgroups.  When it misses
    g, a second sweep goes over every representative again, the first
    sweep's included, and tries every zuppo, with the double-coset skip.
    Every extension is Dimino's closure with the whole-group bound.
    Each base starts from the found subgroups over it of prime index,
    and walks its untried zuppos in ascending order, each the lowest set
    bit of what is left.
    """
    n = g.order
    full = (1 << n) - 1
    mul = g.mul
    inv = g.inv
    zuppos = _zuppos(g)
    is_zuppo = [False] * n
    zuppo_mask = 0
    for z in zuppos:
        is_zuppo[z] = True
        zuppo_mask |= 1 << z

    # conjugation tables of the group's generators but the central ones, which act trivially
    gens = g.generators
    tables = [[mul[h][x] for h in mul[inv[x]]] for x in gens if any(mul[x][y] != mul[y][x] for y in gens)]
    # with the bit of each image, so that a conjugate's mask is one sum
    tables = [(t, [1 << e for e in t]) for t in tables]

    # power[a] is a^p for the prime p of the order of zuppo a
    orders = g.element_orders
    prime_of = {k: primes_of(k)[0] for k in {orders[a] for a in zuppos}}
    power = [0] * n
    for a in zuppos:
        p = prime_of[orders[a]]
        if orders[a] > p:  # else a^p is the identity, 0
            t = a
            for _ in range(p - 1):
                t = mul[t][a]
            power[a] = t

    # mask -> (elements, orbit number); reps[k] is (elements, mask, generators, orbit length) of orbit k
    found: dict[int, tuple[list[int], int]] = {}
    reps: list[tuple[list[int], int, list[int], int]] = [([0], 1, [], 1)]
    # masks[d] is the d-th subgroup found; bit d of holds[z] means it contains
    # zuppo z, and bit d of of_order[o] that its order is o
    masks: list[int] = []
    holds = [0] * n
    of_order: dict[int, int] = {}
    # |H| -> (the orders p*|H| for the primes p of |G:H|, _extend's limit)
    levels: dict[int, tuple[set[int], int]] = {}

    def add(elems: list[int], mask: int, k: int) -> None:
        bit = 1 << len(masks)
        masks.append(mask)
        found[mask] = (elems, k)
        of_order[len(elems)] = of_order.get(len(elems), 0) | bit
        for z in filter(is_zuppo.__getitem__, elems):
            holds[z] |= bit
        if len(found) > max_subgroups:
            raise SubgroupCapExceeded(f"more than {max_subgroups} subgroups in group of order {n}")

    add([0], 1, 0)  # the trivial subgroup counts against the cap too

    for normal in (True, False):
        for base, base_mask, base_gens, conjugates in reps:  # grows as new orbits are found
            order = len(base)
            # |N_G(H)| is n / conjugates: no zuppo outside H normalizes H when that is |H|,
            # and every zuppo does when H is normal
            if order == n or normal and conjugates * order == n:
                continue
            check_normalizes = conjugates > 1
            if order not in levels:
                primes = primes_of(n // order)
                levels[order] = ({p * order for p in primes}, n // primes[0])
            steps, limit = levels[order]
            # every found K > H of prime index counts as tried: any element of K outside H gives
            # <H, a> = K, since H < <H, a> <= K
            tried = base_mask  # a union of right cosets H*t
            over = reduce(and_, [holds[x] for x in base_gens], reduce(or_, [of_order.get(s, 0) for s in steps]))
            while over:
                d = over.bit_length() - 1
                tried |= masks[d]
                over ^= 1 << d
            after = zuppo_mask  # the zuppos after the last one tried
            while todo := after & ~tried:
                low = todo & -todo
                a = low.bit_length() - 1
                after = todo ^ low
                if normal:
                    # a normalizes H when it conjugates H's generators into H
                    if check_normalizes:
                        row, ai = mul[a], inv[a]
                        for x in base_gens:
                            if not base_mask >> mul[row[x]][ai] & 1:
                                break
                        else:
                            x = None
                        if x is not None:  # a*x*a^-1 is outside H
                            continue
                    if not base_mask >> power[a] & 1:
                        continue
                else:
                    # H*a*H is the cosets H*(a*h)
                    for t in [mul[a][h] for h in base]:
                        if not tried >> t & 1:
                            for h in base:
                                tried |= 1 << mul[h][t]
                elems, mask = _extend(g, base, base_mask, base_gens, a, limit)
                if mask in found:  # only in the second sweep: a first-sweep step has prime index
                    continue
                k = len(reps)
                add(elems, mask, k)
                # a new subgroup that holds H with prime index is tried on H as the found ones are:
                # <H, a> itself, or a conjugate of it that holds H
                over_base = len(elems) in steps
                if over_base:
                    tried |= mask
                # breadth-first over the orbit, one generator's conjugation at a time
                orbit = [elems]
                for cur in orbit:
                    for t, bits in tables:
                        m = sum(map(bits.__getitem__, cur))
                        if m not in found:
                            c = list(map(t.__getitem__, cur))
                            add(c, m, k)
                            orbit.append(c)
                            if over_base and m & base_mask == base_mask:
                                tried |= m
                reps.append((elems, mask, [*base_gens, a], len(orbit)))
        if full in found:
            break
    # the first sweep reaches g exactly when it is solvable
    return found, normal


def enumerate_subgroups(g: GroupTable, max_subgroups: int = DEFAULT_MAX_SUBGROUPS) -> SubgroupLattice:
    """Enumerate every subgroup of g together with its conjugacy class.

    Works one conjugacy class at a time: each orbit representative H is
    extended by zuppos it lacks, and each new subgroup contributes its
    whole conjugation orbit.  Extending only representatives reaches
    all classes, since <H, a> conjugates to <H^x, a^x>.

    The first sweep extends H only by the zuppos a that normalize H
    and have a^p in H, for the prime p of a's order, so <H, a> is the p
    cosets H*a^i.  It reaches every solvable subgroup: a solvable
    S != 1 has a normal subgroup K of prime index p, so S = <K, b> for
    the p-part b of any element of S outside K, and the zuppo that
    generates <b> is such a zuppo for K.  It reaches no other
    subgroup, since each step keeps a chain of normal subgroups of
    prime index down to 1, so it finds G exactly when G is solvable.
    H has |G:N_G(H)| conjugates, so its orbit length settles the
    normalizer test for every zuppo when H is normal (one conjugate)
    or self-normalizing (|G:H| conjugates, and no step leaves H).

    When G is not found, a second sweep goes over every representative
    again, those of the first sweep included, with what it found kept,
    and tries every zuppo a.  That reaches all subgroups, since every
    subgroup is generated by its elements of prime-power order, and
    after a is tried on H so is the double coset H*a*H, since
    <H, h*a*h'> = <H, a>.

    In both sweeps, when a subgroup K found before contains H and a,
    and |K:H| is prime, then H < <H, a> <= K forces <H, a> = K, so
    nothing is built and all of K counts as tried on H.  So each base
    starts with every such K tried: bitrows over the found subgroups,
    one per zuppo and one per order, name them all with one AND per
    generator of H, once per base and not once per zuppo.  A subgroup
    found while H is the base is taken in when it holds H with prime
    index, a test on its mask alone.  In the first sweep, a zuppo that
    passes the tests and this one gives a new subgroup.

    The cap counts every subgroup found, so it trips exactly when g has
    more than max_subgroups subgroups; the subgroup at which it trips
    depends on the sweep.
    """
    n = g.order
    found, solvable = _search(g, max_subgroups)

    # by order, then elements; no two subgroups tie, so mask and orbit are never compared
    ordered = sorted((len(elems), sorted(elems), mask, k) for mask, (elems, k) in found.items())
    subs = [Subgroup(tuple(elems)) for _, elems, _, _ in ordered]
    # orbits numbered by their least member in the listing
    rank: dict[int, int] = {}
    for *_, k in ordered:
        rank.setdefault(k, len(rank))
    # bit j of within[e] means e is in subs[j]
    within = [0] * n
    for j, s in enumerate(subs):
        bit = 1 << j
        for e in s.elems:
            within[e] |= bit
    return SubgroupLattice(
        group=g,
        subs=subs,
        within=within,
        orbit=[rank[k] for *_, k in ordered],
        solvable=solvable,
        _index={mask: i for i, (_, _, mask, _) in enumerate(ordered)},
    )


@dataclass
class ConjClassPoset:
    """Conjugacy classes of subgroups, a partition of the lattice.

    classes[c] lists the subgroup indices of one conjugation orbit;
    rep[c] is the least of them, and classes are numbered by rep, so
    lat.orbit maps each subgroup index to its class.  The order on
    classes is not kept here: build_poset derives it for the Lbar and
    Cbar views.
    """

    classes: list[tuple[int, ...]]
    rep: list[int]


def conjugacy_classes(lat: SubgroupLattice) -> ConjClassPoset:
    members: list[list[int]] = []
    for i, c in enumerate(lat.orbit):
        if c == len(members):
            members.append([])
        members[c].append(i)
    classes = [tuple(m) for m in members]
    return ConjClassPoset(classes=classes, rep=[cls[0] for cls in classes])
