"""Structural facts about a group read off its table and lattice."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PrimeNotInOrder
from .groups import GroupTable, _is_prime
from .subgroups import ConjClassPoset, Subgroup, SubgroupLattice, closure


def primes_of(g: GroupTable | int) -> list[int]:
    """Distinct prime divisors of the group order, ascending."""
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


def _check_prime(g: GroupTable, p: int) -> None:
    if not _is_prime(p) or g.order % p:
        raise PrimeNotInOrder(f"{p} is not a prime divisor of group order {g.order}")


def is_abelian(g: GroupTable) -> bool:
    mul = g.mul
    return all(mul[i][j] == mul[j][i] for i in range(g.order) for j in range(i + 1, g.order))


def is_cyclic(g: GroupTable) -> bool:
    return any(o == g.order for o in g.element_orders)


def _commutator_closure(g: GroupTable, elems: tuple[int, ...]) -> Subgroup:
    mul = g.mul
    inv = g.inv
    comms = {mul[mul[inv[x]][inv[y]]][mul[x][y]] for x in elems for y in elems}
    return closure(g, tuple(comms))


def derived_subgroup(g: GroupTable) -> Subgroup:
    """Subgroup generated by all commutators."""
    return _commutator_closure(g, tuple(range(g.order)))


def is_solvable(g: GroupTable) -> bool:
    """Derived series reaches the trivial subgroup."""
    cur = tuple(range(g.order))
    while True:
        nxt = _commutator_closure(g, cur).elems
        if len(nxt) == 1:
            return True
        if len(nxt) == len(cur):
            return False
        cur = nxt


def is_normal(g: GroupTable, sub: Subgroup) -> bool:
    mask = sub.mask
    mul = g.mul
    inv = g.inv
    for x in range(g.order):
        pre = mul[inv[x]]
        if not all(mask >> mul[pre[h]][x] & 1 for h in sub.elems):
            return False
    return True


def _p_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def sylow_subgroups(g: GroupTable, lat: SubgroupLattice, p: int) -> list[int]:
    """Indices of the subgroups of maximal p-power order."""
    _check_prime(g, p)
    size = p ** _p_valuation(g.order, p)
    return [i for i, s in enumerate(lat.subs) if s.order == size]


def is_nilpotent(g: GroupTable, lat: SubgroupLattice) -> bool:
    """Every Sylow subgroup is normal."""
    for p in primes_of(g):
        first = sylow_subgroups(g, lat, p)[0]
        if not is_normal(g, lat.subs[first]):
            return False
    return True


def omega1(g: GroupTable, lat: SubgroupLattice, p: int) -> Subgroup:
    """Subgroup generated by all elements of order p."""
    _check_prime(g, p)
    seeds = tuple(i for i, o in enumerate(g.element_orders) if o == p)
    return closure(g, seeds)


def maximal_subgroups(lat: SubgroupLattice) -> list[int]:
    full = lat.full_idx
    return [
        i
        for i in range(len(lat.subs))
        if i != full and lat.subset[i] == (1 << i) | (1 << full)
    ]


def frattini(g: GroupTable, lat: SubgroupLattice) -> Subgroup:
    """Intersection of all maximal subgroups; trivial for the trivial group."""
    mask = (1 << g.order) - 1
    for i in maximal_subgroups(lat):
        mask &= lat.subs[i].mask
    elems = []
    while mask:
        e = (mask & -mask).bit_length() - 1
        elems.append(e)
        mask &= mask - 1
    return lat.subs[lat.index_of(tuple(elems))]


def is_generalized_quaternion(g: GroupTable, lat: SubgroupLattice) -> bool:
    """Noncyclic 2-group of order at least 8 with a single order-2 subgroup."""
    n = g.order
    if n < 8 or n & (n - 1):
        return False
    if is_cyclic(g):
        return False
    return sum(1 for s in lat.subs if s.order == 2) == 1


def is_cyclic_pgroup_order_ge_p2(g: GroupTable) -> bool:
    ps = primes_of(g)
    if len(ps) != 1 or g.order == ps[0]:
        return False
    return is_cyclic(g)


def order_p_subgroups_conjugate(g: GroupTable, lat: SubgroupLattice, ccp: ConjClassPoset, p: int) -> bool:
    """All subgroups of order p form one conjugacy class."""
    _check_prime(g, p)
    hits = sum(1 for c in range(len(ccp.classes)) if lat.subs[ccp.rep[c]].order == p)
    return hits == 1


def p_complement(g: GroupTable, lat: SubgroupLattice, p: int) -> Subgroup | None:
    """First subgroup of order |G| / p^v, or None when no such subgroup exists."""
    _check_prime(g, p)
    size = g.order // p ** _p_valuation(g.order, p)
    for s in lat.subs:
        if s.order == size:
            return s
        if s.order > size:
            break
    return None


@dataclass(frozen=True)
class StructureProfile:
    primes: tuple[int, ...]
    is_abelian: bool
    is_cyclic: bool
    is_p_group: bool
    is_nilpotent: bool
    is_solvable: bool
    is_generalized_quaternion: bool
    exponent_facts: dict[int, int]


def build_profile(g: GroupTable, lat: SubgroupLattice, ccp: ConjClassPoset) -> StructureProfile:
    ps = primes_of(g)
    counts = {p: sum(1 for s in lat.subs if s.order == p) for p in ps}
    return StructureProfile(
        primes=tuple(ps),
        is_abelian=is_abelian(g),
        is_cyclic=is_cyclic(g),
        is_p_group=len(ps) == 1,
        is_nilpotent=is_nilpotent(g, lat),
        is_solvable=is_solvable(g),
        is_generalized_quaternion=is_generalized_quaternion(g, lat),
        exponent_facts=counts,
    )
