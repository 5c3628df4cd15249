"""Structural facts about a group read off its lattice and generators.

A function takes the group table when the table alone decides its
answer, and the subgroup lattice otherwise; a lattice carries its table
as lat.group, so no function takes both.

The profile flags do no pass over the Cayley table: abelian means the
generators commute pairwise, nilpotent that every Sylow subgroup is the
only subgroup of its order (Sylow subgroups are conjugate, so one is
normal exactly when it is unique), and solvable is what subgroup
enumeration found: its prime-index search reaches the whole group
exactly when the group is solvable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PrimeNotInOrder
from .groups import GroupTable, _is_pow2, _is_prime, primes_of
from .subgroups import Subgroup, SubgroupLattice, closure


def _check_prime(g: GroupTable, p: int) -> None:
    # p must divide |G| before _is_prime sees it, as that test is exact only below a bound
    if p < 2 or g.order % p or not _is_prime(p):
        raise PrimeNotInOrder(f"{p} is not a prime divisor of group order {g.order}")


def is_abelian(g: GroupTable) -> bool:
    """Every pair of generators commutes."""
    mul = g.mul
    gens = g.generators
    return all(mul[a][b] == mul[b][a] for i, a in enumerate(gens) for b in gens[i + 1 :])


def is_cyclic(g: GroupTable) -> bool:
    return any(o == g.order for o in g.element_orders)


def derived_subgroup(g: GroupTable) -> Subgroup:
    """Subgroup generated by all commutators."""
    mul = g.mul
    inv = g.inv
    n = g.order
    comms = {mul[mul[inv[x]][inv[y]]][mul[x][y]] for x in range(n) for y in range(n)}
    return closure(g, tuple(comms))


def _p_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def sylow_subgroups(lat: SubgroupLattice, p: int) -> list[int]:
    """Indices of the subgroups of maximal p-power order."""
    _check_prime(lat.group, p)
    return list(lat.of_order(p ** _p_valuation(lat.group.order, p)))


def is_nilpotent(lat: SubgroupLattice) -> bool:
    """Every Sylow subgroup is normal, that is, the only one of its order."""
    return all(len(sylow_subgroups(lat, p)) == 1 for p in primes_of(lat.group.order))


def omega1(g: GroupTable, p: int) -> Subgroup:
    """Subgroup generated by all elements of order p."""
    _check_prime(g, p)
    seeds = tuple(i for i, o in enumerate(g.element_orders) if o == p)
    return closure(g, seeds)


def maximal_subgroups(lat: SubgroupLattice) -> list[int]:
    full = len(lat.subs) - 1
    return [i for i, row in enumerate(lat.rows(range(full))) if row == (1 << i) | (1 << full)]


def frattini(lat: SubgroupLattice) -> Subgroup:
    """Intersection of all maximal subgroups; trivial for the trivial group."""
    mask = (1 << lat.group.order) - 1
    for i in maximal_subgroups(lat):
        mask &= lat.subs[i].mask
    elems = []
    while mask:
        e = (mask & -mask).bit_length() - 1
        elems.append(e)
        mask &= mask - 1
    return lat.subs[lat.index_of(tuple(elems))]


def is_generalized_quaternion(lat: SubgroupLattice) -> bool:
    """Noncyclic 2-group of order at least 8 with a single order-2 subgroup."""
    g = lat.group
    if g.order < 8 or not _is_pow2(g.order) or is_cyclic(g):
        return False
    return len(lat.of_order(2)) == 1


def is_cyclic_pgroup_order_ge_p2(g: GroupTable) -> bool:
    ps = primes_of(g.order)
    if len(ps) != 1 or g.order == ps[0]:
        return False
    return is_cyclic(g)


def order_p_subgroups_conjugate(lat: SubgroupLattice, p: int) -> bool:
    """All subgroups of order p form one conjugacy class."""
    _check_prime(lat.group, p)
    return len({lat.orbit[i] for i in lat.of_order(p)}) == 1


def p_complement(lat: SubgroupLattice, p: int) -> Subgroup | None:
    """First subgroup of order |G| / p^v, or None when no such subgroup exists."""
    n = lat.group.order
    _check_prime(lat.group, p)
    hits = lat.of_order(n // p ** _p_valuation(n, p))
    return lat.subs[hits[0]] if hits else None


@dataclass(frozen=True)
class StructureProfile:
    primes: tuple[int, ...]
    is_abelian: bool
    is_cyclic: bool
    is_nilpotent: bool
    is_solvable: bool
    is_generalized_quaternion: bool


def build_profile(lat: SubgroupLattice) -> StructureProfile:
    g = lat.group
    return StructureProfile(
        primes=tuple(primes_of(g.order)),
        is_abelian=is_abelian(g),
        is_cyclic=is_cyclic(g),
        is_nilpotent=is_nilpotent(lat),
        is_solvable=lat.solvable,
        is_generalized_quaternion=is_generalized_quaternion(lat),
    )
