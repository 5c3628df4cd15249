"""Structural recognizers read off the table and lattice."""

import time
from functools import reduce
from operator import and_

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

import oracles
from latcover.errors import PrimeNotInOrder
from latcover.groups import build_group
from latcover.structure import (
    build_profile,
    derived_subgroup,
    frattini,
    is_abelian,
    is_cyclic,
    is_cyclic_pgroup_order_ge_p2,
    is_generalized_quaternion,
    is_nilpotent,
    maximal_subgroups,
    omega1,
    order_p_subgroups_conjugate,
    p_complement,
    primes_of,
    sylow_subgroups,
)
from latcover.subgroups import Subgroup, closure, conjugacy_classes, enumerate_subgroups
from latcover.verify import CATALOG, FAMILY_NAMES, analyze_spec
from oracles import family_specs, is_normal

# PSL(2,7) on the projective line over F7: x+1 and -1/x; of its primes
# only 3 has no complement, so a Hall check that skips 3 calls it solvable
PSL27 = "perm:8:(1,2,3,4,5,6,7);(1,8)(2,7)(3,4)(5,6)"
PROFILE_SPECS = list(
    dict.fromkeys(
        [
            *CATALOG,
            *(spec for fam in FAMILY_NAMES for spec in family_specs(fam, 64)),
            "S5",
            "A5xC2",
            "A4xA4",
            "S4xC2xC2",
            "C2xC2xC2xD8",
            PSL27,
        ]
    )
)


def test_primes_of_accepts_group_or_order():
    assert primes_of(12) == [2, 3]
    assert primes_of(1) == []
    assert primes_of(build_group("A5")) == [2, 3, 5]
    assert primes_of(build_group("C1")) == []


def test_abelian_and_cyclic_flags():
    assert is_abelian(build_group("C12"))
    assert is_cyclic(build_group("C12"))
    assert is_abelian(build_group("C2xC2"))
    assert not is_cyclic(build_group("C2xC2"))
    assert not is_abelian(build_group("S3"))


def test_derived_subgroups():
    s3 = analyze_spec("S3")
    assert derived_subgroup(s3.group).elems == (0, 3, 4)
    assert derived_subgroup(analyze_spec("A4").group).order == 4
    assert derived_subgroup(analyze_spec("Q8").group).elems == (0, 4)
    assert derived_subgroup(analyze_spec("S4").group).order == 12
    assert derived_subgroup(analyze_spec("A5").group).order == 60
    assert derived_subgroup(analyze_spec("C12").group).order == 1


def test_solvability():
    for spec in ("C1", "S3", "S4", "Q16", "ZM(7,3,2)", "C2xC2xM3^3"):
        a = analyze_spec(spec)
        assert a.lattice.solvable, spec
    a5 = analyze_spec("A5")
    assert not a5.lattice.solvable


def test_is_normal():
    a = analyze_spec("S3")
    assert is_normal(a.group, closure(a.group, (3,)))
    assert not is_normal(a.group, closure(a.group, (2,)))


def test_sylow_subgroups():
    a = analyze_spec("S4")
    twos = sylow_subgroups(a.lattice, 2)
    assert [a.lattice.subs[i].order for i in twos] == [8, 8, 8]
    assert len(sylow_subgroups(a.lattice, 3)) == 4
    with pytest.raises(PrimeNotInOrder):
        sylow_subgroups(a.lattice, 5)
    with pytest.raises(PrimeNotInOrder):
        sylow_subgroups(a.lattice, 4)


@pytest.mark.parametrize("p", [2**61 - 1, 0, 1, -2, 4])
def test_prime_check_rejects_at_once(p):
    # p is tested against |G| before its primality, so a huge prime costs nothing
    a = analyze_spec("S4")
    calls = (
        lambda: sylow_subgroups(a.lattice, p),
        lambda: omega1(a.group, p),
        lambda: p_complement(a.lattice, p),
        lambda: order_p_subgroups_conjugate(a.lattice, p),
    )
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(PrimeNotInOrder, match=f"^{p} is not a prime divisor of group order 24$"):
            call()
        assert time.perf_counter() - start < 0.5


def test_nilpotency():
    for spec, want in (("Q8", True), ("C12", True), ("D8", True), ("S3", False), ("D12", False), ("M3^3", True)):
        a = analyze_spec(spec)
        assert is_nilpotent(a.lattice) == want, spec


def test_omega1():
    d16 = analyze_spec("D16")
    assert omega1(d16.group, 2).order == 16
    m33 = analyze_spec("M3^3")
    assert omega1(m33.group, 3).order == 9
    c9 = analyze_spec("C9")
    assert omega1(c9.group, 3).order == 3
    v4 = analyze_spec("C2xC2")
    assert omega1(v4.group, 2).order == 4
    with pytest.raises(PrimeNotInOrder):
        omega1(d16.group, 3)


def test_maximal_subgroups():
    a = analyze_spec("S3")
    assert [a.lattice.subs[i].order for i in maximal_subgroups(a.lattice)] == [2, 2, 2, 3]


def test_frattini():
    c8 = analyze_spec("C8")
    assert frattini(c8.lattice).order == 4
    q8 = analyze_spec("Q8")
    assert frattini(q8.lattice).elems == (0, 4)
    s3 = analyze_spec("S3")
    assert frattini(s3.lattice).order == 1
    m33 = analyze_spec("M3^3")
    assert frattini(m33.lattice).order == 3
    c1 = analyze_spec("C1")
    assert frattini(c1.lattice).order == 1


def test_generalized_quaternion_recognizer():
    for spec, want in (
        ("Q8", True),
        ("Q16", True),
        ("Q32", True),
        ("C8", False),
        ("D8", False),
        ("SD16", False),
        ("M2^4", False),
        ("Dic3", False),
    ):
        a = analyze_spec(spec)
        assert is_generalized_quaternion(a.lattice) == want, spec


def test_cyclic_pgroup_recognizer():
    for spec, want in (
        ("C4", True),
        ("C8", True),
        ("C9", True),
        ("C25", True),
        ("C27", True),
        ("C2", False),
        ("C3", False),
        ("C6", False),
        ("C12", False),
        ("Q8", False),
    ):
        assert is_cyclic_pgroup_order_ge_p2(analyze_spec(spec).group) == want, spec


def test_order_p_conjugacy():
    a5 = analyze_spec("A5")
    for p in (2, 3, 5):
        assert order_p_subgroups_conjugate(a5.lattice, p)
    v4 = analyze_spec("C2xC2")
    assert not order_p_subgroups_conjugate(v4.lattice, 2)
    s4 = analyze_spec("S4")
    assert not order_p_subgroups_conjugate(s4.lattice, 2)
    assert order_p_subgroups_conjugate(s4.lattice, 3)
    with pytest.raises(PrimeNotInOrder):
        order_p_subgroups_conjugate(a5.lattice, 7)


def test_p_complement():
    zm = analyze_spec("ZM(7,3,2)")
    assert p_complement(zm.lattice, 7).order == 3
    a5 = analyze_spec("A5")
    assert p_complement(a5.lattice, 5).order == 12
    assert p_complement(a5.lattice, 3) is None
    assert p_complement(a5.lattice, 2) is None
    s4 = analyze_spec("S4")
    assert p_complement(s4.lattice, 3).order == 8
    assert p_complement(s4.lattice, 2).order == 3
    c12 = analyze_spec("C12")
    assert p_complement(c12.lattice, 2).order == 3
    with pytest.raises(PrimeNotInOrder):
        p_complement(c12.lattice, 5)


def test_solvable_groups_have_all_p_complements():
    # Hall's theorem, checked on the small catalog members
    for spec in CATALOG:
        a = analyze_spec(spec)
        if a.group.order > 24 or not a.profile.is_solvable:
            continue
        for p in a.profile.primes:
            assert p_complement(a.lattice, p) is not None, (spec, p)


def test_profile_s4():
    a = analyze_spec("S4")
    pr = build_profile(a.lattice)
    assert pr.primes == (2, 3)
    assert not pr.is_abelian
    assert not pr.is_cyclic
    assert len(pr.primes) != 1
    assert not pr.is_nilpotent
    assert pr.is_solvable
    assert not pr.is_generalized_quaternion
    assert {p: len(a.lattice.of_order(p)) for p in pr.primes} == {2: 9, 3: 4}


def test_profile_c12():
    a = analyze_spec("C12")
    pr = a.profile
    assert pr.primes == (2, 3)
    assert pr.is_abelian and pr.is_cyclic and pr.is_nilpotent and pr.is_solvable
    assert {p: len(a.lattice.of_order(p)) for p in pr.primes} == {2: 1, 3: 1}


def test_profile_q16():
    a = analyze_spec("Q16")
    pr = a.profile
    assert pr.primes == (2,)
    assert pr.is_generalized_quaternion
    assert len(a.lattice.of_order(2)) == 1


def _coset_action(g, subs):
    """g as sympy permutations of the right cosets of each subgroup given, H*t -> H*t*a for each generator a."""
    perms = [[] for _ in g.generators]
    for h in subs:
        coset_of, reps = {}, []
        for t in range(g.order):
            if t not in coset_of:
                coset_of.update({g.mul[x][t]: len(reps) for x in h.elems})
                reps.append(t)
        base = len(perms[0]) if perms else 0
        for perm, a in zip(perms, g.generators):
            perm += [base + coset_of[g.mul[r][a]] for r in reps]
    return PermutationGroup([Permutation(p) for p in perms] or [Permutation([0])])


def _regular_permutation_group(g):
    """g as sympy permutations of its elements, x -> x*a for each generator a."""
    return _coset_action(g, [Subgroup((0,))])


def _small_faithful_action(g, lat, ccp):
    """g acting on the cosets of a few subgroups whose cores meet in 1, chosen largest first.

    The action is faithful exactly when the cores meet in 1, and a
    small degree keeps sympy's Sylow search fast: on the regular
    representation it takes over a minute for these groups.
    """
    kernel, chosen = (1 << g.order) - 1, []
    for c in sorted(range(len(ccp.classes)), key=lambda c: -lat.subs[ccp.rep[c]].order):
        core = reduce(and_, (lat.subs[i].mask for i in ccp.classes[c]))
        if kernel & core != kernel:
            kernel &= core
            chosen.append(lat.subs[ccp.rep[c]])
    return _coset_action(g, chosen)


def _sympy_sylow(sp, p):
    """Order of a Sylow p-subgroup of a sympy group, and how many there are: its orbit under conjugation."""
    first = frozenset(sp.sylow_subgroup(p).generate())
    orbit, seen = [first], {first}
    for cur in orbit:
        for x in sp.generators:
            conj = frozenset(x**-1 * e * x for e in cur)
            if conj not in seen:
                seen.add(conj)
                orbit.append(conj)
    return len(first), len(orbit)


SYLOW_SPECS = [*(spec for fam in FAMILY_NAMES for spec in family_specs(fam, 64)), PSL27]


def test_sylow_subgroups_match_sympy():
    mismatches = []
    for spec in SYLOW_SPECS:
        g = build_group(spec)
        lat = enumerate_subgroups(g)
        sp = _small_faithful_action(g, lat, conjugacy_classes(lat))
        assert sp.order() == g.order, spec
        for p in primes_of(g):
            found = sylow_subgroups(lat, p)
            got = (lat.subs[found[0]].order, len(found))
            if {lat.subs[i].order for i in found} != {got[0]} or got != _sympy_sylow(sp, p):
                mismatches.append((spec, p, got, _sympy_sylow(sp, p)))
    assert mismatches == []


def test_profile_flags_match_oracles_and_sympy():
    mismatches = []
    for spec in PROFILE_SPECS:
        g = build_group(spec)
        lat = enumerate_subgroups(g)
        pr = build_profile(lat)
        got = (pr.is_abelian, pr.is_nilpotent, pr.is_solvable, derived_subgroup(g).order)
        oracle = (
            oracles.sweep_is_abelian(g),
            oracles.normal_sylow_is_nilpotent(lat),
            oracles.derived_series_is_solvable(g),
        )
        sp = _regular_permutation_group(g)
        ref = (sp.is_abelian, sp.is_nilpotent, sp.is_solvable, sp.derived_subgroup().order())
        if sp.order() != g.order or got[:3] != oracle or got != ref:
            mismatches.append((spec, got, oracle, ref, sp.order()))
    assert mismatches == []
