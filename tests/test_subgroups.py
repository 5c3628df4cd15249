"""Subgroup closure, enumeration, and conjugacy classes."""

import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latcover import subgroups
from latcover.errors import SubgroupCapExceeded
from latcover.groups import build_group, parse_spec
from latcover.posets import KINDS, build_poset, subgroup_is_cyclic, two_interval_cover
from latcover.subgroups import (
    Subgroup,
    closure,
    conjugacy_classes,
    enumerate_subgroups,
)
from latcover.verify import CATALOG, FAMILY_NAMES, analyze_spec
from oracles import conjugate_subgroup, family_specs, normalizer

# independently known subgroup counts
COUNTS = {
    "S3": 6,
    "Q8": 6,
    "D8": 10,
    "A4": 10,
    "S4": 30,
    "C12": 6,
    "Q16": 11,
    "D16": 19,
    "A5": 59,
}


@pytest.mark.parametrize("spec,count", sorted(COUNTS.items()))
def test_subgroup_counts(spec, count):
    assert len(analyze_spec(spec).lattice.subs) == count


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _elementary_abelian_count(k):
    """One subgroup per subspace of GF(2)^k."""
    return sum(oracles.gaussian_binomial(k, d, 2) for d in range(k + 1))


# C<n>: one subgroup per divisor; dihedral of order 2m: tau(m) + sigma(m);
# elementary abelian 2^k: one subgroup per subspace of GF(2)^k
CLOSED_FORM = {
    **{f"C{n}": len(_divisors(n)) for n in (360, 500, 512)},
    **{f"D{2 * m}": len(_divisors(m)) + sum(_divisors(m)) for m in (30, 60, 64)},
    **{"x".join(["C2"] * k): _elementary_abelian_count(k) for k in (4, 5, 6)},
}


def test_elementary_abelian_formula():
    assert [_elementary_abelian_count(k) for k in (4, 5, 6)] == [67, 374, 2825]


@pytest.mark.parametrize("spec,count", sorted(CLOSED_FORM.items()))
def test_subgroup_counts_closed_form(spec, count):
    assert len(enumerate_subgroups(build_group(spec)).subs) == count


def _cyclic_products(limit, least=2, prefix=()):
    """Every product of two or more cyclic factors, each of order at least 2, of order at most limit."""
    out = []
    for n in range(least, limit // math.prod(prefix) + 1):
        factors = (*prefix, n)
        if len(factors) >= 2:
            out.append(factors)
        out += _cyclic_products(limit, n, factors)
    return out


# with three past order 64, where the Sylow subgroups have larger types
ABELIAN_PRODUCTS = _cyclic_products(64) + [(9, 9, 3), (5, 5, 5), (3, 3, 3, 3)]


def test_abelian_closed_form_is_self_dual():
    # a finite abelian group has as many subgroups of order k as of index k
    assert len(_cyclic_products(64)) == 134
    for factors in ABELIAN_PRODUCTS + [(2, 2, 2, 2, 4, 4)]:
        want = oracles.abelian_subgroup_counts(factors)
        order = math.prod(factors)
        assert all(want[order // k] == count for k, count in want.items()), factors


@pytest.mark.parametrize("factors", ABELIAN_PRODUCTS, ids=lambda f: "x".join(f"C{n}" for n in f))
def test_abelian_subgroup_counts_match_closed_form(factors):
    want = oracles.abelian_subgroup_counts(factors)
    total = sum(want.values())
    g = build_group("x".join(f"C{n}" for n in factors))
    # the cap trips exactly when the group has more subgroups than it allows
    lat = enumerate_subgroups(g, total)
    assert {k: len(lat.of_order(k)) for k in want} == want
    assert len(lat.subs) == total
    # and by type, each subgroup's type read off its element orders
    types = Counter(oracles.abelian_subgroup_type(g, s.elems) for s in lat.subs)
    assert types == oracles.abelian_subgroup_type_counts(factors)
    with pytest.raises(SubgroupCapExceeded, match=f"^more than {total - 1} subgroups in group of order {g.order}$"):
        enumerate_subgroups(g, total - 1)


def test_closure_examples():
    g = build_group("S3")
    assert closure(g, ()).elems == (0,)
    assert closure(g, (3,)).elems == (0, 3, 4)
    assert closure(g, (2, 3)).order == 6
    # duplicate seeds collapse
    assert closure(g, (3, 3, 4)).elems == (0, 3, 4)


def _naive_closure(g, seed):
    elems = {0, *seed}
    while True:
        grown = elems | {g.mul[a][b] for a in elems for b in elems}
        if grown == elems:
            return tuple(sorted(elems))
        elems = grown


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_closure_matches_naive_fixed_point(data):
    a = analyze_spec(data.draw(st.sampled_from(CATALOG)))
    g = a.group
    seed = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4))
    sub = closure(g, seed)
    assert sub.elems == _naive_closure(g, seed)
    assert a.lattice.subs[a.lattice.index_of(sub)] == sub


def test_closure_rejects_out_of_range():
    g = build_group("S3")
    with pytest.raises(ValueError):
        closure(g, (6,))


def test_subgroup_mask_and_order():
    s = Subgroup((0, 3, 4))
    assert s.order == 3
    assert s.mask == (1 << 0) | (1 << 3) | (1 << 4)


def test_conjugate_subgroup():
    g = build_group("S3")
    # <(1 2)> conjugated by (1 2 3) gives <(2 3)>
    got = conjugate_subgroup(g, closure(g, (2,)), 3)
    assert got.elems == (0, 1)


@pytest.mark.parametrize("x", [-1, 24, -25])
def test_conjugate_subgroup_rejects_out_of_range(x):
    g = build_group("S4")
    with pytest.raises(ValueError, match=f"^element index {x} out of range for order 24$"):
        conjugate_subgroup(g, closure(g, (1,)), x)


def test_normalizer_values():
    g = build_group("S3")
    assert normalizer(g, closure(g, (3,))).elems == (0, 1, 2, 3, 4, 5)
    assert normalizer(g, closure(g, (2,))).elems == (0, 2)


def test_lattice_shape():
    lat = analyze_spec("S3").lattice
    assert lat.subs[0].elems == (0,)
    assert lat.subs[-1].order == 6
    keys = [(s.order, s.elems) for s in lat.subs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_s3_subgroups_exactly():
    lat = analyze_spec("S3").lattice
    assert [s.elems for s in lat.subs] == [
        (0,),
        (0, 1),
        (0, 2),
        (0, 5),
        (0, 3, 4),
        (0, 1, 2, 3, 4, 5),
    ]


def test_index_of_roundtrip():
    lat = analyze_spec("Q8").lattice
    for i, s in enumerate(lat.subs):
        assert lat.index_of(s) == i
        assert lat.index_of(s.elems) == i
    with pytest.raises(KeyError):
        lat.index_of((0, 1))  # not closed in Q8


@pytest.mark.parametrize(
    "elems",
    [(0, 0, 1), (0, 99), (-1, 0), (0, 1, 2), (0, 6)],
    ids=["repeated", "out-of-range", "negative", "not-closed", "just-past-the-end"],
)
def test_index_of_rejects_a_set_that_is_not_a_listed_subgroup(elems):
    lat = analyze_spec("S3").lattice
    with pytest.raises(KeyError, match=rf"^'{re.escape(str(elems))} is not a subgroup of S3'$"):
        lat.index_of(elems)


def test_index_of_takes_the_elements_in_any_order():
    lat = analyze_spec("S3").lattice
    assert lat.index_of((1, 0)) == 1
    assert lat.index_of((4, 0, 3)) == 4


@pytest.mark.parametrize("spec", ["D12", "S4", "C2xC2xC2xC2"])
def test_subset_bitrows_match_containment(spec):
    lat = analyze_spec(spec).lattice
    for i, a in enumerate(lat.subs):
        sa = set(a.elems)
        for j, b in enumerate(lat.subs):
            assert bool(lat.subset[i] >> j & 1) == sa.issubset(b.elems)


@pytest.mark.parametrize("spec", ["C1", "C12", "S4", "A5", "SD16", "C2xC2xC2xD8", "S4xC2xC2"])
def test_class_views_read_representative_rows_and_subset_is_built_on_first_read(spec):
    lat = enumerate_subgroups(build_group(spec))
    ccp = conjugacy_classes(lat)
    lazy = {kind: build_poset(lat, ccp, kind) for kind in ("Lbar", "Cbar")}
    assert "subset" not in lat.__dict__
    assert lat.subset == oracles.containment_rows(lat.subs)
    assert lat.rows(ccp.rep) == [lat.subset[r] for r in ccp.rep]
    # with every row built, the class views come out the same
    for kind, view in lazy.items():
        assert build_poset(lat, ccp, kind) == view, kind


@pytest.mark.parametrize("spec", ["C1", "S4", "Q16", "C2xC2xC2xD8", "C12"])
def test_of_order_is_the_order_filter(spec):
    lat = analyze_spec(spec).lattice
    for k in range(lat.group.order + 2):
        assert list(lat.of_order(k)) == [i for i, s in enumerate(lat.subs) if s.order == k]


# the subgroups each enumeration builds, pinned so that a lost skip shows;
# in an elementary abelian group every <H, a> has prime index over H, so
# each nontrivial subgroup costs one build.  Solvable groups never reach
# the second sweep; the others run both
@pytest.mark.parametrize(
    "spec,subs,builds",
    [
        ("C2xC2xC2xC2xC2xC2", 2825, 2824),
        ("C2xC2xC2xD8", 937, 680),
        ("A5xC2", 164, 104),
        ("S5", 156, 110),
        ("A6", 501, 291),
        ("perm:8:(1,2,3,4,5,6,7);(1,8)(2,7)(3,4)(5,6)", 179, 119),
    ],
)
def test_enumeration_build_count(spec, subs, builds, monkeypatch):
    calls = 0
    extend = subgroups._extend

    def counted(*args):
        nonlocal calls
        calls += 1
        return extend(*args)

    monkeypatch.setattr(subgroups, "_extend", counted)
    assert len(enumerate_subgroups(build_group(spec)).subs) == subs
    assert calls == builds


# D16 has exactly 19 subgroups
@pytest.mark.parametrize("cap,raises", [(10, True), (18, True), (19, False)])
def test_subgroup_cap(cap, raises):
    g = build_group("D16")
    if raises:
        with pytest.raises(SubgroupCapExceeded, match=f"more than {cap} subgroups in group of order 16"):
            enumerate_subgroups(g, max_subgroups=cap)
    else:
        assert len(enumerate_subgroups(g, max_subgroups=cap).subs) == 19


# the benchmark's lattice-heavy groups: subgroups that a base's tried set takes in
# from the start are still counted as the search finds them
@pytest.mark.parametrize("spec,subs", [("C2xC2xC2xD8", 937), ("S4xC2xC2", 420)])
def test_subgroup_cap_trips_one_below_the_count(spec, subs):
    g = build_group(spec)
    with pytest.raises(SubgroupCapExceeded, match=f"^more than {subs - 1} subgroups in group of order {g.order}$"):
        enumerate_subgroups(g, max_subgroups=subs - 1)
    assert len(enumerate_subgroups(g, max_subgroups=subs).subs) == subs


@pytest.mark.parametrize("spec", ["C1", "D16"])
@pytest.mark.parametrize("cap", [0, -3])
def test_subgroup_cap_below_one_counts_trivial_subgroup(spec, cap):
    g = build_group(spec)
    with pytest.raises(SubgroupCapExceeded, match=f"more than {cap} subgroups in group of order {g.order}"):
        enumerate_subgroups(g, max_subgroups=cap)


def test_subgroup_cap_of_one_admits_trivial_group():
    assert len(enumerate_subgroups(build_group("C1"), max_subgroups=1).subs) == 1
    with pytest.raises(SubgroupCapExceeded):
        enumerate_subgroups(build_group("C2"), max_subgroups=1)


def test_conjugacy_classes_s3():
    a = analyze_spec("S3")
    assert a.classes.classes == [(0,), (1, 2, 3), (4,), (5,)]
    assert a.classes.rep == [0, 1, 4, 5]
    for c, cls in enumerate(a.classes.classes):
        for i in cls:
            assert a.lattice.orbit[i] == c


def test_classes_partition_lattice():
    for spec in ("S4", "A4", "Q16", "ZM(7,3,2)"):
        a = analyze_spec(spec)
        seen = sorted(i for cls in a.classes.classes for i in cls)
        assert seen == list(range(len(a.lattice.subs)))


@pytest.mark.parametrize("spec", ["S4", "A4", "D12", "Q16", "A5", "S4xC2xC2", "C2xC2xC2xD8"])
def test_orbit_stabilizer(spec):
    a = analyze_spec(spec)
    g = a.group
    for c, cls in enumerate(a.classes.classes):
        rep = a.lattice.subs[a.classes.rep[c]]
        assert len(cls) * normalizer(g, rep).order == g.order


# groups whose classes have many members, so orbits must be gathered right
BIG_ORBITS = ["S4", "D12", "A5", "S4xC2xC2"]


@pytest.mark.parametrize("spec", BIG_ORBITS)
def test_class_members_are_conjugate(spec):
    a = analyze_spec(spec)
    g = a.group
    for cls in a.classes.classes:
        base = a.lattice.subs[cls[0]]
        orbit = {conjugate_subgroup(g, base, x).elems for x in range(g.order)}
        assert orbit == {a.lattice.subs[i].elems for i in cls}


def test_class_order_matches_min_member():
    a = analyze_spec("S4")
    for c, cls in enumerate(a.classes.classes):
        assert a.classes.rep[c] == min(cls)
    mins = [min(cls) for cls in a.classes.classes]
    assert mins == sorted(mins)


# C2^6 has only one-subgroup classes, C2xC2xC2xD8 has both kinds; the
# Lbar case of each group is named by its spec alone
@pytest.mark.parametrize(
    "spec,kind",
    [
        pytest.param(spec, kind, id=spec if kind == "Lbar" else f"{spec}-{kind}")
        for spec in BIG_ORBITS + ["C2xC2xC2xC2xC2xC2", "C2xC2xC2xD8"]
        for kind in KINDS
    ],
)
def test_class_leq_matches_definition(spec, kind):
    a = analyze_spec(spec)
    lat, ccp, view = a.lattice, a.classes, a.posets[kind]
    # the subgroups of each node, its representative first; C and Cbar keep the cyclic nodes only
    nodes = ccp.classes if kind in ("Lbar", "Cbar") else [(i,) for i in range(len(lat.subs))]
    if kind in ("C", "Cbar"):
        nodes = [m for m in nodes if subgroup_is_cyclic(a.group, lat.subs[m[0]])]
    k = len(nodes)
    assert view.size == k
    member = np.zeros((len(lat.subs), a.group.order), dtype=np.int64)
    for i, s in enumerate(lat.subs):
        member[i, list(s.elems)] = 1
    missing_from_rep = (1 - member[[m[0] for m in nodes]]).T
    for x, m in enumerate(nodes):
        # some member of node x lies in rep(y): none of its elements is missing there
        expect = (member[list(m)] @ missing_from_rep == 0).any(axis=0)
        row = np.frombuffer(view.leq[x].to_bytes((k + 7) // 8, "little"), dtype=np.uint8)
        got = np.unpackbits(row, bitorder="little")[:k].astype(bool)
        assert np.array_equal(got, expect)


def test_abelian_classes_are_singletons():
    for spec in ("C12", "C2xC2", "C27"):
        a = analyze_spec(spec)
        assert all(len(cls) == 1 for cls in a.classes.classes)
        assert a.posets["Lbar"].leq == a.posets["L"].leq


def test_enumeration_matches_oracle_spot_checks():
    for spec in ("S3", "D8", "Q16", "A4"):
        a = analyze_spec(spec)
        assert {s.elems for s in a.lattice.subs} == set(oracles.subgroups_by_spec(spec))


def _cycle_text(perm):
    """A permutation of 0..k-1 in 1-based cycle notation, '()' for the identity."""
    out, seen = [], set()
    for s in range(len(perm)):
        if s in seen or perm[s] == s:
            continue
        cyc, v = [], s
        while v not in seen:
            seen.add(v)
            cyc.append(str(v + 1))
            v = perm[v]
        out.append("(" + ",".join(cyc) + ")")
    return "".join(out) or "()"


SMALL_FAMILY_SPECS = [spec for family in FAMILY_NAMES for spec in family_specs(family, 64)]
FACTORS = [spec for spec in SMALL_FAMILY_SPECS if parse_spec(spec).expected_order() <= 12]

# family members, products of two small ones, and groups generated by random permutations of 5 points
RANDOM_SPECS = st.one_of(
    st.sampled_from(SMALL_FAMILY_SPECS),
    st.tuples(st.sampled_from(FACTORS), st.sampled_from(FACTORS)).map("x".join),
    st.lists(st.permutations(range(5)), min_size=1, max_size=3).map(
        lambda gens: "perm:5:" + ";".join(_cycle_text(p) for p in gens)
    ),
)


@settings(max_examples=60, deadline=None)
@given(RANDOM_SPECS)
def test_lattice_properties_on_random_specs(spec):
    g = build_group(spec)
    lat = enumerate_subgroups(g)
    ccp = conjugacy_classes(lat)
    assert sum(len(cls) for cls in ccp.classes) == len(lat.subs)
    for cls, rep in zip(ccp.classes, ccp.rep):
        assert len(cls) == g.order // normalizer(g, lat.subs[rep]).order
    masks = [s.mask for s in lat.subs]
    assert all(a & b in lat._index for i, a in enumerate(masks) for b in masks[i + 1 :])
    # the cover search gives every pair, in its documented order
    for kind in KINDS:
        view = build_poset(lat, ccp, kind)
        if view.size <= 64:
            want = oracles.ordered_cover_pairs(view)
            w = two_interval_cover(view)
            assert (w.all_pairs if w else None) == (tuple(want) or None), kind
