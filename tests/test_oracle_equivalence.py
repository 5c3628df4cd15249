"""Fast subgroup enumeration against two oracles.

The exhaustive subset oracle covers every pinned-catalog group small
enough for it: the class-at-a-time search and the power-set sweep must
produce identical sets of subgroups.  The coset-skipping oracle is the
closure search without the prime-index sweep, the double-coset and
Lagrange skips or the divisor bound, so on larger groups it must give
the identical lattice: subgroups, containment rows, classes and index.
Non-solvable groups, the only ones the second sweep runs on, are
checked against it too, and the solvable flag against Hall's
p-complement criterion.  Renaming the elements of a table must change
no answer, only which elements each subgroup holds.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latcover.errors import SubgroupCapExceeded
from latcover.groups import build_group, parse_spec
from latcover.posets import KINDS, breaking_points, build_poset, hasse_edges, two_interval_cover
from latcover.structure import build_profile
from latcover.subgroups import conjugacy_classes, enumerate_subgroups
from latcover.verify import CATALOG, FAMILY_NAMES, analyze_spec
from oracles import family_specs

SMALL = (
    "C1",
    "C2",
    "C3",
    "C4",
    "C6",
    "C8",
    "C9",
    "C12",
    "C2xC2",
    "D6",
    "D8",
    "D10",
    "D12",
    "D16",
    "D20",
    "D24",
    "Q8",
    "Q16",
    "Dic3",
    "SD16",
    "M2^4",
    "S3",
    "S4",
    "A4",
    "ZM(7,3,2)",
    "ZM(5,4,2)",
    "Q8xC3",
)


def test_small_is_exactly_the_catalog_up_to_24():
    want = [s for s in CATALOG if parse_spec(s).expected_order() <= 24]
    assert sorted(SMALL) == sorted(want)


@pytest.mark.parametrize("spec", SMALL)
def test_enumeration_matches_oracle(spec):
    a = analyze_spec(spec)
    fast = {s.elems for s in a.lattice.subs}
    slow = set(oracles.subgroups_by_spec(spec))
    assert fast == slow


PSL27 = "perm:8:(1,2,3,4,5,6,7);(1,8)(2,7)(3,4)(5,6)"
WREATHS = ["perm:8:(1,2);(1,3)(2,4);(1,5)(2,6)(3,7)(4,8)", "perm:9:(1,2,3);(1,4,7)(2,5,8)(3,6,9)"]
MIXED = ["S4xC2xC2", "C2xC2xC2xD8", "A5xC2", PSL27, *WREATHS]


def _assert_same_lattice(spec):
    g = build_group(spec)
    fast, slow = enumerate_subgroups(g), oracles.coset_enumerate_subgroups(g)
    assert fast.subs == slow.subs, spec
    assert fast.within == slow.within, spec
    assert fast.rows(range(len(fast.subs))) == oracles.containment_rows(slow.subs), spec
    assert fast.orbit == oracles.orbits_by_least_member(slow.orbit), spec
    assert fast._index == slow._index, spec


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_enumeration_matches_coset_oracle_on_scan_families(family):
    for spec in family_specs(family, 128):
        _assert_same_lattice(spec)


@pytest.mark.parametrize("spec", [*CATALOG, *MIXED])
def test_enumeration_matches_coset_oracle(spec):
    _assert_same_lattice(spec)


# the second sweep runs closures on every class representative, most of them solvable
NONSOLVABLE = ["A5", "S5", "A6", "A5xC2", "A5xC3", "A5xC4", "A5xC2xC2", "A5xS3", "S5xC2", "S5xC3", PSL27]


@pytest.mark.parametrize("spec", NONSOLVABLE)
def test_enumeration_matches_coset_oracle_on_nonsolvable_groups(spec):
    _assert_same_lattice(spec)


@pytest.mark.parametrize(
    "specs",
    [
        pytest.param(CATALOG, id="catalog"),
        pytest.param([spec for family in FAMILY_NAMES for spec in family_specs(family, 128)], id="families"),
        pytest.param(MIXED, id="mixed"),
    ],
)
def test_solvable_flag_matches_hall_criterion(specs):
    mismatches = []
    for spec in specs:
        g = build_group(spec)
        lat = enumerate_subgroups(g)
        if lat.solvable != oracles.hall_complements_is_solvable(lat):
            mismatches.append(spec)
    assert mismatches == []


# A5xC2 and S5 are not solvable, so their cap may trip in either sweep
@pytest.mark.parametrize("spec", ["D16", "S4", "Q16", "ZM(7,3,2)", "C2xC2xC2xD8", "A5xC2", "S5"])
def test_subgroup_cap_trips_iff_group_has_more_subgroups(spec):
    g = build_group(spec)
    count = len(oracles.coset_enumerate_subgroups(g).subs)
    # every cap on the small groups, about 40 spread over the larger ones
    for cap in sorted({*range(0, count, max(1, count // 40)), count - 1, count}):
        if cap < count:
            with pytest.raises(SubgroupCapExceeded, match=f"^more than {cap} subgroups in group of order {g.order}$"):
                enumerate_subgroups(g, max_subgroups=cap)
        else:
            assert len(enumerate_subgroups(g, max_subgroups=cap).subs) == count


def _answers(g):
    """The lattice of g, and every answer read off it that does not name an element."""
    lat = enumerate_subgroups(g)
    ccp = conjugacy_classes(lat)
    views = {kind: build_poset(lat, ccp, kind) for kind in KINDS}
    w = two_interval_cover(views["Lbar"])
    return lat, (
        len(lat.subs),
        len(ccp.classes),
        build_profile(lat),
        {
            kind: (v.size, [v.labels[x] for x in breaking_points(v)], len(oracles.edge_list(hasse_edges(v))))
            for kind, v in views.items()
        },
        len(w.all_pairs) if w else 0,
    )


@pytest.mark.parametrize("spec", [*CATALOG, "S4xC2xC2", "C2xC2xC2xD8", "A5xC2", "S5", PSL27, "ZM(7,3,2)xC2xC2", "SD32", "Q16xC3"])
@settings(max_examples=3, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_relabelling_changes_no_answer(spec, seed):
    g = analyze_spec(spec).group
    s = [0, *random.Random(seed).sample(range(1, g.order), g.order - 1)]
    lat, answers = _answers(g)
    moved_lat, moved_answers = _answers(oracles.relabelled(g, s))
    assert {tuple(sorted(s[x] for x in sub.elems)) for sub in lat.subs} == {sub.elems for sub in moved_lat.subs}
    assert answers == moved_answers
