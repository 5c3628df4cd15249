"""Fast subgroup enumeration against two oracles.

The exhaustive subset oracle covers every pinned-catalog group small
enough for it: the class-at-a-time search and the power-set sweep must
produce identical sets of subgroups.  The coset-skipping oracle is the
same search without the double-coset and conjugate skips or the
divisor bound, so on larger groups it must give the identical lattice:
subgroups, containment rows, orbit numbers and index, and a subgroup
cap that trips at the same subgroup.
"""

import sys

import pytest

import oracles
from latcover import subgroups
from latcover.errors import SubgroupCapExceeded
from latcover.groups import build_group, parse_spec
from latcover.subgroups import enumerate_subgroups
from latcover.verify import CATALOG, FAMILY_NAMES, _family_specs, analyze_spec

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
    assert fast.subset == slow.subset, spec
    assert fast.orbit == slow.orbit, spec
    assert fast._index == slow._index, spec


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_enumeration_matches_coset_oracle_on_scan_families(family):
    for spec in _family_specs(family, 128):
        _assert_same_lattice(spec)


@pytest.mark.parametrize("spec", [*CATALOG, *MIXED])
def test_enumeration_matches_coset_oracle(spec):
    _assert_same_lattice(spec)


def _tripping_mask(module, enumerate_fn, g, cap, monkeypatch):
    """The mask of the subgroup whose discovery raised the subgroup cap."""

    class Tripped(SubgroupCapExceeded):
        def __init__(self, message):
            super().__init__(message)
            self.mask = sys._getframe(1).f_locals["mask"]  # the argument of the raising add()

    monkeypatch.setattr(module, "SubgroupCapExceeded", Tripped)
    with pytest.raises(Tripped) as info:
        enumerate_fn(g, max_subgroups=cap)
    return info.value.mask


@pytest.mark.parametrize("spec", ["D16", "S4", "Q16", "ZM(7,3,2)", "C2xC2xC2xD8"])
def test_subgroup_cap_trips_at_the_oracle_subgroup(spec, monkeypatch):
    g = build_group(spec)
    count = len(enumerate_subgroups(g))
    # every cap on the small groups, about 40 spread over the larger ones
    for cap in sorted({*range(0, count, max(1, count // 40)), count - 1}):
        fast = _tripping_mask(subgroups, enumerate_subgroups, g, cap, monkeypatch)
        slow = _tripping_mask(oracles, oracles.coset_enumerate_subgroups, g, cap, monkeypatch)
        assert fast == slow, (spec, cap)
