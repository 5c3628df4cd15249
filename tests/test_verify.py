"""Verification suites, the pinned catalog, and the family scan."""

import hashlib
import math
from dataclasses import replace

import pytest

from latcover import verify
from latcover.groups import DEFAULT_MAX_ORDER, ZM, primes_of
from latcover.posets import KINDS, breaking_points, two_interval_cover
from latcover.subgroups import DEFAULT_MAX_SUBGROUPS, SubgroupLattice
from latcover.verify import (
    CATALOG,
    FAMILY_NAMES,
    SUITE_ORDER,
    SUITES,
    THEOREM1_BREAKING,
    THEOREM1_NONBREAKING,
    CaseResult,
    ScanRow,
    SuiteResult,
    analyze_spec,
    in_class_c,
    run_suites,
    scan_class_c,
    verify_theorem1,
)
from oracles import family_specs

# class membership for every catalog group, frozen after cross-checking the
# theorem-backed entries by hand
IN_CLASS = {
    "C1": False,
    "C2": False,
    "C3": False,
    "C4": True,
    "C6": True,
    "C8": True,
    "C9": True,
    "C12": True,
    "C25": True,
    "C27": True,
    "C2xC2": False,
    "D6": True,
    "D8": False,
    "D10": True,
    "D12": True,
    "D16": False,
    "D20": True,
    "D24": True,
    "D32": False,
    "Q8": True,
    "Q16": True,
    "Q32": True,
    "Dic3": True,
    "SD16": True,
    "M2^4": True,
    "M2^5": True,
    "M3^3": True,
    "M3^4": True,
    "S3": True,
    "S4": True,
    "A4": True,
    "A5": False,
    "ZM(7,3,2)": True,
    "ZM(5,4,2)": True,
    "Q8xC3": True,
    "C2xC2xM3^3": True,
}


def test_catalog_membership_is_pinned():
    assert set(IN_CLASS) == set(CATALOG)
    got = {spec: in_class_c(analyze_spec(spec)) for spec in CATALOG}
    assert got == IN_CLASS


def test_pinned_lists_sit_inside_catalog():
    assert set(THEOREM1_BREAKING) <= set(CATALOG)
    assert set(THEOREM1_NONBREAKING) <= set(CATALOG)
    assert not set(THEOREM1_BREAKING) & set(THEOREM1_NONBREAKING)


@pytest.mark.parametrize("name", SUITE_ORDER)
def test_each_suite_passes(name):
    result = SUITES[name]()
    assert result.name == name
    assert result.cases
    assert result.passed, [c for c in result.cases if not c.ok]


def test_theorem1_sweeps_whole_catalog():
    sr = verify_theorem1()
    mains = [c for c in sr.cases if c.claim == "breaking-point-iff-recognized"]
    assert [c.group for c in mains] == list(CATALOG)
    # every group with breaking points gets the uniqueness follow-ups
    pgroups = [c.group for c in sr.cases if c.claim == "is-p-group"]
    assert pgroups == list(THEOREM1_BREAKING)
    assert any(c.claim == "order-2-subgroup-unique" for c in sr.cases)


def test_run_suites_expands_and_dedupes():
    names = [sr.name for sr in run_suites(("all",))]
    assert names == list(SUITE_ORDER)
    assert [sr.name for sr in run_suites(("theorem1", "all"))] == list(SUITE_ORDER)
    assert len(run_suites(("theorem9", "theorem9"))) == 1


def test_run_suites_keeps_canonical_order():
    assert [sr.name for sr in run_suites(("theorem9", "theorem1"))] == ["theorem1", "theorem9"]


def test_run_suites_rejects_unknown():
    with pytest.raises(ValueError):
        run_suites(("theorem2",))


def test_case_result_witness_omitted_when_none():
    d = CaseResult("G", "claim", 1, 1, True).to_dict()
    assert "witness" not in d
    d = CaseResult("G", "claim", 1, 1, True, witness={"m": "o2"}).to_dict()
    assert d["witness"] == {"m": "o2"}


def test_suite_result_flags_failures():
    sr = SuiteResult("fake", [CaseResult("G", "c", True, False, False)])
    assert not sr.passed
    assert sr.to_dict()["passed"] is False


def test_analyze_spec_is_cached():
    assert analyze_spec("S3") is analyze_spec("S3")


def test_family_specs_goldens():
    assert family_specs("dihedral", 12) == ["D6", "D8", "D10", "D12"]
    assert family_specs("dicyclic", 20) == ["Q8", "Dic3", "Q16", "Dic5"]
    assert family_specs("modular", 100) == ["M2^4", "M2^5", "M2^6", "M3^3", "M3^4"]
    assert family_specs("semidihedral", 64) == ["SD16", "SD32", "SD64"]
    assert family_specs("symmetric", 24) == ["S3", "S4"]
    assert family_specs("alternating", 60) == ["A4", "A5"]
    assert family_specs("cyclic", 5) == ["C1", "C2", "C3", "C4", "C5"]
    # every family's members at the default order cap, in row order
    listed = "\n".join(spec for family in FAMILY_NAMES for spec in family_specs(family, 512))
    assert hashlib.sha256(listed.encode()).hexdigest() == "452365b3043696edb1f7f619df65664fadfc1a7d1b8836dfa30eabe525557d92"


def test_family_specs_zm():
    # every Zassenhaus triple with m*n <= 21, checked by hand
    assert family_specs("zm", 21) == [
        "ZM(3,2,2)",
        "ZM(3,4,2)",
        "ZM(5,2,4)",
        "ZM(5,4,2)",
        "ZM(5,4,3)",
        "ZM(5,4,4)",
        "ZM(7,2,6)",
        "ZM(7,3,2)",
        "ZM(7,3,4)",
        "ZM(9,2,8)",
    ]


def test_family_specs_rejects_unknown():
    with pytest.raises(ValueError):
        family_specs("sporadic", 64)
    with pytest.raises(ValueError):
        scan_class_c(16, ("sporadic",))


def test_scan_rows_dihedral():
    rows = scan_class_c(16, ("dihedral",))
    assert [r.spec for r in rows] == ["D6", "D8", "D10", "D12", "D14", "D16"]
    by = {r.spec: r for r in rows}
    assert by["D6"].in_C and by["D6"].witnesses == 2
    assert not by["D8"].in_C and by["D8"].witnesses == 0
    assert by["D16"].n_subgroups == 19
    assert all(r.skipped is None for r in rows)


def test_scan_marks_capped_rows_skipped():
    rows = scan_class_c(16, ("dihedral",), max_subgroups=12)
    by = {r.spec: r for r in rows}
    assert by["D10"].skipped is None
    for spec in ("D12", "D16"):
        r = by[spec]
        assert r.skipped == "subgroup-cap"
        assert r.order == int(spec[1:])
        assert r.in_C is None and r.witnesses is None and r.n_subgroups is None


def test_scan_row_dict_keys():
    row = scan_class_c(8, ("dicyclic",))[0]
    d = row.to_dict()
    assert list(d) == [
        "spec",
        "order",
        "n_subgroups",
        "n_classes",
        "bp_L",
        "bp_Lbar",
        "bp_C",
        "bp_Cbar",
        "in_C",
        "witnesses",
        "is_abelian",
        "is_cyclic",
        "is_nilpotent",
        "is_solvable",
        "skipped",
    ]
    assert d["spec"] == "Q8"
    assert d["in_C"] is True
    assert d["witnesses"] == 4
    assert d["bp_Lbar"] is True
    assert d["is_nilpotent"] is True
    assert d["skipped"] is None


def test_scan_runs_a_repeated_family_once():
    rows = scan_class_c(16, ("dicyclic", "dihedral", "dicyclic"))
    assert rows == scan_class_c(16, ("dicyclic",)) + scan_class_c(16, ("dihedral",))


@pytest.fixture(scope="module")
def scan128():
    return scan_class_c(128)


def test_scan128_rows_outside_class_c(scan128):
    assert all(r.skipped is None for r in scan128)
    outside = [r for r in scan128 if not r.in_C]
    assert [r.spec for r in outside if not r.is_cyclic] == ["D8", "D16", "D32", "D64", "D128", "S5", "A5"]
    primes = [p for p in range(2, 129) if all(p % d for d in range(2, p))]
    assert [r.spec for r in outside if r.is_cyclic] == ["C1", *(f"C{p}" for p in primes)]


def test_scan128_rows_keep_the_papers_statements(scan128):
    # Corollary 3: the four views agree on whether there is a breaking point
    assert all(r.bp_L == r.bp_Lbar == r.bp_C == r.bp_Cbar for r in scan128)
    # Theorem 1: Lbar has one exactly for the generalized quaternion groups and the cyclic p-groups of order p^k, k >= 2
    breaking = [r for r in scan128 if r.bp_Lbar]
    assert [r.spec for r in breaking if not r.is_cyclic] == ["Q8", "Q16", "Q32", "Q64", "Q128"]
    prime_powers = [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128]
    assert [r.order for r in breaking if r.is_cyclic] == prime_powers
    # Theorem 6: a solvable group whose order has at least two prime divisors is in C
    assert all(r.in_C for r in scan128 if r.is_solvable and len(primes_of(r.order)) >= 2)


def test_scan128_isomorphic_specs_give_the_same_row(scan128):
    rows = {}
    for r in scan128:
        d = r.to_dict()
        rows[d.pop("spec")] = d
    # ZM(m,n,r) is ZM(m,n,r^k) for k prime to n: the same y raised to the kth power
    classes: dict[tuple, list[str]] = {}
    for zm in ZM.members(128):
        twists = frozenset(pow(zm.r, k, zm.m) for k in range(1, zm.n) if math.gcd(k, zm.n) == 1)
        classes.setdefault((zm.m, zm.n, twists), []).append(zm.canonical())
    assert (len(classes), sum(len(c) - 1 for c in classes.values())) == (116, 39)
    pairs = [(c[0], spec) for c in classes.values() for spec in c[1:]]
    # for odd m, D(2m) = ZM(m,2,m-1) and Dic(m) = ZM(m,4,m-1)
    dihedral = [(f"D{2 * m}", f"ZM({m},2,{m - 1})") for m in range(3, 65, 2)]
    dicyclic = [(f"Dic{m}", f"ZM({m},4,{m - 1})") for m in range(3, 33, 2)]
    for a, b in pairs + dihedral + dicyclic:
        assert rows[a] == rows[b], (a, b)


def _row_of_every_view(spec):
    """The scan row of spec read off all four views of its own analysis, with no row shared."""
    a = verify._analyze(spec, DEFAULT_MAX_ORDER, DEFAULT_MAX_SUBGROUPS)
    bp = {kind: bool(breaking_points(a.posets[kind])) for kind in KINDS}
    w = two_interval_cover(a.posets["Lbar"])
    pr = a.profile
    return ScanRow(
        spec=spec,
        order=a.group.order,
        n_subgroups=len(a.lattice.subs),
        n_classes=len(a.classes.classes),
        **{f"bp_{kind}": bp[kind] for kind in KINDS},
        in_C=w is not None,
        witnesses=len(w.all_pairs) if w else 0,
        is_abelian=pr.is_abelian,
        is_cyclic=pr.is_cyclic,
        is_nilpotent=pr.is_nilpotent,
        is_solvable=pr.is_solvable,
    )


def test_scan128_analyzes_each_isomorphism_class_once_and_copies_exact_rows(scan128, monkeypatch):
    analyzed = []
    real = verify._analyze

    def counting(spec, *caps):
        analyzed.append(spec)
        return real(spec, *caps)

    monkeypatch.setattr(verify, "_analyze", counting)
    assert scan_class_c(128) == scan128
    copied = [r for r in scan128 if r.spec not in set(analyzed)]
    assert (len(analyzed), len(copied)) == (307, 85)
    assert len(set(analyzed)) == len(analyzed)
    monkeypatch.undo()
    # every row, copied or not, is what all four views of its own spec say
    for r in scan128:
        assert r == _row_of_every_view(r.spec), r.spec


def test_scan_rows_do_not_depend_on_the_families_sharing_the_call(scan128):
    # the dihedral and dicyclic rows come first in a full scan, so ZM(m,2,m-1) and ZM(m,4,m-1) copy theirs
    zm = [r for r in scan128 if r.spec.startswith("ZM(")]
    assert scan_class_c(128, ("zm",)) == zm


def test_scan_copies_a_capped_row_to_its_isomorphic_specs():
    rows = scan_class_c(24, ("dihedral", "zm"), max_subgroups=10)
    by = {r.spec: r for r in rows}
    assert by["D18"].skipped == "subgroup-cap" and by["D14"].skipped is None
    for m in (3, 5, 7, 9):
        zm = f"ZM({m},2,{m - 1})"
        assert by[zm] == replace(by[f"D{2 * m}"], spec=zm)
    # alone, the zm family analyzes ZM(9,2,8) itself and trips the cap the same way
    assert [r for r in rows if r.spec.startswith("ZM(")] == scan_class_c(24, ("zm",), max_subgroups=10)


def test_scan_row_builds_only_the_class_views_and_no_full_containment_rows(monkeypatch):
    built, lattices, asked = [], [], []
    real_build, real_analyze, real_rows = verify.build_poset, verify._analyze, SubgroupLattice.rows

    def spy_build(lat, ccp, kind):
        built.append(kind)
        return real_build(lat, ccp, kind)

    def spy_analyze(*args):
        a = real_analyze(*args)
        lattices.append(a.lattice)
        return a

    def spy_rows(lat, indices):
        asked.append((lat, list(indices)))
        return real_rows(lat, indices)

    monkeypatch.setattr(verify, "build_poset", spy_build)
    monkeypatch.setattr(verify, "_analyze", spy_analyze)
    monkeypatch.setattr(SubgroupLattice, "rows", spy_rows)
    rows = scan_class_c(24)
    assert {r.is_abelian for r in rows} == {False, True}
    assert built == ["Lbar", "Cbar"] * len(lattices)
    # rows are asked for class representatives only, the least member of each orbit
    assert len(asked) == 2 * len(lattices)
    for lat, indices in asked:
        assert all(lat.orbit.index(lat.orbit[i]) == i for i in indices)
    assert any(len(indices) < len(lat.subs) for lat, indices in asked)


def test_analysis_posets_is_a_read_only_mapping_of_every_kind():
    a = verify._analyze("S4", DEFAULT_MAX_ORDER, DEFAULT_MAX_SUBGROUPS)
    assert list(a.posets) == list(KINDS) and len(a.posets) == 4
    assert [view.kind for view in a.posets.values()] == list(KINDS)
    assert a.posets["L"] is a.posets["L"]
    with pytest.raises(KeyError):
        a.posets["Lhat"]
    with pytest.raises(TypeError):
        a.posets["L"] = a.posets["C"]


def test_scan_counts_match_membership():
    rows = scan_class_c(27, ("cyclic",))
    for r in rows:
        if r.spec in IN_CLASS:
            assert r.in_C == IN_CLASS[r.spec], r.spec
        assert r.in_C == (r.witnesses > 0)


def test_family_names_frozen():
    assert FAMILY_NAMES == (
        "cyclic",
        "dihedral",
        "dicyclic",
        "modular",
        "semidihedral",
        "symmetric",
        "alternating",
        "zm",
    )
