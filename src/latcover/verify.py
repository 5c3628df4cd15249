"""Machine checks for the covering and breaking-point statements.

Each suite replays one statement over a pinned catalog of small groups
and records per-case expected/computed values.  Suite names are part of
the command-line interface and stay fixed even if cases are added.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Any, Callable

from .errors import SubgroupCapExceeded
from .groups import DEFAULT_MAX_ORDER, FAMILIES, ZM, Dicyclic, Dihedral, GroupSpec, GroupTable, build_group
from .posets import (
    KINDS,
    PosetView,
    breaking_points,
    build_poset,
    cover_holds,
    subgroup_is_cyclic,
    two_interval_cover,
)
from .structure import (
    StructureProfile,
    build_profile,
    derived_subgroup,
    frattini,
    is_cyclic_pgroup_order_ge_p2,
    is_generalized_quaternion,
    omega1,
    order_p_subgroups_conjugate,
    p_complement,
    sylow_subgroups,
)
from .subgroups import (
    DEFAULT_MAX_SUBGROUPS,
    ConjClassPoset,
    Subgroup,
    SubgroupLattice,
    closure,
    conjugacy_classes,
    enumerate_subgroups,
)

# groups whose class poset has a breaking point, and contrasting ones that do not
THEOREM1_BREAKING = ("C4", "C8", "C9", "C25", "C27", "Q8", "Q16", "Q32")
THEOREM1_NONBREAKING = (
    "C6",
    "C2xC2",
    "D8",
    "D16",
    "S3",
    "S4",
    "A4",
    "A5",
    "M2^4",
    "M3^3",
    "ZM(7,3,2)",
    "C2xC2xM3^3",
)

CATALOG = (
    "C1",
    "C2",
    "C3",
    "C4",
    "C6",
    "C8",
    "C9",
    "C12",
    "C25",
    "C27",
    "C2xC2",
    "D6",
    "D8",
    "D10",
    "D12",
    "D16",
    "D20",
    "D24",
    "D32",
    "Q8",
    "Q16",
    "Q32",
    "Dic3",
    "SD16",
    "M2^4",
    "M2^5",
    "M3^3",
    "M3^4",
    "S3",
    "S4",
    "A4",
    "A5",
    "ZM(7,3,2)",
    "ZM(5,4,2)",
    "Q8xC3",
    "C2xC2xM3^3",
)


class _Views(Mapping[str, PosetView]):
    """The four poset views of a lattice, in KINDS order, each built on its first read."""

    def __init__(self, lat: SubgroupLattice, ccp: ConjClassPoset) -> None:
        self._lat, self._ccp = lat, ccp
        self._built: dict[str, PosetView] = {}

    def __getitem__(self, kind: str) -> PosetView:
        view = self._built.get(kind)
        if view is None:
            if kind not in KINDS:
                raise KeyError(kind)
            view = self._built[kind] = build_poset(self._lat, self._ccp, kind)
        return view

    def __iter__(self) -> Iterator[str]:
        return iter(KINDS)

    def __len__(self) -> int:
        return len(KINDS)


@dataclass
class Analysis:
    """Everything derived from one group spec, built once and shared; group.spec is the spec, canonical.

    posets maps each of the four KINDS to its view, read-only, and
    builds a view on its first read: a caller that reads only Lbar
    builds neither the other views nor the lattice's full containment
    rows.
    """

    group: GroupTable
    lattice: SubgroupLattice
    classes: ConjClassPoset
    posets: Mapping[str, PosetView]
    profile: StructureProfile

    def class_rep(self, node: int) -> Subgroup:
        """The representative of the class at an Lbar node (Lbar node c is class c); inverse of _class_node."""
        return self.lattice.subs[self.classes.rep[node]]


def _analyze(spec: str, max_order: int, max_subgroups: int) -> Analysis:
    g = build_group(spec, max_order)
    lat = enumerate_subgroups(g, max_subgroups)
    ccp = conjugacy_classes(lat)
    return Analysis(g, lat, ccp, _Views(lat, ccp), build_profile(lat))


@lru_cache(maxsize=128)
def analyze_spec(
    spec: str,
    max_order: int = DEFAULT_MAX_ORDER,
    max_subgroups: int = DEFAULT_MAX_SUBGROUPS,
) -> Analysis:
    """Cached full analysis of a spec string.

    The cache keeps the 128 most recent analyses, more than the 40
    distinct specs `verify all` looks up, so a long-running process does
    not hold every group it has analyzed.
    """
    return _analyze(spec, max_order, max_subgroups)


def in_class_c(a: Analysis) -> bool:
    """Whether two intervals of the class poset cover it entirely."""
    return two_interval_cover(a.posets["Lbar"]) is not None


@dataclass(frozen=True)
class CaseResult:
    group: str
    claim: str
    expected: Any
    computed: Any
    ok: bool
    witness: Any = None

    def to_dict(self) -> dict[str, Any]:
        # getattr, not asdict: asdict deep-copies every witness
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.witness is None:
            del d["witness"]
        return d


@dataclass
class SuiteResult:
    name: str
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cases)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "cases": [c.to_dict() for c in self.cases],
        }


def _case(group: str, claim: str, expected: Any, computed: Any, witness: Any = None) -> CaseResult:
    return CaseResult(group, claim, expected, computed, expected == computed, witness)


def _class_node(a: Analysis, sub: Subgroup | tuple[int, ...]) -> int:
    """The Lbar node of the conjugacy class of a subgroup of a.group; the inverse of Analysis.class_rep."""
    return a.lattice.orbit[a.lattice.index_of(sub)]


def _cover_case(
    a: Analysis, group: str, claim: str, m_sub: Subgroup | tuple[int, ...], n_sub: Subgroup | tuple[int, ...]
) -> CaseResult:
    """Whether the intervals above the class of m_sub and below that of n_sub cover Lbar."""
    view = a.posets["Lbar"]
    m, n = _class_node(a, m_sub), _class_node(a, n_sub)
    return _case(group, claim, True, cover_holds(view, m, n), witness={"m": view.labels[m], "n": view.labels[n]})


def verify_theorem1() -> SuiteResult:
    """Class-poset breaking points exist exactly for cyclic p-groups of
    order at least p^2 and for generalized quaternion groups."""
    cases = []
    for spec in CATALOG:
        a = analyze_spec(spec)
        view = a.posets["Lbar"]
        bps = breaking_points(view)
        recognized = is_cyclic_pgroup_order_ge_p2(a.group) or is_generalized_quaternion(a.lattice)
        has = bool(bps)
        if spec in THEOREM1_BREAKING:
            expected, ok = True, has and recognized
        elif spec in THEOREM1_NONBREAKING:
            expected, ok = False, not has and not recognized
        else:
            expected, ok = recognized, has == recognized
        cases.append(
            CaseResult(
                group=spec,
                claim="breaking-point-iff-recognized",
                expected=expected,
                computed=has,
                ok=ok,
                witness={
                    "recognizer": recognized,
                    "breaking_points": [view.labels[x] for x in bps],
                },
            )
        )
        if not has:
            continue
        cases.append(_case(spec, "is-p-group", True, len(a.profile.primes) == 1))
        for x in bps:
            o = view.orders[x]
            count = len(a.lattice.of_order(o))
            size = len(a.classes.classes[view.payload[x]])
            cases.append(_case(spec, f"order-{o}-subgroup-unique", 1, count))
            cases.append(_case(spec, f"order-{o}-class-size-one", 1, size))
    return SuiteResult("theorem1", cases)


def verify_corollary3() -> SuiteResult:
    """Whether breaking points exist does not depend on which of the four
    poset views is asked."""
    cases = []
    for spec in CATALOG:
        a = analyze_spec(spec)
        flags = {kind: bool(breaking_points(a.posets[kind])) for kind in KINDS}
        agree = len(set(flags.values())) == 1
        cases.append(CaseResult(spec, "existence-agrees-across-views", True, agree, agree, flags))
    return SuiteResult("corollary3", cases)


_MODULAR = (("M2^4", 2, 4), ("M2^5", 2, 5), ("M3^3", 3, 3), ("M3^4", 3, 4))


def verify_prop4_prop5() -> SuiteResult:
    """The modular maximal-cyclic p-groups admit a two-interval cover with
    the expected named pair; dihedral 2-groups admit none."""
    cases = []
    for spec, p, n in _MODULAR:
        a = analyze_spec(spec)
        g, lat = a.group, a.lattice
        view = a.posets["Lbar"]
        w = two_interval_cover(view)
        cases.append(_case(spec, "in-class-c", True, w is not None))
        if w is None:
            continue
        # generators sit at fixed word indices: x at p, y at 1
        xp = p * p
        xq = p ** (n - 2) * p
        m_named, n_named = closure(g, (xp, 1)), closure(g, (xq,))
        cases.append(_cover_case(a, spec, "named-pair-covers", m_named, n_named))
        named = (_class_node(a, m_named), _class_node(a, n_named))
        cases.append(_case(spec, "named-pair-among-witnesses", True, named in w.all_pairs))
        om = omega1(g, p)
        ph = frattini(lat)
        cases.append(_case(spec, "first-witness-m-contains-omega1", True, view.le(_class_node(a, om), w.m_idx)))
        cases.append(_case(spec, "first-witness-n-inside-frattini", True, view.le(w.n_idx, _class_node(a, ph))))
        cases.append(_case(spec, "derived-subgroup-order", p, derived_subgroup(g).order))
        cases.append(_case(spec, "omega1-order", p * p, om.order))
        cases.append(_case(spec, "frattini-generated-by-x-p", True, ph.elems == closure(g, (xp,)).elems))
        cases.append(_case(spec, "frattini-index", p * p, g.order // ph.order))
        cases.append(_case(spec, "minimal-subgroup-count", p + 1, len(lat.of_order(p))))
    for spec in ("D8", "D16", "D32"):
        cases.append(_case(spec, "in-class-c", False, in_class_c(analyze_spec(spec))))
    return SuiteResult("prop4-5", cases)


def _qualifying_primes(a: Analysis) -> list[tuple[int, Subgroup, Subgroup]]:
    """Primes with a single class of order-p subgroups and a p-complement.

    Returns (p, complement, order-p subgroup) triples.
    """
    out = []
    for p in a.profile.primes:
        if not order_p_subgroups_conjugate(a.lattice, p):
            continue
        comp = p_complement(a.lattice, p)
        if comp is None:
            continue
        out.append((p, comp, a.lattice.subs[a.lattice.of_order(p)[0]]))
    return out


def verify_theorem6_and_corollaries() -> SuiteResult:
    """Solvable groups with at least two prime divisors land in the class,
    witnessed by a p-complement above and an order-p subgroup below."""
    cases = []
    for spec in ("S3", "D10", "ZM(7,3,2)", "ZM(5,4,2)", "Q8xC3"):
        a = analyze_spec(spec)
        cases.append(_case(spec, "solvable", True, a.profile.is_solvable))
        cases.append(_case(spec, "at-least-two-primes", True, len(a.profile.primes) >= 2))
        cases.append(_case(spec, "in-class-c", True, in_class_c(a)))
        quals = _qualifying_primes(a)
        cases.append(_case(spec, "has-qualifying-prime", True, bool(quals)))
        for p, comp, small in quals:
            cases.append(_cover_case(a, spec, f"complement-cover-p{p}", comp, small))
    for spec in ("ZM(7,3,2)", "ZM(5,4,2)"):
        a = analyze_spec(spec)
        allcyc = all(
            subgroup_is_cyclic(a.group, a.lattice.subs[i])
            for p in a.profile.primes
            for i in sylow_subgroups(a.lattice, p)
        )
        cases.append(_case(spec, "all-sylow-cyclic", True, allcyc))
    # the four-point alternating group lands in the class with the classical
    # pair: Klein four-group above, a three-cycle subgroup below
    a4 = analyze_spec("A4")
    v4 = a4.lattice.subs[a4.lattice.of_order(4)[0]]
    c3 = a4.lattice.subs[a4.lattice.of_order(3)[0]]
    cases.append(_case("A4", "in-class-c", True, in_class_c(a4)))
    cases.append(_cover_case(a4, "A4", "klein-over-three-cycle-covers", v4, c3))
    # solvability matters: the smallest nonsolvable group stays out
    a5 = analyze_spec("A5")
    cases.append(_case("A5", "order-3-single-class", True, order_p_subgroups_conjugate(a5.lattice, 3)))
    cases.append(_case("A5", "order-5-single-class", True, order_p_subgroups_conjugate(a5.lattice, 5)))
    cases.append(_case("A5", "solvable", False, a5.profile.is_solvable))
    cases.append(_case("A5", "in-class-c", False, in_class_c(a5)))
    # membership can hold with no qualifying prime at all
    big = analyze_spec("C2xC2xM3^3")
    cases.append(_case("C2xC2xM3^3", "in-class-c", True, in_class_c(big)))
    for p in (2, 3):
        conj = order_p_subgroups_conjugate(big.lattice, p)
        cases.append(_case("C2xC2xM3^3", f"order-{p}-classes-not-single", False, conj))
    cases.append(_case("C2xC2xM3^3", "qualifying-primes", [], [p for p, _, _ in _qualifying_primes(big)]))
    for order in (6, 10, 12, 20, 24, 8, 16, 32):
        spec = f"D{order}"
        expected = order & (order - 1) != 0
        cases.append(_case(spec, "in-class-c-iff-not-2-power", expected, in_class_c(analyze_spec(spec))))
    return SuiteResult("theorem6", cases)


_LIFT_PAIRS = (("M3^3", "C2xC2"), ("Q8", "C3"), ("C9", "C4"))


def verify_theorem9() -> SuiteResult:
    """A witness pair survives a direct product with a coprime factor:
    lift M to M x H and keep N x 1."""
    cases = []
    for s1, s2 in _LIFT_PAIRS:
        a1 = analyze_spec(s1)
        w = two_interval_cover(a1.posets["Lbar"])
        cases.append(_case(s1, "factor-in-class-c", True, w is not None))
        if w is None:
            continue
        prod_spec = f"{s1}x{s2}"
        ap = analyze_spec(prod_spec)
        n2 = ap.group.order // a1.group.order
        cases.append(_case(prod_spec, "coprime-orders", 1, math.gcd(a1.group.order, n2)))
        m_elems = a1.class_rep(w.m_idx).elems
        n_elems = a1.class_rep(w.n_idx).elems
        lifted_m = tuple(sorted(e * n2 + j for e in m_elems for j in range(n2)))
        lifted_n = tuple(e * n2 for e in n_elems)
        cases.append(_cover_case(ap, prod_spec, "lifted-pair-covers", lifted_m, lifted_n))
        cases.append(_case(prod_spec, "in-class-c", True, in_class_c(ap)))
    cases.append(_case("C6", "in-class-c", True, in_class_c(analyze_spec("C6"))))
    for spec in ("C2", "C3"):
        cases.append(_case(spec, "in-class-c", False, in_class_c(analyze_spec(spec))))
    for spec in ("S3xC1", "C1xS3"):
        cases.append(
            _case(
                spec,
                "trivial-factor-preserves-membership",
                in_class_c(analyze_spec("S3")),
                in_class_c(analyze_spec(spec)),
            )
        )
    return SuiteResult("theorem9", cases)


SUITES: dict[str, Callable[[], SuiteResult]] = {
    "theorem1": verify_theorem1,
    "corollary3": verify_corollary3,
    "prop4-5": verify_prop4_prop5,
    "theorem6": verify_theorem6_and_corollaries,
    "theorem9": verify_theorem9,
}
SUITE_ORDER = tuple(SUITES)


def run_suites(names: tuple[str, ...] | list[str]) -> list[SuiteResult]:
    """Run the named suites in canonical order, each once; 'all' names every suite."""
    for nm in names:
        if nm != "all" and nm not in SUITES:
            raise ValueError(f"unknown suite {nm!r}; choose from {', '.join(SUITE_ORDER)} or all")
    return [SUITES[nm]() for nm in SUITE_ORDER if nm in names or "all" in names]


# ---------------------------------------------------------------------------
# family scan


FAMILY_NAMES = tuple(FAMILIES)


def _family(name: str) -> type[GroupSpec]:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; choose from {', '.join(FAMILY_NAMES)}") from None


@dataclass(frozen=True)
class ScanRow:
    spec: str
    order: int
    n_subgroups: int | None = None
    n_classes: int | None = None
    bp_L: bool | None = None
    bp_Lbar: bool | None = None
    bp_C: bool | None = None
    bp_Cbar: bool | None = None
    in_C: bool | None = None
    witnesses: int | None = None
    is_abelian: bool | None = None
    is_cyclic: bool | None = None
    is_nilpotent: bool | None = None
    is_solvable: bool | None = None
    skipped: str | None = None

    def to_dict(self) -> dict[str, Any]:
        # getattr, not asdict: asdict deep-copies every value
        return {key: getattr(self, key) for key in SCAN_KEYS}


# the scan payload keys, the field names in field order; CSV and table show the first ten
SCAN_KEYS = tuple(f.name for f in fields(ScanRow))


def _iso_key(spec: GroupSpec) -> GroupSpec:
    """One spec per isomorphism class that the scan families are known to repeat.

    ZM(m,n,r) is isomorphic to ZM(m,n,r^k) for every k coprime to n, by
    b -> b^k, so each goes to the one with the least such r^k mod m; for
    odd m >= 3, D(2m) is ZM(m,2,m-1) and Dic(m) is ZM(m,4,m-1).  Any
    other spec is its own key.
    """
    if isinstance(spec, ZM):
        m, n, r = spec.m, spec.n, spec.r
        return ZM(m, n, min(pow(r, k, m) for k in range(1, n + 1) if math.gcd(k, n) == 1))
    if isinstance(spec, Dihedral) and spec.order % 4 == 2:
        return ZM(spec.order // 2, 2, spec.order // 2 - 1)
    if isinstance(spec, Dicyclic) and spec.m % 2 == 1:
        return ZM(spec.m, 4, spec.m - 1)
    return spec


def _scan_row(spec: str, order: int, max_order: int, max_subgroups: int) -> ScanRow:
    """The row of one group, a spec of the given expected order.

    L and C are not built: a breaking point of L is normal, so those of
    L are the Lbar breaking points whose class has one member, and the
    same holds for C and Cbar.
    """
    try:
        a = _analyze(spec, max_order, max_subgroups)
    except SubgroupCapExceeded:
        return ScanRow(spec=spec, order=order, skipped="subgroup-cap")
    classes = a.classes.classes
    bp = {}
    for kind in ("Lbar", "Cbar"):
        view = a.posets[kind]
        bp[kind] = [len(classes[view.payload[x]]) for x in breaking_points(view)]
    w = two_interval_cover(a.posets["Lbar"])
    return ScanRow(
        spec=a.group.spec,
        order=a.group.order,
        n_subgroups=len(a.lattice.subs),
        n_classes=len(classes),
        bp_L=1 in bp["Lbar"],
        bp_Lbar=bool(bp["Lbar"]),
        bp_C=1 in bp["Cbar"],
        bp_Cbar=bool(bp["Cbar"]),
        in_C=w is not None,
        witnesses=len(w.all_pairs) if w is not None else 0,
        is_abelian=a.profile.is_abelian,
        is_cyclic=a.profile.is_cyclic,
        is_nilpotent=a.profile.is_nilpotent,
        is_solvable=a.profile.is_solvable,
    )


def scan_class_c(
    max_order: int = DEFAULT_MAX_ORDER,
    families: tuple[str, ...] | list[str] | None = None,
    max_subgroups: int = DEFAULT_MAX_SUBGROUPS,
) -> list[ScanRow]:
    """Sweep whole families up to an order bound, one row per group.

    Rows come out in family order, ascending within each family.  A row
    whose subgroup enumeration trips the cap is kept but marked skipped.
    Each isomorphism class that _iso_key names is analyzed once per
    call, at its first spec: a later spec's row is that row with its
    own spec, skipped or not, so a row does not depend on which
    families share the call.  Analyses are not cached; a long sweep
    holds one group at a time.
    """
    # a family named twice is scanned once, where it is first named
    fams = FAMILY_NAMES if families is None else dict.fromkeys(families)
    specs = [spec for fam in fams for spec in _family(fam).members(max_order)]
    first: dict[GroupSpec, ScanRow] = {}
    rows = []
    for spec in specs:
        name = spec.canonical()
        key = _iso_key(spec)
        row = first.get(key)
        if row is None:
            row = first[key] = _scan_row(name, spec.expected_order(), max_order, max_subgroups)
        else:
            row = replace(row, spec=name)
        rows.append(row)
    return rows
