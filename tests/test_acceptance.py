"""End-to-end acceptance checks.

Each test prints one verdict line of the form 'criterion N: pass - ...'
(written straight to the terminal so it shows up even under capture),
then asserts.  Together they pin down the behavior the package promises:
the pinned breaking-point catalog, agreement of the four poset views,
the modular and dihedral facts, the solvability route into the class,
product lifting, oracle equality, the property suites, and byte-stable
CLI output.
"""

import json
import os
import subprocess
import sys

import latcover
import oracles
from latcover.groups import parse_spec, validate_group
from latcover.posets import KINDS, breaking_points, cover_holds, two_interval_cover
from latcover.structure import (
    derived_subgroup,
    frattini,
    omega1,
    order_p_subgroups_conjugate,
)
from latcover.subgroups import closure
from latcover.verify import (
    CATALOG,
    THEOREM1_BREAKING,
    analyze_spec,
    in_class_c,
    verify_corollary3,
    verify_prop4_prop5,
    verify_theorem1,
    verify_theorem6_and_corollaries,
    verify_theorem9,
)
from oracles import normalizer


def _verdict(n: int, desc: str, ok: bool) -> None:
    print(f"criterion {n}: {'pass' if ok else 'fail'} - {desc}", file=sys.__stdout__)
    assert ok, f"criterion {n} failed: {desc}"


def test_criterion_1_breaking_points_match_pinned_catalog():
    suite = verify_theorem1()
    direct = all(
        bool(breaking_points(analyze_spec(s).posets["Lbar"])) == (s in THEOREM1_BREAKING)
        for s in CATALOG
    )
    _verdict(1, "breaking points exist exactly for the pinned groups", suite.passed and direct)


def test_criterion_2_view_agreement():
    suite = verify_corollary3()
    _verdict(2, "breaking-point existence agrees across L, Lbar, C, Cbar", suite.passed)


def test_criterion_3_modular_facts():
    suite = verify_prop4_prop5()
    a = analyze_spec("M3^3")
    facts = (
        sum(1 for s in a.lattice.subs if s.order == 3) == 4
        and derived_subgroup(a.group).order == 3
        and omega1(a.group, 3).order == 9
        and frattini(a.lattice).elems == closure(a.group, (9,)).elems
    )
    _verdict(3, "modular maximal-cyclic groups carry the named cover and facts", suite.passed and facts)


def test_criterion_4_solvable_route_and_counterexamples():
    suite = verify_theorem6_and_corollaries()
    a5 = analyze_spec("A5")
    big = analyze_spec("C2xC2xM3^3")
    extras = (
        not in_class_c(a5)
        and not order_p_subgroups_conjugate(big.lattice, 2)
        and not order_p_subgroups_conjugate(big.lattice, 3)
        and in_class_c(big)
        and all(in_class_c(analyze_spec(f"D{o}")) for o in (6, 10, 12, 20, 24))
        and all(not in_class_c(analyze_spec(f"D{o}")) for o in (8, 16, 32))
    )
    _verdict(4, "solvable two-prime groups enter the class, counterexamples stay out", suite.passed and extras)


def test_criterion_5_product_lifting():
    suite = verify_theorem9()
    ok = (
        suite.passed
        and in_class_c(analyze_spec("C6"))
        and not in_class_c(analyze_spec("C2"))
        and not in_class_c(analyze_spec("C3"))
    )
    _verdict(5, "witness pairs lift through coprime direct products", ok)


def test_criterion_6_oracle_equality():
    ok = True
    for spec in CATALOG:
        if parse_spec(spec).expected_order() > 24:
            continue
        fast = {s.elems for s in analyze_spec(spec).lattice.subs}
        if fast != set(oracles.subgroups_by_spec(spec)):
            ok = False
            break
    _verdict(6, "enumeration equals the exhaustive oracle on every group of order <= 24", ok)


def _property_suite_holds(spec: str) -> bool:
    a = analyze_spec(spec)
    g = a.group
    n = g.order
    if not validate_group(g).ok:
        return False
    if any(n % s.order for s in a.lattice.subs):
        return False
    for c, cls in enumerate(a.classes.classes):
        rep = a.lattice.subs[a.classes.rep[c]]
        if len(cls) * normalizer(g, rep).order != n:
            return False
    for kind in KINDS:
        view = a.posets[kind]
        down = oracles.transpose(view.leq)
        for x in range(view.size):
            if not view.le(x, x):
                return False
            if view.leq[x] & down[x] != 1 << x:
                return False  # antisymmetry
            for y in range(view.size):
                if view.le(x, y) and view.leq[y] & ~view.leq[x]:
                    return False  # transitivity
        if not all(view.le(0, x) for x in range(view.size)):
            return False
        if view.top_idx is not None and not all(view.le(x, view.top_idx) for x in range(view.size)):
            return False
        # breaking point exactly when the M = N cover succeeds
        eligible = [
            x
            for x in range(view.size)
            if x != 0
            and x != view.top_idx
            and not (view.top_idx is None and view.leq[x] == 1 << x)
        ]
        if set(breaking_points(view)) != {x for x in eligible if cover_holds(view, x, x)}:
            return False
        w = two_interval_cover(view)
        if w is not None and not cover_holds(view, w.m_idx, w.n_idx):
            return False
        edges = [(x, y) for x in range(view.size) for y in range(view.size)
                 if x != y and view.le(x, y) and view.leq[x] & down[y] == (1 << x) | (1 << y)]
        if oracles.reachability(view.size, edges) != view.leq:
            return False
    if a.profile.is_abelian:
        if a.posets["L"].size != a.posets["Lbar"].size:
            return False
        if a.posets["L"].leq != a.posets["Lbar"].leq:
            return False
    return True


def test_criterion_7_property_suites_over_catalog():
    ok = all(_property_suite_holds(spec) for spec in CATALOG)
    _verdict(7, "table, lattice, and poset invariants hold on the whole catalog", ok)


def test_criterion_8_cli_byte_determinism(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("LATCOVER_")}
    # the child must import the same latcover as this test, installed or not
    src = os.path.dirname(os.path.dirname(latcover.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    payloads = []
    codes = []
    for tag in ("one", "two"):
        path = tmp_path / f"{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "latcover", "verify", "all", "--json", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        codes.append(proc.returncode)
        payloads.append(path.read_bytes())
    ok = codes == [0, 0] and payloads[0] == payloads[1] and json.loads(payloads[0])["passed"]
    _verdict(8, "verify all --json is byte-identical across runs and exits 0", ok)
