"""The four poset views, breaking points, and two-interval covers."""

import networkx as nx
import pytest

import oracles
from latcover.groups import build_group, primes_of
from latcover.posets import (
    KINDS,
    breaking_points,
    build_poset,
    cover_holds,
    hasse_edges,
    subgroup_is_cyclic,
    two_interval_cover,
)
from latcover.subgroups import conjugacy_classes, enumerate_subgroups
from latcover.verify import CATALOG, FAMILY_NAMES, analyze_spec
from oracles import family_specs

MIDSIZE = ("S3", "C12", "D8", "Q8", "Q16", "A4", "D12", "SD16", "M3^3", "C2xC2")
# the catalog plus the lattice-heavy groups of the benchmark's lattices workload
LEQ_SPECS = (*CATALOG, "C2xC2xC2xC2xC2xC2", "C2xC2xC2xD8", "S4xC2xC2")


def test_kinds_constant():
    assert KINDS == ("L", "Lbar", "C", "Cbar")


def test_s3_view_sizes_and_tops():
    a = analyze_spec("S3")
    sizes = {k: v.size for k, v in a.posets.items()}
    assert sizes == {"L": 6, "Lbar": 4, "C": 5, "Cbar": 3}
    assert a.posets["L"].top_idx == 5
    assert a.posets["Lbar"].top_idx == 3
    # S3 is not cyclic, so the cyclic views have no top
    assert a.posets["C"].top_idx is None
    assert a.posets["Cbar"].top_idx is None


def test_cyclic_group_views_collapse():
    a = analyze_spec("C12")
    assert a.posets["C"].size == a.posets["L"].size == 6
    assert a.posets["C"].top_idx == 5


def test_labels():
    a = analyze_spec("S3")
    assert a.posets["L"].labels == ["o1", "o2", "o2", "o2", "o3", "o6"]
    assert a.posets["Lbar"].labels == ["o1×1", "o2×3", "o3×1", "o6×1"]


def test_orders_and_payload():
    a = analyze_spec("S3")
    view = a.posets["Lbar"]
    assert view.orders == [1, 2, 3, 6]
    assert list(view.payload) == [0, 1, 2, 3]


def test_subgroup_is_cyclic():
    a = analyze_spec("A4")
    g = a.group
    flags = [subgroup_is_cyclic(g, s) for s in a.lattice.subs]
    # trivial + 3 C2 + 4 C3 cyclic; V4 and A4 are not
    assert flags.count(True) == 8
    assert flags[-1] is False


@pytest.mark.parametrize("spec", [*CATALOG, "C2xC2xC2xD8", "S4xC2xC2", "C3xC5xC4", "Q64"])
def test_lattice_cyclic_flags_match_single_checks(spec):
    a = analyze_spec(spec)
    flags = [subgroup_is_cyclic(a.group, s) for s in a.lattice.subs]
    assert a.lattice.cyclic == flags
    assert a.posets["C"].payload == [i for i, f in enumerate(flags) if f]
    assert a.posets["Cbar"].payload == [c for c, r in enumerate(a.classes.rep) if flags[r]]


def test_build_poset_rejects_unknown_kind():
    a = analyze_spec("S3")
    with pytest.raises(ValueError):
        build_poset(a.lattice, a.classes, "X")


def test_breaking_point_goldens():
    c8 = analyze_spec("C8").posets["Lbar"]
    assert [c8.labels[x] for x in breaking_points(c8)] == ["o2×1", "o4×1"]
    q16 = analyze_spec("Q16").posets["Lbar"]
    assert [q16.labels[x] for x in breaking_points(q16)] == ["o2×1"]
    d8 = analyze_spec("D8").posets["Lbar"]
    assert breaking_points(d8) == []


def test_cyclic_view_of_s3_has_no_breaking_points():
    # every candidate is maximal once the full group is dropped
    view = analyze_spec("S3").posets["C"]
    assert breaking_points(view) == []


@pytest.mark.parametrize("spec", MIDSIZE)
@pytest.mark.parametrize("kind", KINDS)
def test_breaking_points_match_oracle(spec, kind):
    view = analyze_spec(spec).posets[kind]
    assert breaking_points(view) == oracles.brute_breaking_points(view)


def test_two_interval_cover_s3():
    view = analyze_spec("S3").posets["Lbar"]
    w = two_interval_cover(view)
    assert (w.m_idx, w.n_idx) == (2, 1)
    assert w.all_pairs == ((2, 1), (1, 2))
    assert cover_holds(view, w.m_idx, w.n_idx)


def test_two_interval_cover_none_for_d8():
    assert two_interval_cover(analyze_spec("D8").posets["Lbar"]) is None


def test_sd16_cover_witness():
    # the dihedral maximal subgroup over the central involution
    a = analyze_spec("SD16")
    view = a.posets["Lbar"]
    w = two_interval_cover(view)
    assert (w.m_idx, w.n_idx) == (6, 2)
    assert view.orders[w.m_idx] == 8
    assert view.orders[w.n_idx] == 2
    assert len(w.all_pairs) == 3


@pytest.mark.parametrize("spec", MIDSIZE)
def test_cover_pairs_match_oracle(spec):
    view = analyze_spec(spec).posets["Lbar"]
    w = two_interval_cover(view)
    brute = oracles.brute_cover_pairs(view)
    if w is None:
        assert brute == []
    else:
        assert set(w.all_pairs) == set(brute)
        assert w.all_pairs[0] == (w.m_idx, w.n_idx)


@pytest.mark.parametrize(
    "spec,kind",
    [(s, k) for s in MIDSIZE for k in KINDS] + [("C2xC2xC2xC2xC2", "Lbar"), ("C2xC2xC2xD8", "Lbar")],
)
def test_cover_pairs_in_search_order(spec, kind):
    view = analyze_spec(spec).posets[kind]
    want = oracles.ordered_cover_pairs(view)
    w = two_interval_cover(view)
    if not want:
        assert w is None
    else:
        assert w.all_pairs == tuple(want)
        assert (w.m_idx, w.n_idx) == want[0]


def test_cover_search_order_prefers_large_m():
    view = analyze_spec("C6").posets["Lbar"]
    w = two_interval_cover(view)
    # both orders work; the deterministic answer puts o3 above
    assert view.orders[w.m_idx] == 3
    assert view.orders[w.n_idx] == 2


@pytest.mark.parametrize("m,n", [(11, 0), (0, -1), (-1, 0), (0, 11), (-12, 11)])
def test_cover_holds_rejects_nodes_out_of_range(m, n):
    view = analyze_spec("S4").posets["Lbar"]
    assert view.size == 11
    bad = m if not 0 <= m < 11 else n
    with pytest.raises(ValueError, match=f"^node {bad} out of range for Lbar view of size 11$"):
        cover_holds(view, m, n)


def test_hasse_q8_golden():
    view = analyze_spec("Q8").posets["L"]
    assert len(oracles.edge_list(hasse_edges(view))) == 7


@pytest.mark.parametrize("spec", MIDSIZE)
@pytest.mark.parametrize("kind", KINDS)
def test_hasse_matches_oracle(spec, kind):
    view = analyze_spec(spec).posets[kind]
    edges = oracles.edge_list(hasse_edges(view))
    assert edges == sorted(oracles.brute_hasse(view))
    # reflexive-transitive closure of the diagram recovers the order
    assert oracles.reachability(view.size, edges) == view.leq


def test_le_against_leq_rows():
    view = analyze_spec("D12").posets["Lbar"]
    for x in range(view.size):
        for y in range(view.size):
            assert view.le(x, y) == bool(view.leq[x] >> y & 1)


def test_down_is_transpose():
    view = analyze_spec("D12").posets["Lbar"]
    down = oracles.transpose(view.leq)
    for x in range(view.size):
        for y in range(view.size):
            assert bool(down[y] >> x & 1) == view.le(x, y)


@pytest.mark.parametrize("spec", LEQ_SPECS)
def test_views_are_linear_extensions(spec):
    # the queries read leq only, relying on no node lying below an earlier one
    for kind in KINDS:
        view = analyze_spec(spec).posets[kind]
        assert all(row & ((1 << i) - 1) == 0 for i, row in enumerate(view.leq)), kind


@pytest.mark.parametrize("spec", LEQ_SPECS)
def test_leq_queries_match_down_oracles(spec):
    for kind in KINDS:
        view = analyze_spec(spec).posets[kind]
        down = oracles.transpose(view.leq)
        assert oracles.edge_list(hasse_edges(view)) == oracles.down_hasse_edges(view, down), kind
        assert breaking_points(view) == oracles.down_breaking_points(view, down), kind


# not supersolvable, so some covers in their L views have composite index
NOT_SUPERSOLVABLE = ("A6", "perm:8:(1,2,3,4,5,6,7);(1,8)(2,7)(3,4)(5,6)", "S4xS3")


@pytest.mark.parametrize("spec", [*LEQ_SPECS, *NOT_SUPERSOLVABLE])
def test_hasse_edges_match_the_loop(spec):
    for kind in KINDS:
        view = analyze_spec(spec).posets[kind]
        covers = hasse_edges(view)
        assert len(covers) == view.size, kind
        assert oracles.edge_list(covers) == oracles.loop_hasse_edges(view), kind
        if spec in NOT_SUPERSOLVABLE and kind == "L":
            orders = view.orders
            assert any(orders[y] // orders[x] not in primes_of(orders[y]) for x, ys in enumerate(covers) for y in ys)


@pytest.mark.parametrize("spec", LEQ_SPECS)
@pytest.mark.parametrize("kind", KINDS)
def test_cover_search_matches_down_oracle(spec, kind):
    view = analyze_spec(spec).posets[kind]
    down = oracles.transpose(view.leq)
    w = two_interval_cover(view)
    assert w == oracles.down_two_interval_cover(view, down, True)
    first = None if w is None else (w.m_idx, w.n_idx)
    assert first == oracles.down_two_interval_cover(view, down, False)


@pytest.mark.parametrize("spec", MIDSIZE)
@pytest.mark.parametrize("kind", KINDS)
def test_hasse_matches_networkx_transitive_reduction(spec, kind):
    view = analyze_spec(spec).posets[kind]
    dag = nx.DiGraph()
    dag.add_nodes_from(range(view.size))
    dag.add_edges_from((x, y) for x in range(view.size) for y in range(view.size) if x != y and view.le(x, y))
    assert oracles.edge_list(hasse_edges(view)) == sorted(nx.transitive_reduction(dag).edges())


def test_breaking_points_of_l_and_c_are_the_one_member_classes_of_lbar_and_cbar():
    # a breaking point is comparable with its conjugates, which have its order, so it is
    # normal; for a normal H, K <= H iff [K] <= [H], and H <= K iff [H] <= [K]
    specs = dict.fromkeys([*(s for fam in FAMILY_NAMES for s in family_specs(fam, 128)), *CATALOG])
    with_points = 0
    for spec in specs:
        lat = enumerate_subgroups(build_group(spec))
        ccp = conjugacy_classes(lat)
        for kind in ("L", "C"):
            view, class_view = build_poset(lat, ccp, kind), build_poset(lat, ccp, kind + "bar")
            node = {sub: x for x, sub in enumerate(view.payload)}
            singles = [ccp.classes[class_view.payload[x]] for x in breaking_points(class_view)]
            expected = sorted(node[cls[0]] for cls in singles if len(cls) == 1)
            assert breaking_points(view) == expected, (spec, kind)
            with_points += bool(expected)
    assert (len(specs), with_points) == (395, 36)
