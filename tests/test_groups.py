"""Group construction: spec-string parsing, the builders, and table validation."""

import math
import random

import numpy as np
import pytest

import oracles
from latcover import groups
from latcover.errors import OrderCapExceeded, SpecInvalid
from latcover.groups import (
    DEFAULT_MAX_ORDER,
    GroupTable,
    ValidationResult,
    build_group,
    parse_spec,
    validate_group,
)
from latcover.subgroups import closure
from latcover.verify import CATALOG, FAMILY_NAMES
from oracles import element_order, family_specs


def test_cyclic_table():
    g = build_group("C4")
    assert g.order == 4
    assert g.labels == ["1", "a", "a^2", "a^3"]
    assert g.mul[1][3] == 0
    assert g.inv == [0, 3, 2, 1]
    assert [element_order(g, i) for i in range(4)] == [1, 4, 2, 4]


def test_trivial_group():
    g = build_group("C1")
    assert g.order == 1
    assert g.mul == [[0]]
    assert validate_group(g).ok


def test_element_order_rejects_out_of_range():
    g = build_group("C4")
    with pytest.raises(ValueError):
        element_order(g, 4)


def _orders(g: GroupTable) -> list[int]:
    return sorted(g.element_orders)


def test_dihedral_element_orders():
    assert _orders(build_group("D8")) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_quaternion_has_unique_involution():
    for spec, order in (("Q8", 8), ("Q16", 16), ("Dic3", 12)):
        g = build_group(spec)
        assert g.order == order
        assert sum(1 for o in g.element_orders if o == 2) == 1


def test_semidihedral_element_orders():
    got = _orders(build_group("SD16"))
    assert got == [1] + [2] * 5 + [4] * 6 + [8] * 4


def test_modular_element_orders():
    # order 27 with exponent 9: eight order-3 elements, the rest order 9
    got = _orders(build_group("M3^3"))
    assert got == [1] + [3] * 8 + [9] * 18


@pytest.mark.parametrize("m,n,r", [(7, 3, 2), (5, 4, 2), (5, 4, 3), (9, 2, 8), (3, 4, 2)])
def test_zm_presentation(m, n, r):
    g = build_group(f"ZM({m},{n},{r})")
    assert g.order == m * n
    x = n  # word index of x^1 y^0
    y = 1  # word index of x^0 y^1
    assert element_order(g, x) == m
    assert element_order(g, y) == n
    # defining relation: y * x = x^r * y
    assert g.mul[y][x] == r * n + 1


def test_symmetric_labels_and_order():
    g = build_group("S3")
    assert g.labels == ["()", "(2 3)", "(1 2)", "(1 2 3)", "(1 3 2)", "(1 3)"]
    assert build_group("S4").order == 24


def test_alternating_orders():
    assert build_group("A4").order == 12
    assert build_group("A5").order == 60


def test_perm_spec_generates_symmetric():
    g = build_group("perm:3:(1,2);(2,3)")
    assert g.order == 6
    assert _orders(g) == _orders(build_group("S3"))
    assert g.labels[0] == "()"


def test_perm_spec_single_cycle():
    assert build_group("perm:5:(1,2,3,4,5)").order == 5


def test_perm_spec_klein():
    g = build_group("perm:4:(1,2)(3,4);(1,3)(2,4)")
    assert g.order == 4
    assert _orders(g) == [1, 2, 2, 2]


def test_perm_spec_hits_order_cap():
    with pytest.raises(OrderCapExceeded):
        build_group("perm:9:(1,2);(1,2,3,4,5,6,7,8,9)")


def test_direct_product_table():
    g = oracles.python_direct_product(build_group("C2"), build_group("C3"))
    assert g.order == 6
    assert max(g.element_orders) == 6
    assert "(a,a^2)" in g.labels
    assert build_group("C2xC3").mul == g.mul


def test_direct_product_three_factors():
    g = build_group("C2xC2xC2")
    assert g.order == 8
    assert _orders(g) == [1, 2, 2, 2, 2, 2, 2, 2]


def test_order_cap_checked_before_building():
    with pytest.raises(OrderCapExceeded):
        build_group("C600")
    assert build_group("C600", max_order=600).order == 600
    with pytest.raises(OrderCapExceeded):
        build_group("C30xC30")


def test_product_builds_no_factor_past_an_over_cap_partial_product(monkeypatch):
    # a perm: factor leaves the product's order unknown, so the running product meets the cap
    drafted = []
    draft = groups.Cyclic.draft
    monkeypatch.setattr(groups.Cyclic, "draft", lambda self, n: drafted.append(self) or draft(self, n))
    with pytest.raises(OrderCapExceeded, match="^product order 1024 exceeds cap 512$"):
        build_group("perm:2:(1,2)" + "xC512" * 40)
    assert len(drafted) == 1


@pytest.mark.parametrize(
    "text,canon",
    [
        ("C12", "C12"),
        ("Q8", "Q8"),
        ("Dic2", "Q8"),
        ("Dic4", "Q16"),
        ("Dic3", "Dic3"),
        ("M3^3", "M3^3"),
        ("SD16", "SD16"),
        ("ZM(7,3,2)", "ZM(7,3,2)"),
        ("C2xC2xM3^3", "C2xC2xM3^3"),
        ("perm:3:(1,2);(2,3)", "perm:3:(1,2);(2,3)"),
        ("perm:6:(1,2)(2,3);(4,5,6)(4,6)", "perm:6:(1,3,2);(4,5)"),
        ("perm:5:(1,2)(1,2);(3,4)", "perm:5:();(3,4)"),
        ("perm:4:()", "perm:4:()"),
        ("perm:12:(12,3)", "perm:12:(3,12)"),
        ("perm:1000000000:(1000000000,1)", "perm:1000000000:(1,1000000000)"),
    ],
)
def test_parse_canonical(text, canon):
    assert parse_spec(text).canonical() == canon


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_parse_reads_what_canonical_writes(family):
    # a family's notation is written once, and canonical() and parse_spec both read it
    members = groups.FAMILIES[family].members(DEFAULT_MAX_ORDER)
    assert members
    assert all(parse_spec(spec.canonical()) == spec for spec in members)


def test_parse_expected_orders():
    assert parse_spec("SD16").expected_order() == 16
    assert parse_spec("ZM(7,3,2)").expected_order() == 21
    assert parse_spec("Q8xC3").expected_order() == 24
    assert parse_spec("perm:3:(1,2)").expected_order() is None


def test_expected_orders_exact_below_bound():
    bound = groups._ORDER_BOUND
    for n in range(1, 2000):
        want = math.factorial(n)
        got_s = parse_spec(f"S{n}").expected_order()
        got_a = parse_spec(f"A{n}").expected_order()
        if want < bound:
            assert got_s == want
        else:
            assert got_s >= bound
        if want // 2 < bound:
            assert got_a == max(1, want // 2)
        else:
            assert got_a >= bound
    assert parse_spec("M3^7").expected_order() == 3**7
    assert parse_spec("M2^14284").expected_order() == 2**14284
    assert parse_spec("M2^100000").expected_order() >= bound


def test_parse_product_factors():
    spec = parse_spec("C2xC2xM3^3")
    assert len(spec.factors) == 3


@pytest.mark.parametrize(
    "text",
    [
        "",
        "C0",
        "Cfoo",
        "D7",
        "D2",
        "Q4",
        "Q12",
        "M4^3",
        "M3^2",
        "M2^3",
        "SD8",
        "SD20",
        "ZM(4,2,3)",
        "ZM(7,3,3)",
        "ZM(6,2,5)",
        "ZM(7,0,2)",
        "S0",
        "A0",
        "X5",
        "S3x",
        "xC2",
        "C2x(C3",
        "ZM(7,3,2))xC2",
        "perm:3:(1,2)x(C3",
        "perm:2:(1,3)",
        "perm:3:(1,1,2)",
        "perm:0:(1)",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(SpecInvalid):
        parse_spec(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("C0", "cyclic order must be >= 1, got 0"),
        ("D7", "dihedral order must be even and >= 4, got 7"),
        ("Dic1", "dicyclic parameter must be >= 2, got 1"),
        ("Q12", "quaternion order must be 2^n >= 8, got 12"),
        ("M3^2", "M3^n needs n >= 3, got n=2"),
        ("SD8", "semidihedral order must be 2^n with n >= 4, got 8"),
        ("S0", "symmetric degree must be >= 1, got 0"),
        ("A0", "alternating degree must be >= 1, got 0"),
        ("ZM(7,3,3)", "ZM(7,3,3) needs r^n = 1 (mod m)"),
        ("ZM(7,3)", "unrecognized group spec 'ZM(7,3)'"),
        ("M3^", "unrecognized group spec 'M3^'"),
        ("C-1", "unrecognized group spec 'C-1'"),
        pytest.param("C" + "1" * 5000, "integer of 5000 digits is too long", id="C<5000 digits>"),
        ("perm:0:(1)", "permutation degree must be >= 1, got 0"),
    ],
)
def test_parse_reject_messages(text, message):
    with pytest.raises(SpecInvalid) as info:
        parse_spec(text)
    assert str(info.value) == message


def test_is_prime_matches_trial_division():
    assert [n for n in range(5000) if groups._is_prime(n)] == [n for n in range(5000) if groups.primes_of(n) == [n]]
    # strong pseudoprimes to the first 4, 9 and 12 prime bases: only a later base shows each one composite
    assert not any(groups._is_prime(n) for n in (3215031751, 3825123056546413051, 318665857834031151167461))
    assert groups._is_prime(2**61 - 1) and groups._is_prime(1000000000000000003)


@pytest.mark.parametrize(
    "spec",
    ["C1", "C12", "D8", "D12", "Q16", "Dic3", "SD16", "M2^4", "M3^3", "S4", "A4", "ZM(5,4,2)", "Q8xC3"],
)
def test_builders_produce_valid_tables(spec):
    assert validate_group(build_group(spec)).ok


# a Latin square with identity and two-sided inverses that is not associative
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_validate_reports_associativity_with_witness():
    g = GroupTable(5, LOOP5, [0, 1, 2, 3, 4], ["e", "a", "b", "c", "d"], "loop5")
    res = validate_group(g)
    assert not res.ok
    assert res.problem == "associativity"
    a, b, c = res.witness
    assert LOOP5[LOOP5[a][b]][c] != LOOP5[a][LOOP5[b][c]]


@pytest.mark.parametrize("spec", [*CATALOG, "C512", "M2^8", "Q256", "C2xC2xC2xC2xC2xC2xC2", "A4xA4"])
def test_generators_generate_the_group(spec):
    g = build_group(spec)
    assert closure(g, g.generators).order == g.order
    assert len(g.generators) <= g.order.bit_length()


@pytest.mark.parametrize("spec", CATALOG)
def test_validate_matches_sweep_on_catalog(spec):
    g = build_group(spec)
    assert validate_group(g) == oracles.sweep_validate_group(g) == ValidationResult(True)


def _planted(g: GroupTable, rng: random.Random, through_identity: bool) -> GroupTable:
    """g's table with one intercalate, away from row and column 0, swapped.

    Rows x, y = x*t and columns a, b = t*a, for an involution t, hold the
    2x2 latin subsquare [[x*a, x*b], [x*b, x*a]].  Swapping it keeps the
    table latin with identity 0.  With through_identity, x*a = 0, so the
    recomputed inverses are usually no longer two-sided.
    """
    n = g.order
    while True:
        x = rng.randrange(1, n)
        a = g.inv[x] if through_identity else rng.randrange(1, n)
        t = rng.choice([t for t in range(1, n) if g.mul[t][t] == 0])
        y, b = g.mul[x][t], g.mul[t][a]
        if y != 0 and b != 0 and (through_identity or 0 not in (g.mul[x][a], g.mul[x][b])):
            break
    mul = [list(row) for row in g.mul]
    mul[x][a], mul[x][b] = mul[x][b], mul[x][a]
    mul[y][a], mul[y][b] = mul[y][b], mul[y][a]
    return GroupTable(n, mul, [row.index(0) for row in mul], list(g.labels), f"{g.spec}+swap")


PLANTED = ["C64", "D64", "Q64", "SD64", "M2^6", "C2xC2xC2xC2xC2xC2", "C2xC2xC2xD8", "C4xC4xC4", "S4xC2xC2", "C128"]


@pytest.mark.parametrize("spec", PLANTED)
def test_validate_matches_sweep_on_planted_tables(spec):
    g = build_group(spec)
    for seed in range(3):
        for through_identity in (False, True):
            h = _planted(g, random.Random(seed), through_identity)
            res = validate_group(h)
            assert res == oracles.sweep_validate_group(h)
            assert res.problem in (("inverse", "associativity") if through_identity else ("associativity",))


@pytest.mark.parametrize("spec", ["C16", "C2xC2xC2xC2", "Q16", "D8"])
def test_validate_matches_sweep_on_loop_times_group(spec):
    # the group factor takes the lowest indices, so the first generators
    # found pass the per-generator check and a later one must fail it
    loop = GroupTable(5, LOOP5, [0, 1, 2, 3, 4], ["e", "a", "b", "c", "d"], "loop5")
    h = oracles.python_direct_product(loop, build_group(spec))
    res = validate_group(h)
    assert res.problem == "associativity"
    assert res == oracles.sweep_validate_group(h)


def test_validate_reports_shape():
    g = GroupTable(2, [[0, 1]], [0, 1], ["1", "a"], "bad")
    assert validate_group(g).problem == "shape"


def test_validate_reports_latin():
    g = GroupTable(2, [[0, 1], [1, 1]], [0, 1], ["1", "a"], "bad")
    assert validate_group(g).problem == "latin"


def test_validate_reports_identity():
    g = GroupTable(2, [[1, 0], [0, 1]], [0, 1], ["1", "a"], "bad")
    assert validate_group(g).problem == "identity"


def test_validate_reports_inverse():
    c3 = build_group("C3")
    g = GroupTable(3, c3.mul, [0, 1, 2], list(c3.labels), "bad")
    res = validate_group(g)
    assert res.problem == "inverse"


def test_default_max_order():
    assert DEFAULT_MAX_ORDER == 512


WREATH_2_2_2 = "perm:8:(1,2);(1,3)(2,4);(1,5)(2,6)(3,7)(4,8)"
WREATH_3_3 = "perm:9:(1,2,3);(1,4,7)(2,5,8)(3,6,9)"
BUILDER_SPECS = [
    *(spec for family in FAMILY_NAMES for spec in family_specs(family, 128)),
    "C512",
    "C500",
    "M2^8",
    "Q256",
    "D512",
    "SD256",
    "S4xC2xC2",
    "C2xC2xC2xD8",
    "C3xC5xC4",
    # the first factor's table is uint8 or uint16, too narrow for the product's indices
    "C4xC128",
    "C2xC256",
    "Q8xC64",
    WREATH_2_2_2,
    WREATH_3_3,
]


def _assert_same_table(g: GroupTable, h: GroupTable) -> None:
    assert (g.order, g.spec, g.inv, g.labels) == (h.order, h.spec, h.inv, h.labels)
    assert [list(row) for row in g.mul] == [list(row) for row in h.mul]
    assert all(type(v) is int for row in g.mul for v in row)
    assert all(type(v) is int for v in g.inv)


def _python_product(d1, d2, max_order):
    return oracles.draft_of(oracles.python_direct_product(oracles.table_of(d1), oracles.table_of(d2), max_order))


@pytest.mark.parametrize("spec", BUILDER_SPECS)
def test_builders_match_python_tables(spec, monkeypatch):
    g = build_group(spec)
    monkeypatch.setattr(groups, "_build_metacyclic", oracles.python_build_metacyclic)
    monkeypatch.setattr(groups, "_table_from_perms", oracles.python_table_from_perms)
    monkeypatch.setattr(groups, "_product", _python_product)
    _assert_same_table(g, build_group(spec))


@pytest.mark.parametrize("n", [*range(1, 41), 256, 257, 258, 500, 512])
def test_cyclic_tables_match_python(n):
    # up to order 257 the rows are lists, above it views of the checked array
    spec = parse_spec(f"C{n}")
    _assert_same_table(build_group(spec), oracles.python_build_cyclic(spec))


@pytest.mark.parametrize("spec", ["C500", "C512", "D512", "A6"])
def test_rows_above_order_257_are_read_only_views_of_the_checked_array(spec, monkeypatch):
    checked = []
    validate_table = groups._validate_table
    monkeypatch.setattr(groups, "_validate_table", lambda m, g: checked.append(m) or validate_table(m, g))
    g = build_group(spec, max_order=720)
    [m] = checked
    # narrowed once, before the check, which then copies nothing
    assert m.dtype == np.min_scalar_type(g.order - 1)
    assert len(g.mul) == len(m)
    for row, want in zip(g.mul, m):
        assert type(row) is memoryview
        assert list(row) == want.tolist()
        assert np.shares_memory(np.asarray(row), m)
        with pytest.raises(TypeError):
            row[0] = row[1]
    # validate_group reads the rows again, through np.asarray
    assert validate_group(g).ok


@pytest.mark.parametrize("spec", ["C256", "C257"])
def test_rows_up_to_order_257_are_lists(spec):
    assert all(type(row) is list for row in build_group(spec).mul)


def test_lights_test_reads_every_block_of_rows():
    g = build_group("C2048", max_order=2048)
    m = np.asarray(g.mul)
    # Light's test runs on blocks of about 2^21 cells: two of them here
    assert len(range(0, g.order, (1 << 21) // g.order)) == 2
    assert groups._validate_table(m, g).ok
    # two cells swapped in a row of the second block: a fast path that skipped it would pass the copy
    bad = m.copy()
    bad[1500, [1, 2]] = bad[1500, [2, 1]]
    h = GroupTable(g.order, groups._rows(bad), g.inv, g.labels, "bad")
    res = groups._validate_table(bad, h)
    assert (res.ok, res.problem) == (False, "latin")


@pytest.mark.parametrize("spec", [f"{family}{n}" for family in "SA" for n in range(1, 7)])
def test_symmetric_and_alternating_match_listed_permutations(spec):
    # the closure of a few generators gives every permutation, or every even one, in sorted order
    n = int(spec[1:])
    perms = oracles.listed_permutations(n, even=spec[0] == "A")
    h = oracles.table_of(oracles.python_table_from_perms(perms, range(n)), spec)
    _assert_same_table(build_group(spec, max_order=720), h)


@pytest.mark.parametrize("spec", BUILDER_SPECS)
def test_build_group_checks_the_table_it_keeps(spec, monkeypatch):
    checked = []

    def record(m, g):
        result = validate_table(m, g)
        checked.append((m, g, result))
        return result

    validate_table = groups._validate_table
    monkeypatch.setattr(groups, "_validate_table", record)
    g = build_group(spec)
    [(m, checked_g, res)] = checked
    assert res == ValidationResult(True)
    # the check reads the group it returns, whose rows are the array checked
    assert checked_g is g
    assert np.array_equal(m, np.asarray(g.mul))


@pytest.mark.parametrize("loop_first", [True, False])
def test_direct_product_matches_python_on_loop(loop_first):
    loop = GroupTable(5, LOOP5, [0, 1, 2, 3, 4], ["e", "a", "b", "c", "d"], "loop5")
    pair = (loop, build_group("C16")) if loop_first else (build_group("C16"), loop)
    d = groups._product(*map(oracles.draft_of, pair), DEFAULT_MAX_ORDER)
    h = oracles.python_direct_product(*pair)
    assert (d.table.tolist(), d.labels) == (h.mul, h.labels)
    # the inverses the factors compose are the ones build_group reads off the rows
    assert d.table.argmin(axis=1).tolist() == h.inv


@pytest.mark.parametrize(
    "spec",
    [
        WREATH_2_2_2,
        WREATH_3_3,
        "perm:8:(1,2,3,4,5,6,7);(1,8)(2,7)(3,4)(5,6)",
        "perm:12:(3,5)(7,9);(3,7)(5,9)(11,12)",
        "perm:12:(1,3)(4,5)(6,7)(8,9);(2,10);(11,12)",
        "perm:7:(1,2)(2,3);(5,6,7)(5,7)",
        "perm:5:();(3,4)",
        "perm:4:()",
    ],
)
def test_perm_tables_match_full_degree_build(spec):
    # fixed points are dropped, and that changes no cell, label or element order
    g = build_group(spec)
    h = oracles.full_degree_perm_group(spec)
    assert (g.mul, g.inv, g.labels) == (h.mul, h.inv, h.labels)


def _sparse_perm_spec(rng: random.Random) -> str:
    """A perm: spec whose group moves more points than it has elements."""
    while True:
        degree = rng.randint(8, 20)
        gens = []
        for _ in range(rng.randint(2, 3)):
            pts = rng.sample(range(1, degree + 1), rng.randint(2, degree))
            cycles, k = [], 0
            while len(pts) - k >= 2:
                size = min(rng.choice((2, 2, 3)), len(pts) - k)
                cycles.append("(" + ",".join(map(str, pts[k : k + size])) + ")")
                k += size
            gens.append("".join(cycles))
        spec = f"perm:{degree}:" + ";".join(gens)
        try:
            g = build_group(spec, max_order=64)
        except OrderCapExceeded:
            continue
        if len(parse_spec(spec).points) > g.order:
            return spec


@pytest.mark.parametrize("seed", range(40))
def test_sparse_perm_tables_match_full_degree_build(seed):
    # keys mix element numbers with point images; these groups have more
    # points than elements, so the images, not the order, bound the base
    spec = _sparse_perm_spec(random.Random(seed))
    g = build_group(spec)
    h = oracles.full_degree_perm_group(spec)
    assert (g.mul, g.inv, g.labels) == (h.mul, h.inv, h.labels), spec


@pytest.mark.parametrize("spec", BUILDER_SPECS)
def test_element_orders_match_walks(spec):
    g = build_group(spec)
    assert g.element_orders == oracles.element_orders_by_walk(g)
    assert g.least_generator == oracles.least_generators_by_walk(g)
