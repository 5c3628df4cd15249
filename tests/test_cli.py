"""Command line behavior: output shapes, exit codes, option defaults."""

import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import latcover
import oracles
from latcover.cli import (
    SCAN_HEADER,
    AnalysisReport,
    PosetSummary,
    build_report,
    main,
    poset_dot,
    scan_rows_csv,
    scan_rows_table,
)
from latcover import cli, verify
from latcover.groups import DEFAULT_MAX_ORDER
from latcover.posets import KINDS, breaking_points, build_poset
from latcover.subgroups import DEFAULT_MAX_SUBGROUPS
from latcover.verify import CATALOG, CaseResult, SuiteResult, analyze_spec, scan_class_c


def test_analyze_prints_report(capsys):
    assert main(["analyze", "S3"]) == 0
    out = capsys.readouterr().out
    assert "spec: S3" in out
    assert "order: 6" in out
    assert "subgroups: 6  classes: 4" in out
    assert "poset Lbar: 4 elements" in out
    assert "class C: member, M = {(), (1 2 3), (1 3 2)}, N = {(), (2 3)}" in out


def test_analyze_nonmember(capsys):
    assert main(["analyze", "D8"]) == 0
    assert "class C: not a member" in capsys.readouterr().out


def test_analyze_trivial_group(capsys):
    assert main(["analyze", "C1"]) == 0
    assert "primes: -" in capsys.readouterr().out


def test_analyze_json_roundtrip(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["analyze", "Q16", "--json", str(path), "--all-witnesses"]) == 0
    capsys.readouterr()
    loaded = json.loads(path.read_text())
    assert loaded["spec"] == "Q16"
    assert loaded["is_generalized_quaternion"] is True
    assert loaded["class_c"]["member"] is True
    assert loaded["class_c"]["witness_count"] >= 1
    assert loaded == build_report(analyze_spec("Q16"), True, loaded["elapsed_s"]).to_dict()
    assert list(loaded) == [
        "spec",
        "order",
        "primes",
        "is_abelian",
        "is_cyclic",
        "is_solvable",
        "is_nilpotent",
        "is_generalized_quaternion",
        "n_subgroups",
        "n_classes",
        "posets",
        "class_c",
        "elapsed_s",
    ]
    for summary in loaded["posets"]:
        assert list(summary) == ["kind", "elements", "breaking_points"]
    assert list(loaded["class_c"]) == ["member", "witness_m", "witness_n", "witness_count"]


@pytest.mark.parametrize(
    "spec",
    [
        "C512",
        "C500",
        "M2^8",
        "Q256",
        "C2xC2xC2xC2xC2xC2",
        "C2xC2xC2xD8",
        "S4xC2xC2",
        "A6",
        "perm:8:(1,2,3,4,5,6,7);(1,8)(2,7)(3,4)(5,6)",
    ],
)
def test_report_to_dict_writes_what_asdict_writes(spec):
    report = build_report(analyze_spec(spec), True, 0.125)
    assert json.dumps(report.to_dict()) == json.dumps(asdict(report))


def test_analyze_order_2048_peak_memory():
    # the child's own peak RSS, read by a wrapper whose only child it is
    pytest.importorskip("resource")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(latcover.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    wrapper = (
        "import resource, subprocess, sys\n"
        "code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    command = [sys.executable, "-m", "latcover", "analyze", "C2048", "--max-order", "2048"]
    proc = subprocess.run([sys.executable, "-c", wrapper, *command], capture_output=True, text=True, env=env)
    code, maxrss = map(int, proc.stdout.split())
    # ru_maxrss is in bytes on macOS and in kilobytes elsewhere
    mb = maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    assert code == 0
    # the numpy table is 8 MB; a Python list slot per cell would add 32 MB more
    assert mb < 75


def test_analyze_elapsed_includes_the_queries(tmp_path, capsys, monkeypatch):
    search = cli.two_interval_cover

    def slow_search(*args, **kwargs):
        time.sleep(0.3)
        return search(*args, **kwargs)

    monkeypatch.setattr(cli, "two_interval_cover", slow_search)
    path = tmp_path / "report.json"
    assert main(["analyze", "S3", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    elapsed = json.loads(path.read_text())["elapsed_s"]
    assert elapsed >= 0.3
    assert f"elapsed: {elapsed:.3f}s" in out


def test_analyze_dot_output(tmp_path, capsys):
    path = tmp_path / "q8.dot"
    assert main(["analyze", "Q8", "--dot", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text()
    assert text.startswith("digraph poset {")
    assert text.count("->") == 7
    assert 'n0 [label="o1×1"];' in text


def test_analyze_dot_poset_choice(tmp_path, capsys):
    path = tmp_path / "l.dot"
    assert main(["analyze", "Q8", "--dot", str(path), "--poset", "L"]) == 0
    capsys.readouterr()
    assert 'label="o1"' in path.read_text()


def test_analyze_bad_spec_is_exit_2(capsys):
    assert main(["analyze", "D7"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    ["C" + "9" * 5000, "perm:" + "9" * 5000 + ":(1,2)", "ZM(7,3," + "9" * 5000 + ")"],
    ids=["cyclic", "perm-degree", "zm-twist"],
)
def test_analyze_integer_too_long_is_exit_2(spec, capsys):
    # past the interpreter's digit limit for int(), which is not a suite failure
    assert main(["analyze", spec]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_perm_cost_follows_the_cycles(capsys):
    t0 = time.perf_counter()
    assert main(["analyze", "perm:1000000000:(1,2)"]) == 0
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr().out
    assert "spec: perm:1000000000:(1,2)" in out
    assert "order: 2" in out
    assert "cyclic=yes" in out


def test_analyze_cap_is_exit_3(capsys):
    assert main(["analyze", "C600"]) == 3
    assert "error:" in capsys.readouterr().err
    assert main(["analyze", "C600", "--max-order", "600"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "spec,message",
    [
        ("S6", "S6 has order 720 > cap 512"),
        ("A7", "A7 has order 2520 > cap 512"),
        ("C2xS7", "C2xS7 has order 10080 > cap 512"),
        # n! past the int-to-str limit is neither computed nor printed
        ("S100000", "S100000 has order >= 10^4300 > cap 512"),
        ("A3000000", "A3000000 has order >= 10^4300 > cap 512"),
        ("A1700", "A1700 has order >= 10^4300 > cap 512"),
        ("M2^1000000000", "M2^1000000000 has order >= 10^4300 > cap 512"),
        # an exponent past the C integer range
        ("M2^10000000000000000000", "M2^10000000000000000000 has order >= 10^4300 > cap 512"),
        ("C2xS100000", "C2xS100000 has order >= 10^4300 > cap 512"),
        # the factors' orders are multiplied only up to the bound, as a family's are
        pytest.param(
            "x".join(["S100000"] * 200),
            "x".join(["S100000"] * 200) + " has order >= 10^4300 > cap 512",
            id="S100000x...xS100000",
        ),
        # a perm: factor's order is known only once built, so every factor of known order
        # is checked first, and then the factors and partial products in spec order
        ("perm:2:(1,2)xC512xC600", "C600 has order 600 > cap 512"),
        ("perm:2:(1,2)xC512xperm:7:(1,2);(1,2,3,4,5,6,7)", "product order 1024 exceeds cap 512"),
        ("perm:7:(1,2);(1,2,3,4,5,6,7)xC2", "generated permutation group exceeds order cap 512"),
    ],
)
def test_analyze_order_cap_message_is_fast(spec, message, capsys):
    t0 = time.perf_counter()
    assert main(["analyze", spec]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.strip() == f"error: {message}"


# the base is tested by Miller-Rabin, not trial division, so a large prime is rejected by the order cap at once
@pytest.mark.parametrize(
    "spec,code,message",
    [
        (
            "M1000000000000000003^3",
            3,
            "M1000000000000000003^3 has order 1000000000000000009000000000000000027000000000000000027 > cap 512",
        ),
        ("M3317044064679887385961979^3", 2, "modular family needs a prime base, got 3317044064679887385961979"),
        (
            "M3317044064679887385961981^3",
            2,
            "modular family base 3317044064679887385961981 is too large: "
            "primality is decided only below 3317044064679887385961981",
        ),
        ("M4^3", 2, "modular family needs a prime base, got 4"),
    ],
)
def test_analyze_modular_base_is_decided_fast(spec, code, message, capsys):
    t0 = time.perf_counter()
    assert main(["analyze", spec]) == code
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_analyze_subgroup_cap_is_exit_3(capsys):
    assert main(["analyze", "D16", "--max-subgroups", "5"]) == 3
    capsys.readouterr()


def test_verify_prints_row_per_case(capsys):
    assert main(["verify", "theorem9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    case_rows = [ln for ln in lines if ln.startswith("theorem9 ")]
    assert len(case_rows) == 17
    assert all(ln.rstrip().endswith("pass") for ln in case_rows)
    assert "suite theorem9: pass (17/17 cases)" in lines
    assert lines[-1] == "verify: pass"


def test_verify_all_json(tmp_path, capsys):
    path = tmp_path / "suites.json"
    assert main(["verify", "all", "--json", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    assert data["passed"] is True
    assert [s["name"] for s in data["suites"]] == [
        "theorem1",
        "corollary3",
        "prop4-5",
        "theorem6",
        "theorem9",
    ]
    assert all(s["passed"] for s in data["suites"])


def test_analyze_cache_is_bounded_and_keeps_verify_all(monkeypatch, tmp_path, capsys):
    assert analyze_spec.cache_info().maxsize is not None
    analyze_spec.cache_clear()
    bounded = tmp_path / "bounded.json"
    assert main(["verify", "all", "--json", str(bounded)]) == 0
    info = analyze_spec.cache_info()
    # every spec verify all looks up stays cached, so none is analyzed twice
    assert info.misses == info.currsize <= info.maxsize
    unbounded_cache = functools.lru_cache(maxsize=None)(analyze_spec.__wrapped__)
    monkeypatch.setattr(verify, "analyze_spec", unbounded_cache)
    unbounded = tmp_path / "unbounded.json"
    assert main(["verify", "all", "--json", str(unbounded)]) == 0
    capsys.readouterr()
    assert unbounded_cache.cache_info().hits == info.hits
    assert bounded.read_bytes() == unbounded.read_bytes()


def test_verify_unknown_suite_is_exit_2(capsys):
    assert main(["verify", "theorem2"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_failure_is_exit_1(monkeypatch, capsys, tmp_path):
    fake = SuiteResult("fake", [CaseResult("G", "c", True, False, False)])
    monkeypatch.setattr("latcover.cli.run_suites", lambda names: [fake])
    path = tmp_path / "fail.json"
    assert main(["verify", "all", "--json", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "expected=True computed=False" in out
    assert json.loads(path.read_text())["passed"] is False


def test_scan_stdout_is_aligned_table(capsys):
    assert main(["scan", "--max-order", "8", "--families", "dihedral"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == list(SCAN_HEADER)
    assert len(lines) == 3
    assert lines[1].split()[0] == "D6"
    assert lines[2].split()[0] == "D8"
    assert "," not in lines[0]


def test_scan_csv_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    assert main(["scan", "--max-order", "12", "--families", "alternating", "--csv", str(path)]) == 0
    out = capsys.readouterr().out
    assert "scanned 1 groups: 1 in class C, 0 skipped" in out
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert rows[0] == list(SCAN_HEADER)
    assert rows[1][0] == "A4"
    assert rows[1][8] == "true"
    assert rows[1][9] == "2"


def test_scan_json_file(tmp_path, capsys):
    path = tmp_path / "rows.json"
    assert main(["scan", "--max-order", "8", "--families", "cyclic", "--json", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    assert [r["spec"] for r in data["rows"]] == [f"C{n}" for n in range(1, 9)]
    assert data["rows"][5]["in_C"] is True  # C6


def test_scan_skipped_rows_render_marker():
    rows = scan_class_c(16, ("dihedral",), max_subgroups=12)
    text = scan_rows_csv(rows)
    assert "D12,12,,,,,,,,skipped:subgroup-cap" in text
    table = scan_rows_table(rows)
    assert "skipped:subgroup-cap" in table


def test_scan_unknown_family_is_exit_2(capsys):
    assert main(["scan", "--families", "sporadic"]) == 2
    assert "unknown family" in capsys.readouterr().err


def test_scan_empty_family_list_is_exit_2(capsys):
    assert main(["scan", "--max-order", "8", "--families", ""]) == 2
    captured = capsys.readouterr()
    assert "unknown family ''" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "Q8", "--json"],
        ["analyze", "Q8", "--dot"],
        ["verify", "theorem1", "--json"],
        ["scan", "--max-order", "8", "--families", "cyclic", "--csv"],
        ["scan", "--max-order", "8", "--families", "cyclic", "--json"],
    ],
)
def test_unwritable_output_is_exit_2(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "out"
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.strip() == f"error: cannot write {path}: No such file or directory"


def test_build_report_counts_witnesses():
    a = analyze_spec("S3")
    rep = build_report(a, all_witnesses=True, elapsed_s=0.0)
    assert rep.class_c.witness_count == 2
    rep = build_report(a, all_witnesses=False, elapsed_s=0.0)
    assert rep.class_c.witness_count is None


# the groups the benchmark's tables and lattices workloads analyze, and two that are not solvable,
# whose L and C views are larger than their Lbar and Cbar views
REPORT_SPECS = [
    *CATALOG,
    "C512",
    "C500",
    "M2^8",
    "Q256",
    "C2xC2xC2xC2xC2xC2",
    "C2xC2xC2xD8",
    "S4xC2xC2",
    "A6",
    "perm:8:(1,2,3,4,5,6,7);(1,8)(2,7)(3,4)(5,6)",
]


@pytest.mark.parametrize("spec", REPORT_SPECS)
def test_build_report_builds_only_the_class_views_and_answers_for_every_view(spec, monkeypatch):
    built = []
    real_build = verify.build_poset

    def spy_build(lat, ccp, kind):
        built.append(kind)
        return real_build(lat, ccp, kind)

    monkeypatch.setattr(verify, "build_poset", spy_build)
    a = verify._analyze(spec, DEFAULT_MAX_ORDER, DEFAULT_MAX_SUBGROUPS)
    summaries = build_report(a, True, 0.0).posets
    assert sorted(built) == ["Cbar", "Lbar"]
    # each summary as read off its own view, L and C included
    views = [build_poset(a.lattice, a.classes, kind) for kind in KINDS]
    assert summaries == [PosetSummary(v.kind, v.size, [v.labels[x] for x in breaking_points(v)]) for v in views]


def test_poset_dot_shape():
    text = poset_dot(analyze_spec("C4").posets["L"])
    assert text.splitlines()[0] == "digraph poset {"
    assert text.endswith("}\n")
    assert "n0 -> n1;" in text


def _dot_from_edges(view, edges):
    """The DOT text of a view written one covering pair (x, y) at a time."""
    lines = ["digraph poset {", *(f'  n{i} [label="{lab}"];' for i, lab in enumerate(view.labels))]
    lines += [f"  n{x} -> n{y};" for x, y in edges]
    return "\n".join([*lines, "}"]) + "\n"


# the benchmark's lattices groups as it draws them, and a diagram with covers of composite index
@pytest.mark.parametrize(
    "spec,kind", [("C2xC2xC2xC2xC2xC2", "Lbar"), ("C2xC2xC2xD8", "Lbar"), ("S4xC2xC2", "Lbar"), ("A6", "L")]
)
def test_poset_dot_matches_the_reference_edges(spec, kind):
    view = analyze_spec(spec).posets[kind]
    assert poset_dot(view) == _dot_from_edges(view, oracles.loop_hasse_edges(view))


# the 222 ordered pairs a, b >= 2 with gcd(a, b) = 1 and ab <= 128
COPRIME_CYCLIC_PAIRS = [
    (a, b) for a in range(2, 65) for b in range(2, 128 // a + 1) if math.gcd(a, b) == 1
]


def _report_without_names(spec: str) -> AnalysisReport:
    """spec's report with its name, time and witness element labels taken out: what an isomorphism keeps."""
    rep = build_report(analyze_spec(spec), True, 0.0)
    return replace(rep, spec="", class_c=replace(rep.class_c, witness_m=None, witness_n=None))


@pytest.mark.parametrize("a,b", COPRIME_CYCLIC_PAIRS, ids=[f"C{a}xC{b}" for a, b in COPRIME_CYCLIC_PAIRS])
def test_coprime_cyclic_product_is_cyclic(a, b):
    # C_a x C_b is C_ab; each order has one subgroup, so the nodes line up and the diagrams match too
    product, cyclic = f"C{a}xC{b}", f"C{a * b}"
    assert _report_without_names(product) == _report_without_names(cyclic)
    for kind in KINDS:
        assert poset_dot(analyze_spec(product).posets[kind]) == poset_dot(analyze_spec(cyclic).posets[kind])


@pytest.mark.parametrize("argv", [["analyze", "C4"], ["scan", "--max-order", "8"]])
@pytest.mark.parametrize("option", ["--max-order", "--max-subgroups"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_cap_below_one_is_exit_2(argv, option, value, capsys):
    assert main([*argv, option, value]) == 2
    assert f"argument {option}: a cap must be at least 1, got {value}" in capsys.readouterr().err


def test_bad_poset_is_an_invalid_choice(capsys):
    assert main(["analyze", "Q8", "--poset", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "argument --poset" in err and "invalid choice" in err and "'bogus'" in err


def test_poset_help_lists_the_views(capsys):
    assert main(["analyze", "--help"]) == 0
    assert "--poset {L,Lbar,C,Cbar}" in capsys.readouterr().out


def test_environment_sets_no_option(monkeypatch, capsys):
    monkeypatch.setenv("LATCOVER_MAX_ORDER", "5")
    monkeypatch.setenv("LATCOVER_POSET", "bogus")
    assert main(["analyze", "C6"]) == 0
    assert main(["analyze", "Q8"]) == 0
    assert capsys.readouterr().err == ""


def test_no_arguments_is_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_is_exit_0(capsys):
    assert main(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


def test_readme_library_example_prints_no_breaking_point(capsys):
    # the README's Library block, run as written, through the package's top-level names
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    [block] = re.findall(r"## Library\n\n```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "[]"


def test_package_root_exports_only_the_library_surface():
    # the Library block's three queries, the error classes and the version; the rest is in submodules
    names = [
        "LatcoverError",
        "OrderCapExceeded",
        "PrimeNotInOrder",
        "SpecInvalid",
        "SubgroupCapExceeded",
        "__version__",
        "analyze_spec",
        "breaking_points",
        "two_interval_cover",
    ]
    assert sorted(latcover.__all__) == names
    assert all(getattr(latcover, name) is not None for name in names)
    star = {}
    exec("from latcover import *", star)
    assert sorted(set(star) - {"__builtins__"}) == names


@pytest.mark.parametrize("argv,code", [(["verify", "theorem9"], 0), (["analyze", "C0"], 2), (["analyze", "C600"], 3)])
def test_entrypoint_exits_with_mains_code(argv, code, monkeypatch, capsys):
    # the console script's function, which setuptools calls with the arguments in sys.argv
    monkeypatch.setattr(sys, "argv", ["latcover", *argv])
    with pytest.raises(SystemExit) as info:
        cli.entrypoint()
    assert info.value.code == main(argv) == code
