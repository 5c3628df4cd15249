"""Command line behavior: output shapes, exit codes, environment overrides."""

import csv
import functools
import io
import json
import time

import pytest

from latcover.cli import (
    SCAN_HEADER,
    build_report,
    main,
    poset_dot,
    scan_rows_csv,
    scan_rows_table,
)
from latcover import cli, verify
from latcover.verify import CaseResult, SuiteResult, analyze_spec, scan_class_c


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
        ("C2xS100000", "C2xS100000 has order >= 10^4300 > cap 512"),
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


def test_poset_dot_shape():
    text = poset_dot(analyze_spec("C4").posets["L"])
    assert text.splitlines()[0] == "digraph poset {"
    assert text.endswith("}\n")
    assert "n0 -> n1;" in text


def test_env_max_order(monkeypatch, capsys):
    monkeypatch.setenv("LATCOVER_MAX_ORDER", "5")
    assert main(["analyze", "C6"]) == 3
    capsys.readouterr()
    assert main(["analyze", "C4"]) == 0
    capsys.readouterr()


def test_env_bad_int_is_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("LATCOVER_MAX_ORDER", "abc")
    assert main(["analyze", "C4"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["analyze", "C4"], ["scan", "--max-order", "8"]])
@pytest.mark.parametrize("option", ["--max-order", "--max-subgroups"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_cap_below_one_is_exit_2(argv, option, value, capsys):
    assert main([*argv, option, value]) == 2
    assert f"argument {option}: a cap must be at least 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["analyze", "C4"], ["scan", "--max-order", "8"]])
@pytest.mark.parametrize("name", ["LATCOVER_MAX_ORDER", "LATCOVER_MAX_SUBGROUPS"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_env_cap_below_one_is_exit_2(argv, name, value, monkeypatch, capsys):
    monkeypatch.setenv(name, value)
    assert main(argv) == 2
    assert f"error: {name}: a cap must be at least 1, got {value}" in capsys.readouterr().err


BAD_ENV = {
    "LATCOVER_MAX_ORDER": "0",
    "LATCOVER_MAX_SUBGROUPS": "0",
    "LATCOVER_POSET": "bad",
    "LATCOVER_ALL_WITNESSES": "banana",
}


@pytest.mark.parametrize(
    "argv,names",
    [
        (["verify", "theorem9"], list(BAD_ENV)),
        (["scan", "--max-order", "8"], ["LATCOVER_POSET", "LATCOVER_ALL_WITNESSES"]),
    ],
)
def test_env_override_of_an_option_the_command_lacks_is_not_read(argv, names, monkeypatch, capsys):
    for name in names:
        monkeypatch.setenv(name, BAD_ENV[name])
        assert main(argv) == 0, name
        assert capsys.readouterr().err == ""
        monkeypatch.delenv(name)


def test_env_poset_choice(monkeypatch, tmp_path, capsys):
    path = tmp_path / "d.dot"
    for value in ("L", " L "):
        monkeypatch.setenv("LATCOVER_POSET", value)
        assert main(["analyze", "Q8", "--dot", str(path)]) == 0
        capsys.readouterr()
        assert 'label="o1"' in path.read_text(), value
    monkeypatch.setenv("LATCOVER_POSET", "bogus")
    assert main(["analyze", "Q8"]) == 2
    assert "LATCOVER_POSET" in capsys.readouterr().err


@pytest.mark.parametrize("from_env", [False, True])
def test_bad_poset_is_one_message_from_option_or_env(from_env, monkeypatch, capsys):
    # --poset and LATCOVER_POSET share one parser, so both reject a view name alike
    if from_env:
        monkeypatch.setenv("LATCOVER_POSET", "bogus")
    assert main(["analyze", "Q8", *([] if from_env else ["--poset", "bogus"])]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("must be one of L, Lbar, C, Cbar, got 'bogus'")
    assert ("error: LATCOVER_POSET: " in err) == from_env


def test_poset_help_lists_the_views(capsys):
    assert main(["analyze", "--help"]) == 0
    assert "--poset {L,Lbar,C,Cbar}" in capsys.readouterr().out


@pytest.mark.parametrize("name", list(BAD_ENV))
@pytest.mark.parametrize("value", ["", "  "])
def test_env_blank_value_is_unset(name, value, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv(name, value)
    path = tmp_path / "d.dot"
    assert main(["analyze", "C4", "--dot", str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert 'label="o1×1"' in path.read_text()  # the default view, Lbar


def test_env_all_witnesses(monkeypatch, capsys):
    monkeypatch.setenv("LATCOVER_ALL_WITNESSES", "1")
    assert main(["analyze", "C6"]) == 0
    assert "witness pairs: 2" in capsys.readouterr().out
    monkeypatch.setenv("LATCOVER_ALL_WITNESSES", "banana")
    assert main(["analyze", "C6"]) == 2
    capsys.readouterr()


def test_no_arguments_is_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_is_exit_0(capsys):
    assert main(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out
