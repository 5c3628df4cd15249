"""Command line interface: analyze, verify, scan.

Exit codes: 0 success, 1 a verification suite failed, 2 bad usage (a
cap below 1 included), an invalid spec or a --json/--csv/--dot path that
cannot be written, 3 an order or subgroup cap was exceeded.  One map in
main gives the code of each error a command raises.
Environment variables LATCOVER_MAX_ORDER, LATCOVER_MAX_SUBGROUPS,
LATCOVER_POSET and LATCOVER_ALL_WITNESSES override the matching option
defaults.  Stdout is for humans; machine-readable output goes to
--json/--csv paths only.  Each JSON payload takes its keys, in order,
from the field names of one dataclass: AnalysisReport, CaseResult and
ScanRow, whose field names are SCAN_KEYS.  The scan CSV and stdout
table share one list of cells per row.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any

from .errors import OrderCapExceeded, SpecInvalid, SubgroupCapExceeded
from .groups import DEFAULT_MAX_ORDER
from .posets import KINDS, PosetView, breaking_points, hasse_edges, two_interval_cover
from .subgroups import DEFAULT_MAX_SUBGROUPS
from .verify import SCAN_KEYS, Analysis, ScanRow, analyze_spec, run_suites, scan_class_c

# the CSV and table columns; a skipped row shows its reason in the last one
SCAN_HEADER = SCAN_KEYS[:10]


@dataclass(frozen=True)
class PosetSummary:
    kind: str
    elements: int
    breaking_points: list[str]


@dataclass(frozen=True)
class ClassCReport:
    member: bool
    witness_m: list[str] | None = None
    witness_n: list[str] | None = None
    witness_count: int | None = None


@dataclass(frozen=True)
class AnalysisReport:
    """The analyze --json payload: its keys are the field names, in field order."""

    spec: str
    order: int
    primes: list[int]
    is_abelian: bool
    is_cyclic: bool
    is_solvable: bool
    is_nilpotent: bool
    is_generalized_quaternion: bool
    n_subgroups: int
    n_classes: int
    posets: list[PosetSummary]
    class_c: ClassCReport
    elapsed_s: float

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def build_report(a: Analysis, all_witnesses: bool, elapsed_s: float) -> AnalysisReport:
    summaries = []
    for kind in KINDS:
        view = a.posets[kind]
        bps = breaking_points(view)
        summaries.append(PosetSummary(kind, view.size, [view.labels[x] for x in bps]))
    view = a.posets["Lbar"]
    w = two_interval_cover(view)
    if w is None:
        cc = ClassCReport(False, None, None, 0 if all_witnesses else None)
    else:
        labels = a.group.labels
        m_rep, n_rep = a.class_rep(w.m_idx), a.class_rep(w.n_idx)
        count = len(w.all_pairs) if all_witnesses else None
        cc = ClassCReport(
            True,
            [labels[e] for e in m_rep.elems],
            [labels[e] for e in n_rep.elems],
            count,
        )
    pr = a.profile
    return AnalysisReport(
        spec=a.group.spec,
        order=a.group.order,
        primes=list(pr.primes),
        is_abelian=pr.is_abelian,
        is_cyclic=pr.is_cyclic,
        is_solvable=pr.is_solvable,
        is_nilpotent=pr.is_nilpotent,
        is_generalized_quaternion=pr.is_generalized_quaternion,
        n_subgroups=len(a.lattice.subs),
        n_classes=len(a.classes.classes),
        posets=summaries,
        class_c=cc,
        elapsed_s=elapsed_s,
    )


def poset_dot(view: PosetView) -> str:
    """Hasse diagram in DOT form, edges pointing from covered to covering."""
    lines = ["digraph poset {"]
    for i, lab in enumerate(view.labels):
        lines.append(f'  n{i} [label="{lab}"];')
    for x, y in hasse_edges(view):
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cell(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _scan_cells(r: ScanRow) -> list[str]:
    cells = [_cell(getattr(r, key)) for key in SCAN_HEADER]
    if r.skipped is not None:
        cells[-1] = f"skipped:{r.skipped}"
    return cells


def _aligned(rows: list[list[str]]) -> str:
    """Rows as text lines, every column but the last padded to its widest cell."""
    widths = [max(map(len, column)) for column in zip(*rows)][:-1]
    lines = ("  ".join([*(c.ljust(w) for c, w in zip(row, widths)), row[-1]]).rstrip() for row in rows)
    return "".join(line + "\n" for line in lines)


def scan_rows_csv(rows: list[ScanRow]) -> str:
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(SCAN_HEADER)
    for r in rows:
        wr.writerow(_scan_cells(r))
    return buf.getvalue()


def scan_rows_table(rows: list[ScanRow]) -> str:
    """The same cells as the CSV, padded into an aligned text table."""
    return _aligned([list(SCAN_HEADER)] + [_scan_cells(r) for r in rows])


class _Unwritable(Exception):
    """An output path could not be written; main reports it and exits 2."""


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _Unwritable(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_json(path: str, payload: Any) -> None:
    _write(path, json.dumps(payload, indent=2) + "\n")


def _fmt_flag(v: bool) -> str:
    return "yes" if v else "no"


def cmd_analyze(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    a = analyze_spec(args.spec, args.max_order, args.max_subgroups)
    # the queries build_report runs count towards the elapsed time
    report = build_report(a, args.all_witnesses, 0.0)
    report = replace(report, elapsed_s=time.perf_counter() - t0)
    print(f"spec: {report.spec}")
    print(f"order: {report.order}")
    print(f"primes: {' '.join(str(p) for p in report.primes) or '-'}")
    print(
        "structure:"
        f" abelian={_fmt_flag(report.is_abelian)}"
        f" cyclic={_fmt_flag(report.is_cyclic)}"
        f" solvable={_fmt_flag(report.is_solvable)}"
        f" nilpotent={_fmt_flag(report.is_nilpotent)}"
        f" generalized-quaternion={_fmt_flag(report.is_generalized_quaternion)}"
    )
    print(f"subgroups: {report.n_subgroups}  classes: {report.n_classes}")
    for s in report.posets:
        bp = ", ".join(s.breaking_points) if s.breaking_points else "-"
        print(f"poset {s.kind}: {s.elements} elements, breaking points: {bp}")
    cc = report.class_c
    if cc.member:
        m_txt = "{" + ", ".join(cc.witness_m or ()) + "}"
        n_txt = "{" + ", ".join(cc.witness_n or ()) + "}"
        extra = f", witness pairs: {cc.witness_count}" if cc.witness_count is not None else ""
        print(f"class C: member, M = {m_txt}, N = {n_txt}{extra}")
    else:
        print("class C: not a member")
    print(f"elapsed: {report.elapsed_s:.3f}s")
    if args.json:
        _write_json(args.json, report.to_dict())
    if args.dot:
        _write(args.dot, poset_dot(a.posets[args.poset]))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suites(tuple(args.suites))
    rows = []
    for sr in results:
        for c in sr.cases:
            detail = "" if c.ok else f"expected={c.expected!r} computed={c.computed!r}"
            rows.append([sr.name, c.group, c.claim, "pass" if c.ok else "FAIL", detail])
    sys.stdout.write(_aligned(rows))
    for sr in results:
        good = sum(1 for c in sr.cases if c.ok)
        mark = "pass" if sr.passed else "FAIL"
        print(f"suite {sr.name}: {mark} ({good}/{len(sr.cases)} cases)")
    all_passed = all(sr.passed for sr in results)
    print(f"verify: {'pass' if all_passed else 'FAIL'}")
    if args.json:
        payload = {"suites": [sr.to_dict() for sr in results], "passed": all_passed}
        _write_json(args.json, payload)
    return 0 if all_passed else 1


def cmd_scan(args: argparse.Namespace) -> int:
    families = None if args.families is None else tuple(args.families.split(","))
    rows = scan_class_c(args.max_order, families, args.max_subgroups)
    if args.csv:
        _write(args.csv, scan_rows_csv(rows))
    if args.json:
        _write_json(args.json, {"rows": [r.to_dict() for r in rows]})
    if args.csv or args.json:
        members = sum(1 for r in rows if r.in_C)
        skipped = sum(1 for r in rows if r.skipped is not None)
        print(f"scanned {len(rows)} groups: {members} in class C, {skipped} skipped")
    else:
        sys.stdout.write(scan_rows_table(rows))
    return 0


def _cap(raw: str) -> int:
    """An order or subgroup cap: an integer of at least 1."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"a cap must be at least 1, got {value}")
    return value


def _flag(raw: str) -> bool:
    value = raw.lower()
    if value in ("0", "false", "no", "off"):
        return False
    if value in ("1", "true", "yes", "on"):
        return True
    raise argparse.ArgumentTypeError(f"must be a boolean-ish value, got {value!r}")


def _poset(raw: str) -> str:
    if raw not in KINDS:
        raise argparse.ArgumentTypeError(f"must be one of {', '.join(KINDS)}, got {raw!r}")
    return raw


# the variable that overrides each option's default, its parser and the value
# it gives when unset or blank, in the order they are checked; a command reads
# only the variables of the options it has
_ENV_DEFAULTS = (
    ("max_order", "LATCOVER_MAX_ORDER", _cap, DEFAULT_MAX_ORDER),
    ("max_subgroups", "LATCOVER_MAX_SUBGROUPS", _cap, DEFAULT_MAX_SUBGROUPS),
    ("poset", "LATCOVER_POSET", _poset, "Lbar"),
    ("all_witnesses", "LATCOVER_ALL_WITNESSES", _flag, False),
)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """The command line, with an unset option taking its default from the environment."""
    args = _build_parser().parse_args(argv)
    for dest, name, parse, default in _ENV_DEFAULTS:
        if not hasattr(args, dest):
            continue
        raw = os.environ.get(name, "").strip()
        try:
            value = parse(raw) if raw else default  # checked even when the option is given
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{name}: {exc}") from None
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    return args


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcover",
        description="Subgroup poset analysis: breaking points and two-interval covers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one group spec")
    pa.add_argument("spec", help="group spec, e.g. Q16, D8, M3^3, ZM(7,3,2), C2xC2xS3")
    pa.add_argument("--json", metavar="PATH", help="write the full report as JSON")
    pa.add_argument("--dot", metavar="PATH", help="write a Hasse diagram in DOT form")
    pa.add_argument("--poset", type=_poset, metavar=f"{{{','.join(KINDS)}}}", help="which view --dot draws")
    pa.add_argument(
        "--all-witnesses",
        action="store_true",
        default=None,
        help="count every covering pair instead of stopping at the first",
    )
    pa.add_argument("--max-order", type=_cap)
    pa.add_argument("--max-subgroups", type=_cap)
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument(
        "suites",
        nargs="*",
        default=["all"],
        help="theorem1 corollary3 prop4-5 theorem6 theorem9, or all (default)",
    )
    pv.add_argument("--json", metavar="PATH", help="write suite results as JSON")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("scan", help="sweep group families for class membership")
    ps.add_argument("--max-order", type=_cap)
    ps.add_argument("--max-subgroups", type=_cap)
    ps.add_argument(
        "--families",
        metavar="LIST",
        help="comma-separated family names (default: all families)",
    )
    ps.add_argument("--csv", metavar="PATH", help="write rows as CSV")
    ps.add_argument("--json", metavar="PATH", help="write rows as JSON")
    ps.set_defaults(func=cmd_scan)
    return parser


# the exit code of each error a command reports as "error: <message>"
_EXIT_CODES = {
    SpecInvalid: 2,
    ValueError: 2,
    _Unwritable: 2,
    OrderCapExceeded: 3,
    SubgroupCapExceeded: 3,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # from argparse, which has printed its usage message
        return exc.code if isinstance(exc.code, int) else 2
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entrypoint() -> None:
    sys.exit(main())
