"""The four benchmark workloads and the outputs each pass is checked on.

A pass submits every unit of a workload (a suite, a family or a group
spec) in an order drawn from the seed, one at a time, and waits for each
result before it submits the next: a closed loop with a single caller.
The seed changes only that order; the inputs themselves are fixed.

Each pass returns what the command-line interface would write, keyed as
in ``reference.json``.  ``canonical`` then makes that text independent of
run order and timing, outside the timed pass: scan rows are sorted and
the analysis reports lose ``elapsed_s``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import random
import time
import traceback
from contextlib import nullcontext
from typing import Any, Callable, ContextManager

from latcover import cli, verify

# large orders, few subgroups: table construction and validation dominate
TABLES = ("C512", "C500", "M2^8", "Q256")
# small orders, thousands of subgroups: enumeration, classes and queries dominate
LATTICES = ("C2xC2xC2xC2xC2xC2", "C2xC2xC2xD8", "S4xC2xC2")
SCAN_MAX_ORDER = 128

# Forked, not spawned: a spawned child would import latcover again, and that
# cost is setup_s, not the group's.  The only other thread is numpy's idle
# BLAS pool, which no workload calls into.
_FORK = multiprocessing.get_context("fork")


class Untraced:
    """Records nothing.  ``tracing.Tracer`` records spans behind the same methods."""

    def span(self, name: str, group: str | None = None) -> ContextManager:
        return nullcontext()

    def begin_child(self) -> None:
        pass

    def export(self) -> Any:
        return None

    def adopt(self, state: Any) -> None:
        pass


def _child_main(send: Any, recorder: Untraced, fn: Callable, args: tuple) -> None:
    recorder.begin_child()
    try:
        send.send((True, fn(*args), recorder.export()))
    except Exception:  # reported to the parent, which raises it there
        send.send((False, traceback.format_exc(), None))
    finally:
        send.close()


def in_child(recorder: Untraced, fn: Callable, *args: Any) -> Any:
    """``fn(*args)`` in a forked child process, as if it were its own command.

    The child starts from this process's cold state, with latcover
    already imported, and its memory ends with it: so the peak memory of
    one group does not depend on which groups ran before it.  The parent
    waits for the child, which keeps the loop closed.
    """
    recv, send = _FORK.Pipe(duplex=False)
    child = _FORK.Process(target=_child_main, args=(send, recorder, fn, args))
    child.start()
    send.close()
    try:
        ok, value, state = recv.recv()
    except EOFError:
        ok, value, state = False, "child exited without a result", None
    finally:
        recv.close()
        child.join()
    if not ok:
        raise RuntimeError(f"child failed:\n{value}")
    recorder.adopt(state)
    return value


def json_text(payload: object) -> str:
    """The bytes ``latcover ... --json PATH`` writes for a payload."""
    return json.dumps(payload, indent=2) + "\n"


def _verify_pass(order: list[str], recorder: Untraced) -> dict[str, str]:
    results = {}
    for name in order:
        with recorder.span("bench.unit"):
            results[name] = verify.run_suites([name])[0]
    suites = [results[name] for name in verify.SUITE_ORDER]
    payload = {"suites": [sr.to_dict() for sr in suites], "passed": all(sr.passed for sr in suites)}
    return {"verify.json": json_text(payload)}


def _scan_pass(order: list[str], recorder: Untraced) -> dict[str, str]:
    rows = []
    for family in order:
        with recorder.span("bench.unit"):
            rows.extend(verify.scan_class_c(SCAN_MAX_ORDER, (family,)))
    return {"scan.csv": cli.scan_rows_csv(rows)}


def _analyze(spec: str) -> str:
    """``latcover analyze SPEC --all-witnesses --json --dot --poset Lbar``."""
    t0 = time.perf_counter()
    a = verify.analyze_spec(spec)
    report = cli.build_report(a, True, time.perf_counter() - t0)
    return json_text(report.to_dict()) + cli.poset_dot(a.posets["Lbar"])


def _analyze_pass(order: list[str], recorder: Untraced) -> dict[str, str]:
    out = {}
    for spec in order:
        with recorder.span("bench.unit", group=spec):
            out[spec] = in_child(recorder, _analyze, spec)
    return out


WORKLOADS: dict[str, tuple[tuple[str, ...], Callable[[list[str], Untraced], dict[str, str]]]] = {
    "verify": (verify.SUITE_ORDER, _verify_pass),
    "scan": (verify.FAMILY_NAMES, _scan_pass),
    "tables": (TABLES, _analyze_pass),
    "lattices": (LATTICES, _analyze_pass),
}


def _sorted_rows(csv_text: str) -> str:
    header, *lines = csv_text.splitlines(keepends=True)
    return header + "".join(sorted(lines))


def _without_elapsed(text: str) -> str:
    report, end = json.JSONDecoder().raw_decode(text)
    del report["elapsed_s"]
    return json_text(report) + text[end + 1 :]


def canonical(workload: str, outputs: dict[str, str]) -> dict[str, str]:
    """The outputs with seed order and wall-clock readings taken out."""
    fix = {"scan": _sorted_rows, "tables": _without_elapsed, "lattices": _without_elapsed}.get(workload)
    return outputs if fix is None else {key: fix(text) for key, text in outputs.items()}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mismatches(workload: str, outputs: dict[str, str], reference: dict[str, str]) -> list[str]:
    """Keys of the reference whose output is missing or differs."""
    try:
        got = {key: digest(text) for key, text in canonical(workload, outputs).items()}
    except (ValueError, KeyError):  # output too malformed to canonicalize
        return sorted(reference)
    return sorted(key for key, want in reference.items() if got.get(key) != want)


def submission_order(workload: str, rng: random.Random) -> list[str]:
    units = list(WORKLOADS[workload][0])
    rng.shuffle(units)
    return units


def run_pass(workload: str, order: list[str], recorder: Untraced = Untraced()) -> dict[str, str]:
    """One pass from a cold start: no cached analyses and no garbage left from the last pass."""
    verify.analyze_spec.cache_clear()
    gc.collect()
    return WORKLOADS[workload][1](order, recorder)
