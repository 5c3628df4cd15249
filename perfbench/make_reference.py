"""Write reference.json: the digest of every output one pass of each workload checks.

    python3 perfbench/make_reference.py

The committed digests were made at a commit whose outputs are taken as
correct.  Rerun this only when a change is meant to alter what latcover
writes, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    reference = {}
    for name, (units, _) in workloads.WORKLOADS.items():
        outputs = workloads.canonical(name, workloads.run_pass(name, list(units)))
        reference[name] = {key: workloads.digest(text) for key, text in sorted(outputs.items())}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
