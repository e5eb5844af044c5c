"""Tiny-scale smoke test of the benchmark itself.

Run from the repository root::

    python3 perfbench/smoke.py

For every workload it makes one untraced and one traced one-second run at
the default seed and checks that the last line names exactly the metrics and
units ``BENCHMARK.json`` declares, and that every correctness check passed,
including the committed one-second fingerprints and counters in
``golden.json``.  It then runs the gate in-process against a copy of
``golden.json`` with one digit of a fingerprint and one counter changed,
and checks that the run fails and names both mismatches.  Exits non-zero on
any failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SECONDS = 1
#: Every workload, including those not (yet) in ``BENCHMARK.json``.
WORKLOADS = ("warm_get_fanout", "production_trace", "chaos_payload", "reclaim_fleet")


def _run(workload: str, trace: int) -> tuple[int, dict, str]:
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return completed.returncode, result, completed.stdout + completed.stderr


def _check_corrupted_golden(workload: str) -> list[str]:
    """Change one digit of the committed fingerprint and one committed
    counter: the gate must fail the run and name both."""
    sys.path.insert(0, str(BENCH_DIR))
    import run

    golden = json.loads(run.GOLDEN.read_text())
    entry = next(
        scale["workloads"][workload] for scale in golden["scales"]
        if scale["seed"] == run.DEFAULT_SEED and scale["seconds"] == SECONDS
    )
    fingerprint = entry["fingerprint"]
    entry["fingerprint"] = corrupted = ("1" if fingerprint[0] == "0" else "0") + fingerprint[1:]
    entry["counters"]["requests"] += 1
    corrupted_golden = BENCH_DIR / "out" / "smoke_golden.json"
    corrupted_golden.parent.mkdir(exist_ok=True)
    corrupted_golden.write_text(json.dumps(golden))
    committed, run.GOLDEN = run.GOLDEN, corrupted_golden
    output = io.StringIO()
    try:
        with contextlib.redirect_stdout(output):
            code = run.main(["--workload", workload, "--seconds", str(SECONDS)])
    finally:
        run.GOLDEN = committed
    text = output.getvalue()
    result = json.loads(text.strip().splitlines()[-1])
    expected = (f"committed {corrupted}", "counter requests = ")
    if code == 0 or result["correct"] is not False or not all(e in text for e in expected):
        return [f"corrupted golden did not trip the gate by name (exit {code})\n{text}"]
    print(f"corrupted golden: exit {code}, gate tripped on the fingerprint and a counter")
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, output = _run(workload, trace)
            expected = {metric["name"]: metric["unit"] for metric in spec[section]}
            printed = {
                name: metric["unit"] for name, metric in result.get("metrics", {}).items()
            }
            if code != 0 or not result.get("correct"):
                failures.append(f"{workload} trace {trace}: exit {code}\n{output}")
            if printed != expected:
                missing = sorted(set(expected.items()) - set(printed.items()))
                extra = sorted(set(printed.items()) - set(expected.items()))
                failures.append(f"{workload} trace {trace}: missing {missing}, extra {extra}")
            print(f"{workload} trace {trace}: exit {code}, {len(printed)} metrics")

    failures += _check_corrupted_golden("reclaim_fleet")

    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
