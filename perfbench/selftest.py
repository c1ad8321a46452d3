"""Self-test of the benchmark: tiny workloads through the same code path.

    python3 perfbench/selftest.py

Checks that
* every workload, at --size tiny, passes its output checks untraced and
  traced, and the traced run reports every per-layer metric;
* a tampered reference count (failing combinations, basis faults, a Monte
  Carlo rate) makes the run fail with exit code 1, so the checks cannot
  pass vacuously;
* two repetitions of one seed that disagree are flagged;
* outside a source checkout the benchmark exits non-zero without a result.

Takes about 30 s.  Exits 0 only if every check holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import run
import workloads

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")
SCRATCH = os.path.join(run.OUT_DIR, "selftest")


def bench(workload: str, trace: int = 0, reference: str | None = None, cwd: str = run.ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if reference:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result


def brief(result) -> str:
    if result is None:
        return "no result"
    return ", ".join(f"{k} {result[k]}" for k in ("correct", "attempted", "failed"))


def tampered(name: str, edit) -> str:
    ref = copy.deepcopy(workloads.load_reference())
    edit(ref)
    path = os.path.join(SCRATCH, f"reference-{name}.json")
    with open(path, "w") as fh:
        json.dump(ref, fh)
    return path


def main() -> int:
    os.makedirs(SCRATCH, exist_ok=True)
    with open(BENCHMARK_JSON) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for name in workloads.WORKLOADS:
        code, result = bench(name)
        expect(code == 0 and result is not None and result["correct"] and result["failed"] == 0,
               f"{name} tiny passes its checks: exit {code}, {brief(result)}")
        code, result = bench(name, trace=1)
        expect(code == 0 and result is not None and set(result["metrics"]) == per_layer,
               f"{name} tiny traced run reports every per-layer metric")

    tampers = {
        "verify-failing": ("verify_pairs", lambda r: r["verify"]["rotated/ue/zero/d3"].update(
            failing=r["verify"]["rotated/ue/zero/d3"]["failing"] + 1)),
        "verify-basis": ("verify_pairs", lambda r: r["verify"]["rotated/ue/zero/d5/scrambled"].update(
            basis_faults=r["verify"]["rotated/ue/zero/d5/scrambled"]["basis_faults"] + 1)),
        "mc-grid-rate": ("mc_grid", lambda r: r["mc_rates"]["rotated/ue/zero/d3/p0.003"].update(
            failures=r["mc_rates"]["rotated/ue/zero/d3/p0.003"]["failures"] * 100)),
        "mc-decode-rate": ("mc_decode", lambda r: r["mc_rates"]["unrotated/uea/zero/d7/p0.01"].update(
            failures=0)),
    }
    for label, (name, edit) in tampers.items():
        code, result = bench(name, reference=tampered(label, edit))
        expect(code == 1 and result is not None and not result["correct"] and result["failed"] >= 1,
               f"tampered reference {label} trips the {name} check: exit {code}, {brief(result)}")

    reps = [{"ops": [{"d": 3, "failures": 5}]}, {"ops": [{"d": 3, "failures": 6}]}]
    run.mark_repeat_mismatches(reps)
    expect("error" in reps[1]["ops"][0], "differing repetitions of one seed are flagged")

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, bare)
    code, result = bench("mc_grid", cwd=bare)
    expect(code != 0 and result is None, f"outside a source checkout: exit {code}, {brief(result)}")

    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
