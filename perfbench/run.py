"""surfenc benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload mc_grid --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout (the directory holding src/).  Each
repetition runs in a fresh interpreter (rep.py) so that every cache in the
package starts cold.  A run first starts SETUP_PROBES interpreters that
only set up, then repeats the workload until --seconds is used up, and
reports medians over the repetitions.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics, plus the tracing
overhead: traced wall_s minus the untraced median.

Human-readable tables go to stdout first; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 only if every output check passed.  The full result, with the run
manifest and every repetition, is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REP = os.path.join(HERE, "rep.py")

SETUP_PROBES = 5
# Every run must end within 180 s; no repetition starts past this point.
HARD_LIMIT_S = 170.0
THROUGHPUT_NAME = {"mc": "shots_per_s", "verify": "combos_per_s"}
PREDICTED_DOMINANT = {
    "mc_grid": "stab_sim",
    "mc_decode": "decoder",
    "verify_pairs": "fault_analysis",
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "throughput": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("ns_per_shot_op"):
        return "ns"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class RepFailed(Exception):
    pass


def run_rep(args, mode: str, index: int, deadline: float) -> dict:
    """Start one rep.py interpreter and return its JSON record."""
    cmd = [
        sys.executable, REP,
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--size", args.size, "--reference", args.reference,
    ]
    if mode == "trace":
        cmd += ["--spans-out", os.path.join(
            OUT_DIR, f"spans-{args.workload}-rep{index}.json")]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{mode} repetition {index} timed out") from exc
    if proc.returncode != 0:
        raise RepFailed(
            f"{mode} repetition {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["elapsed_s"] = time.perf_counter() - started
    return record


def mark_repeat_mismatches(reps: list[dict]) -> None:
    """Every repetition of one seed must report identical op outputs."""
    def outputs(op):
        return {k: v for k, v in op.items() if k != "error"}

    first = reps[0]["ops"]
    for rep in reps[1:]:
        for op, ref in zip(rep["ops"], first):
            if "error" not in op and outputs(op) != outputs(ref):
                op["error"] = f"differs from the first repetition: {op} vs {ref}"


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(args, work: dict, versions: dict) -> dict:
    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **versions,
        "git_commit": git_commit(),
        "workers": 1,
        "parameters": work["items"],
    }


def print_end_to_end(work: dict, metrics: dict, n_runs: int, n_setups: int,
                     attempted: int, failed: int) -> None:
    print(f"end to end (median of {n_runs} repetitions; setup_s of {n_setups}):")
    names = {"throughput": THROUGHPUT_NAME[work["kind"]]}
    for key, value in metrics.items():
        print(f"  {names.get(key, key):<14} {value['value']:>14.6g} {value['unit']}")
    print(f"  {'ops':<14} {attempted:>14d} count")
    print(f"  {'ops_failed':<14} {failed:>14d} count")


def print_layers(workload: str, traced: list[dict], untraced_wall: float) -> dict:
    """Self-time table and per-layer metrics of the median traced repetition.

    One repetition, not per-metric medians, so that the table adds up.
    """
    rep = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    wall, table = rep["wall_s"], rep["self_s"]
    print(f"self time per layer, timed window (median-wall one of {len(traced)} traced repetitions):")
    for layer, seconds in table.items():
        print(f"  {layer:<16} {seconds:>10.4f} s  {100 * seconds / wall:6.1f}%")
    print(f"  {'sum':<16} {sum(table.values()):>10.4f} s  = traced wall_s {wall:.4f} s")
    overhead = wall - untraced_wall
    print(f"  tracing overhead: {overhead:.4f} s over the untraced median "
          f"{untraced_wall:.4f} s ({100 * overhead / untraced_wall:.1f}%)")
    dominant = max((k for k in table if k != "outside spans"), key=table.get)
    verdict = "as predicted" if dominant == PREDICTED_DOMINANT[workload] else "NOT as predicted"
    print(f"  dominant layer: {dominant} ({verdict}: {PREDICTED_DOMINANT[workload]})")
    metrics = dict(rep["metrics"], **{"trace.wall_s": wall, "trace.overhead_s": overhead})
    print("per-layer metrics (ns_per_shot_op is computed: sample_s / "
          "(shots x (cx_pairs + noise_targets))):")
    for key, value in metrics.items():
        print(f"  {key:<34} {value:>16.6g}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference", default=workloads.REFERENCE_PATH)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "surfenc", "__init__.py")):
        print(f"error: no surfenc sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    work = workloads.workload(args.workload, args.size, args.seed)

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    modes = ("run", "trace") if args.trace else ("run",)
    setups, reps, problems = [], [], []
    try:
        # setup_s is an end-to-end metric, so traced runs skip the probes
        for i in range(0 if args.trace else SETUP_PROBES):
            setups.append(run_rep(args, "setup", i, deadline))
        while True:
            mode = modes[len(reps) % len(modes)]
            reps.append(run_rep(args, mode, len(reps), deadline))
            elapsed = time.perf_counter() - start
            typical = statistics.median(r["elapsed_s"] for r in reps)
            if len(reps) >= len(modes) and elapsed + typical > min(args.seconds, HARD_LIMIT_S):
                break
    except RepFailed as exc:
        problems.append(str(exc))

    if reps:
        mark_repeat_mismatches(reps)
    ops = [op for r in reps for op in r["ops"]]
    failed_ops = [op for op in ops if "error" in op]
    # a repetition that died counts every op it would have run as failed
    per_rep = (sum(len(workloads.mc_points(c)) for c in work["items"])
               if work["kind"] == "mc" else len(work["items"]))
    attempted = len(ops) + per_rep * len(problems)
    failed = len(failed_ops) + per_rep * len(problems)
    for message in problems + [op["error"] for op in failed_ops]:
        print(f"FAILED: {message}")

    runs = [r for r in reps if r["mode"] == "run"]
    traced = [r for r in reps if r["mode"] == "trace"]
    versions = (reps or setups or [{}])[0].get("versions", {})
    info = manifest(args, work, versions)
    print(f"surfenc benchmark: {args.workload}, seed {args.seed}, "
          f"{len(runs)} untraced + {len(traced)} traced repetitions, "
          f"{len(setups)} set-up probes, fresh interpreter each")
    print("manifest: " + json.dumps(info))

    metrics: dict = {}
    if runs and (traced or not args.trace):
        untraced_wall = statistics.median(r["wall_s"] for r in runs)
        if args.trace:
            layer = print_layers(args.workload, traced, untraced_wall)
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
        else:
            values = {
                "wall_s": untraced_wall,
                "setup_s": statistics.median(r["setup_s"] for r in setups + runs),
                "throughput": statistics.median(r["work"] / r["wall_s"] for r in runs),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            print_end_to_end(work, metrics, len(runs), len(setups) + len(runs),
                             attempted, failed)

    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(
            OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"manifest": info, "result": result, "setups": setups, "repetitions": reps},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
