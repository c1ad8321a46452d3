"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload mc_grid --seed 0 --mode run

Modes:
  setup  cold `import surfenc`, then build_code, generate_circuit and
         SyndromeDecoder for every point or case; reports setup_s only.
  run    set-up, then the workload's library calls, timed as wall_s, then
         the output checks.
  trace  as run, with spans recorded around the package's public callables;
         adds the per-layer metrics and writes the spans to --spans-out.

Prints one JSON object on stdout.  run.py starts one of these per
repetition so that the package's process-wide engine cache and the
per-decoder syndrome caches start cold every time, as they do for each
`surfenc simulate` or `surfenc verify` call.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

LAYER_OF = {
    "run_experiment": "harness",
    "sample_final_frames": "stab_sim",
    "build_code": "code_model",
    "generate_circuit": "encoders",
    "SyndromeDecoder.__post_init__": "decoder",
    "SyndromeDecoder.decode_syndrome": "decoder",
    "MatchingGraph.decode": "decoder",
    "backward_images": "fault_analysis",
    "analyze_faults": "fault_analysis",
}
LAYERS = ("stab_sim", "harness", "decoder", "fault_analysis", "code_model", "encoders")
DEFECT_BUCKETS = (("k00_06", 0, 6), ("k07_10", 7, 10), ("k11_14", 11, 14), ("k15_up", 15, None))


def import_package():
    sys.path.insert(0, SRC)
    surfenc = importlib.import_module("surfenc")
    if not os.path.abspath(surfenc.__file__).startswith(SRC + os.sep):
        raise ImportError(f"surfenc imported from {surfenc.__file__}, not {SRC}")
    for sub in ("code_model", "encoders", "decoder", "harness", "fault_analysis"):
        importlib.import_module("surfenc." + sub)
    return surfenc


def circuit_ops(circuit) -> tuple[int, int]:
    """(CX pairs, noise-instruction targets) of a circuit."""
    cx = noise = 0
    for _, instr in circuit.instructions():
        if instr.name == "CX":
            cx += len(instr.targets) // 2
        elif instr.is_noise:
            noise += len(instr.targets)
    return cx, noise


def install_tracer(surfenc, tr: tracing.Tracer) -> None:
    ops_cache: dict[int, int] = {}

    def shot_ops(circuit, shots, rng):
        key = id(circuit)
        if key not in ops_cache:
            ops_cache[key] = sum(circuit_ops(circuit))
        return shots * ops_cache[key]

    def defects(self, syndrome):
        return syndrome.bit_count()

    harness = surfenc.harness
    tr.patch(harness, "run_experiment", "run_experiment")
    tr.patch(harness, "sample_final_frames", "sample_final_frames", shot_ops)
    tr.patch(harness, "build_code", "build_code")
    tr.patch(harness, "generate_circuit", "generate_circuit")
    # the benchmark's own set-up calls, looked up at these attributes
    tr.patch(surfenc.code_model, "build_code", "build_code")
    tr.patch(surfenc.encoders, "generate_circuit", "generate_circuit")
    decoder = surfenc.decoder
    tr.patch(decoder.SyndromeDecoder, "__post_init__", "SyndromeDecoder.__post_init__")
    tr.patch(decoder.SyndromeDecoder, "decode_syndrome", "SyndromeDecoder.decode_syndrome")
    tr.patch(decoder.MatchingGraph, "decode", "MatchingGraph.decode", defects)
    tr.patch(surfenc.fault_analysis, "backward_images", "backward_images")
    tr.patch(surfenc.fault_analysis, "analyze_faults", "analyze_faults")


def set_up(surfenc, work: dict) -> list[dict]:
    """Build code, circuit and decoder for every point or case."""
    build_code = surfenc.code_model.build_code
    generate_circuit = surfenc.encoders.generate_circuit
    SyndromeDecoder = surfenc.decoder.SyndromeDecoder
    prepared = []
    if work["kind"] == "mc":
        for cfg in work["items"]:
            for d, p in workloads.mc_points(cfg):
                code = build_code(cfg["variant"], d)
                circuit = generate_circuit(cfg["variant"], d, cfg["scheme"], cfg["target"], p)
                prepared.append(
                    dict(circuit=circuit, decoder=SyndromeDecoder(code, cfg["target"]))
                )
    else:
        for case in work["items"]:
            code = build_code(case["variant"], case["d"])
            circuit = generate_circuit(
                case["variant"], case["d"], case["scheme"], case["target"], 1e-3,
                scrambled=case["scrambled"],
            )
            prepared.append(
                dict(code=code, circuit=circuit,
                     decoder=SyndromeDecoder(code, case["target"]))
            )
    return prepared


def run_mc(surfenc, work: dict, seed: int) -> tuple[list[dict], int]:
    """run_experiment per config; returns (one op per point, shots done)."""
    harness = surfenc.harness
    ops, shots = [], 0
    for cfg in work["items"]:
        base = dict(variant=cfg["variant"], scheme=cfg["scheme"], target=cfg["target"])
        try:
            config = harness.ExperimentConfig(**cfg, seed=seed, workers=1)
            results = harness.run_experiment(config)
        except Exception as exc:  # one failed config fails its points, not the run
            for d, p in workloads.mc_points(cfg):
                ops.append(dict(base, d=d, p=p, error=f"{type(exc).__name__}: {exc}"))
            continue
        for r in results:
            ops.append(dict(base, d=r.d, p=r.p, shots=r.shots, failures=r.failures))
            shots += r.shots
    return ops, shots


def run_verify(surfenc, work: dict, prepared: list[dict]) -> tuple[list[dict], int]:
    """analyze_faults pairs per case; returns (one op per case, combinations)."""
    fa = surfenc.fault_analysis
    Scheme, Target = surfenc.encoders.Scheme, surfenc.encoders.Target
    ops, combos = [], 0
    for case, obj in zip(work["items"], prepared):
        op = dict(case)
        try:
            report = fa.analyze_faults(
                obj["circuit"], obj["code"], Target(case["target"]), Scheme(case["scheme"]),
                max_weight=2, decoder=obj["decoder"],
            )
            op["basis_faults"] = report.n_basis_faults
            op["pairs"] = workloads.distinct_site_pairs(report.n_basis_faults, report.n_sites)
            op["failing"] = len(report.failing_combinations)
            combos += op["basis_faults"] + op["pairs"]
        except Exception as exc:  # one failed enumeration fails its op only
            op["error"] = f"{type(exc).__name__}: {exc}"
        ops.append(op)
    return ops, combos


def check_ops(kind: str, ops: list[dict], reference: dict) -> None:
    for op in ops:
        if "error" not in op:
            check = workloads.check_mc_point if kind == "mc" else workloads.check_verify_case
            problem = check(op, reference)
            if problem:
                op["error"] = problem


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 for an empty one)."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def layer_metrics(spans, window: tuple[int, int], prepared, ops) -> dict:
    """Per-layer metrics of one traced repetition.

    Counts and set-up times cover the whole repetition; self times cover
    the timed window (the workload's library calls), so that they add up,
    with the time outside any span, to the traced wall_s.
    """
    N, START, END, PARENT, ATTR = (
        tracing.NAME, tracing.START, tracing.END, tracing.PARENT, tracing.ATTR
    )
    own = tracing.self_times(spans)
    lo, hi = window
    self_ns = dict.fromkeys(LAYERS, 0)
    name_self_ns = dict.fromkeys(LAYER_OF, 0)
    covered_ns = 0
    for s, o in zip(spans, own):
        if lo <= s[START] and s[END] <= hi:
            self_ns[LAYER_OF[s[N]]] += o
            name_self_ns[s[N]] += o
            if s[PARENT] < 0:
                covered_ns += s[END] - s[START]

    def spans_named(name):
        return [s for s in spans if s[N] == name]

    def total_s(group):
        return sum(s[END] - s[START] for s in group) / 1e9

    def under(group, parent_name):
        return [s for s in group if s[PARENT] >= 0 and spans[s[PARENT]][N] == parent_name]

    samples = spans_named("sample_final_frames")
    lookups = spans_named("SyndromeDecoder.decode_syndrome")
    matches = spans_named("MatchingGraph.decode")
    sample_s = total_s(samples)
    shot_ops = sum(s[ATTR] for s in samples)
    mc_shots = sum(op.get("shots", 0) for op in ops)
    harness_unique = len(under(lookups, "run_experiment"))
    match_ms = sorted((s[END] - s[START]) / 1e6 for s in matches)

    m = {
        "stab_sim.sample_s": sample_s,
        "stab_sim.calls": len(samples),
        "stab_sim.ns_per_shot_op": sample_s * 1e9 / shot_ops if shot_ops else 0.0,
        "harness.self_s": name_self_ns["run_experiment"] / 1e9,
        "harness.chunks": len(under(samples, "run_experiment")),
        "harness.unique_syndromes": harness_unique,
        "harness.dedup_ratio": harness_unique / mc_shots if mc_shots else 0.0,
        "decoder.init_s": total_s(spans_named("SyndromeDecoder.__post_init__")),
        "decoder.lookup_calls": len(lookups),
        "decoder.match_calls": len(matches),
        "decoder.cache_hit_ratio": 1.0 - len(matches) / len(lookups) if lookups else 0.0,
        "decoder.match_s": total_s(matches),
        "decoder.match_ms_p50": quantile(match_ms, 0.50),
        "decoder.match_ms_p99": quantile(match_ms, 0.99),
    }
    for label, k_lo, k_hi in DEFECT_BUCKETS:
        group = [s for s in matches if s[ATTR] >= k_lo and (k_hi is None or s[ATTR] <= k_hi)]
        m[f"decoder.match_s.{label}"] = total_s(group)
        m[f"decoder.match_calls.{label}"] = len(group)
    verify_ops = [op for op in ops if "basis_faults" in op]
    cx_pairs = noise_targets = 0
    for obj in prepared:
        cx, noise = circuit_ops(obj["circuit"])
        cx_pairs += cx
        noise_targets += noise
    m.update({
        "fault_analysis.self_s": name_self_ns["analyze_faults"] / 1e9,
        "fault_analysis.backward_s": total_s(spans_named("backward_images")),
        "fault_analysis.basis_faults": sum(op["basis_faults"] for op in verify_ops),
        "fault_analysis.pairs": sum(op["pairs"] for op in verify_ops),
        "fault_analysis.unique_syndromes": len(under(lookups, "analyze_faults")),
        "fault_analysis.failing_combinations": sum(op["failing"] for op in verify_ops),
        "code_model.build_s": total_s(spans_named("build_code")),
        "encoders.generate_s": total_s(spans_named("generate_circuit")),
        "circuit_ir.cx_pairs": cx_pairs,
        "circuit_ir.noise_targets": noise_targets,
    })
    self_table = {layer: ns / 1e9 for layer, ns in self_ns.items()}
    self_table["outside spans"] = (hi - lo - covered_ns) / 1e9
    return {"metrics": m, "self_s": self_table}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference", default=workloads.REFERENCE_PATH)
    parser.add_argument("--spans-out", help="traced mode: write the spans here")
    args = parser.parse_args()

    work = workloads.workload(args.workload, args.size, args.seed)
    reference = workloads.load_reference(args.reference)
    tr = tracing.Tracer(f"{args.workload}-s{args.seed}-{os.getpid()}") if args.mode == "trace" else None

    t0 = time.perf_counter()
    surfenc = import_package()
    if tr is not None:
        install_tracer(surfenc, tr)
    prepared = set_up(surfenc, work)
    setup_s = time.perf_counter() - t0
    record = {"mode": args.mode, "setup_s": setup_s}
    if args.mode != "setup":
        t1 = time.perf_counter_ns()
        if work["kind"] == "mc":
            ops, done = run_mc(surfenc, work, args.seed)
        else:
            ops, done = run_verify(surfenc, work, prepared)
        t2 = time.perf_counter_ns()
        if tr is not None:
            tr.restore()
        check_ops(work["kind"], ops, reference)
        record.update(
            wall_s=(t2 - t1) / 1e9,
            work=done,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            ops=ops,
        )
        if tr is not None:
            record.update(layer_metrics(tr.spans, (t1, t2), prepared, ops))
            if args.spans_out:
                tr.write(args.spans_out)
    import numpy  # loaded by surfenc already; imported late to keep set-up cold
    import networkx

    record["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "surfenc": surfenc.__version__,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
