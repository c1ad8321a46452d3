"""Regenerate perfbench/reference.json from the package as it stands.

    PYTHONPATH=src python3 perfbench/freeze_reference.py

Run this only on a commit whose outputs are trusted: the benchmark checks
every later commit against what it writes.  It records

* the rotated/zero rows of results/acceptance_logical_rates.csv (the
  acceptance grid, 10^6 shots per point, seed 1), copied because the
  acceptance test rewrites that file on every run;
* the mc_decode point's failure rate over DECODE_SEEDS, DECODE_SHOTS each;
* basis-fault and failing-combination counts of every verify_pairs case.

Takes a few minutes on one core.
"""

from __future__ import annotations

import csv
import json
import os
import sys

import workloads

DECODE_SEEDS = range(10_000, 10_016)
DECODE_SHOTS = 65_536
CSV_PATH = os.path.join(os.path.dirname(workloads.HERE), "results", "acceptance_logical_rates.csv")


def main() -> int:
    from surfenc.decoder import SyndromeDecoder
    from surfenc.encoders import Scheme, Target, generate_circuit
    from surfenc.code_model import build_code
    from surfenc.fault_analysis import analyze_faults
    from surfenc.harness import ExperimentConfig, run_experiment

    rates = {}
    with open(CSV_PATH) as fh:
        for row in csv.DictReader(fh):
            if row["variant"] == "rotated" and row["target"] == "zero":
                key = workloads.mc_key(
                    row["variant"], row["scheme"], row["target"], int(row["d"]), float(row["p"])
                )
                rates[key] = {
                    "failures": int(row["failures"]),
                    "shots": int(row["shots"]),
                    "source": "results/acceptance_logical_rates.csv (seed 1)",
                }

    (decode_cfg,) = workloads.WORKLOADS["mc_decode"]["full"]
    failures = shots = 0
    for seed in DECODE_SEEDS:
        config = ExperimentConfig(**dict(decode_cfg, shots=DECODE_SHOTS), seed=seed, workers=1)
        (r,) = run_experiment(config)
        failures += r.failures
        shots += r.shots
        print(f"mc_decode seed {seed}: {r.failures}/{r.shots}", file=sys.stderr)
    (d,), (p,) = decode_cfg["distances"], decode_cfg["noise_strengths"]
    rates[workloads.mc_key(decode_cfg["variant"], decode_cfg["scheme"], decode_cfg["target"], d, p)] = {
        "failures": failures,
        "shots": shots,
        "source": f"run_experiment, seeds {DECODE_SEEDS.start}-{DECODE_SEEDS.stop - 1}",
    }

    verify = {}
    for case in workloads.WORKLOADS["verify_pairs"]["full"]:
        code = build_code(case["variant"], case["d"])
        circuit = generate_circuit(
            case["variant"], case["d"], case["scheme"], case["target"], 1e-3,
            scrambled=case["scrambled"],
        )
        report = analyze_faults(
            circuit, code, Target(case["target"]), Scheme(case["scheme"]), max_weight=2,
            decoder=SyndromeDecoder(code, case["target"]),
        )
        key = workloads.verify_key(case)
        verify[key] = {
            "basis_faults": report.n_basis_faults,
            "failing": len(report.failing_combinations),
        }
        print(f"{key}: {verify[key]}", file=sys.stderr)

    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump({"mc_rates": rates, "verify": verify}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
