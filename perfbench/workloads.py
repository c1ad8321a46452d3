"""Workload definitions and output checks for the surfenc benchmark.

Standard library only: this module is imported before the cold-import timer
starts, so it must not pull in numpy or the package under test.

Every workload comes in two sizes.  "full" is what the benchmark times;
"tiny" runs the same code path in a second or two and exists for the
self-test (selftest.py).
"""

from __future__ import annotations

import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# A Monte Carlo point passes when a pooled two-proportion z statistic
# between its failure count and the frozen reference count stays below this.
# At 5 sigma a correct program trips the band about once in 1.7 million
# points (normal approximation).  The band is loose on purpose: it catches
# a rate off by a factor of three at the d=3, p=3e-3 points, not subtle
# bias.  Exact per-seed counts are not frozen, because a faster sampler may
# legitimately change the random stream; run.py instead requires every
# repeat of one seed to give identical counts.
BAND_Z = 5.0

_ROTATED_GRID = [
    dict(
        variant="rotated",
        scheme=scheme,
        target="zero",
        distances=(3, 5, 7),
        noise_strengths=(1e-3, 3e-3),
        shots=131_072,
    )
    for scheme in ("ue", "me", "uea")
]

_DECODE_POINT = dict(
    variant="unrotated",
    scheme="uea",
    target="zero",
    distances=(7,),
    noise_strengths=(1e-2,),
)

_VERIFY_CASES = [
    dict(variant=variant, scheme=scheme, target=target, d=d, scrambled=False)
    for variant in ("rotated", "unrotated")
    for scheme in ("ue", "uea", "me")
    for target in ("zero", "plus")
    for d in (3, 5, 7)
] + [dict(variant="rotated", scheme="ue", target="zero", d=5, scrambled=True)]

WORKLOADS = {
    "mc_grid": {
        "kind": "mc",
        "full": _ROTATED_GRID,
        "tiny": [
            dict(cfg, distances=(3,), noise_strengths=(3e-3,), shots=8192, chunk=4096)
            for cfg in _ROTATED_GRID[::2]
        ],
    },
    "mc_decode": {
        "kind": "mc",
        "full": [dict(_DECODE_POINT, shots=32_768)],
        "tiny": [dict(_DECODE_POINT, shots=4096, chunk=2048)],
    },
    "verify_pairs": {
        "kind": "verify",
        "full": _VERIFY_CASES,
        "tiny": [
            dict(variant="rotated", scheme="ue", target="zero", d=3, scrambled=False),
            dict(variant="unrotated", scheme="me", target="plus", d=3, scrambled=False),
            dict(variant="rotated", scheme="ue", target="zero", d=5, scrambled=True),
        ],
    },
}


def workload(name: str, size: str, seed: int) -> dict:
    """The workload's inputs for one seed: kind plus its configs or cases.

    Monte Carlo workloads pass the seed on as ExperimentConfig.seed.
    verify_pairs is an exhaustive enumeration with no randomness; the seed
    only fixes the order in which its cases run.
    """
    spec = WORKLOADS[name]
    items = [dict(item) for item in spec[size]]
    if spec["kind"] == "verify":
        random.Random(seed).shuffle(items)
    return {"name": name, "kind": spec["kind"], "size": size, "items": items}


def mc_points(config: dict) -> list[tuple[int, float]]:
    """(d, p) in the order run_experiment reports them."""
    return [(d, p) for d in config["distances"] for p in config["noise_strengths"]]


def mc_key(variant: str, scheme: str, target: str, d: int, p: float) -> str:
    return f"{variant}/{scheme}/{target}/d{d}/p{p:g}"


def verify_key(case: dict) -> str:
    key = f"{case['variant']}/{case['scheme']}/{case['target']}/d{case['d']}"
    return key + "/scrambled" if case["scrambled"] else key


def distinct_site_pairs(n_basis_faults: int, n_sites: int) -> int:
    """Pairs of basis faults on two different sites.

    A depolarizing site carries 15 basis faults and a flip site one, so the
    number of depolarizing sites is (faults - sites) / 14, and each of them
    contributes C(15, 2) = 105 same-site pairs that analyze_faults skips.
    """
    depolarizing, rem = divmod(n_basis_faults - n_sites, 14)
    if rem:
        raise ValueError("basis-fault and site counts do not fit 15/1 per site")
    return n_basis_faults * (n_basis_faults - 1) // 2 - 105 * depolarizing


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def band_z(failures: int, shots: int, ref_failures: int, ref_shots: int) -> float:
    """Pooled two-proportion z statistic; 0 when both counts are zero."""
    pooled = (failures + ref_failures) / (shots + ref_shots)
    if pooled == 0.0:
        return 0.0
    sd = math.sqrt(pooled * (1.0 - pooled) * (1.0 / shots + 1.0 / ref_shots))
    return abs(failures / shots - ref_failures / ref_shots) / sd


def check_mc_point(point: dict, reference: dict) -> str | None:
    """None if the point is within the band of its reference rate."""
    key = mc_key(point["variant"], point["scheme"], point["target"], point["d"], point["p"])
    ref = reference["mc_rates"].get(key)
    if ref is None:
        return f"{key}: no reference rate"
    z = band_z(point["failures"], point["shots"], ref["failures"], ref["shots"])
    if z > BAND_Z:
        return (
            f"{key}: {point['failures']}/{point['shots']} is {z:.1f} sigma from "
            f"reference {ref['failures']}/{ref['shots']}"
        )
    return None


def check_verify_case(case: dict, reference: dict) -> str | None:
    """None if basis-fault and failing-combination counts match exactly."""
    key = verify_key(case)
    ref = reference["verify"].get(key)
    if ref is None:
        return f"{key}: no reference counts"
    for field in ("basis_faults", "failing"):
        if case[field] != ref[field]:
            return f"{key}: {field} {case[field]} != reference {ref[field]}"
    return None
