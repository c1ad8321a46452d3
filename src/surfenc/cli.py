"""Command-line interface.

Subcommands:

    generate   print an encoding circuit in the text format
    count      print gate count, depths, and qubit count for a circuit
    simulate   Monte Carlo logical failure rates, CSV output
    verify     exhaustive fault enumeration; nonzero exit on any failure
    compare    scheme-vs-scheme failure-rate ratios from a results CSV

simulate accepts --config pointing at a JSON file with ExperimentConfig
fields; explicit flags override file values.
"""

from __future__ import annotations

import argparse
import json
import sys

from .circuit_ir import Circuit
from .code_model import CodeVariant, build_code, validate_distance
from .encoders import Scheme, Target, generate_circuit, noise_strength
from .fault_analysis import analyze_faults
from .harness import (
    ExperimentConfig,
    compare_schemes,
    read_results_csv,
    run_experiment,
    write_results_csv,
)


def _argument(parse, rule):
    """An argparse type: rule(parse(text)).

    Either failure is an ArgumentTypeError: parse's in argparse's own wording
    ("invalid int value: 'x'"), rule's ValueError as is.
    """

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {parse.__name__} value: {text!r}"
            ) from None
        try:
            return rule(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_distance = _argument(int, validate_distance)
_probability = _argument(float, noise_strength)


def _add_circuit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=[v.value for v in CodeVariant], required=True)
    p.add_argument("--distance", "-d", type=_distance, required=True)
    p.add_argument("--scheme", choices=[s.value for s in Scheme], required=True)
    p.add_argument("--target", choices=[t.value for t in Target], default="zero")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfenc", description="surface-code encoding circuits"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a circuit in text form")
    _add_circuit_args(g)
    g.add_argument("--p", type=_probability, default=0.0, help="noise strength")
    g.add_argument("--scrambled", action="store_true")
    g.add_argument("--out", help="write to file instead of stdout")

    c = sub.add_parser("count", help="summarize circuit size")
    _add_circuit_args(c)

    s = sub.add_parser("simulate", help="Monte Carlo failure rates")
    s.add_argument("--config", help="JSON file with ExperimentConfig fields")
    s.add_argument("--variant", choices=[v.value for v in CodeVariant])
    s.add_argument("--scheme", choices=[sc.value for sc in Scheme])
    s.add_argument("--target", choices=[t.value for t in Target])
    s.add_argument("--distances", help="comma-separated, e.g. 3,5,7")
    s.add_argument("--noise-strengths", help="comma-separated, e.g. 1e-3,3e-3")
    s.add_argument("--shots", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--workers", type=int)
    s.add_argument("--min-failures", type=int)
    s.add_argument("--csv", help="write CSV to this path (default stdout)")

    v = sub.add_parser("verify", help="exhaustive fault enumeration")
    _add_circuit_args(v)
    v.add_argument("--p", type=_probability, default=1e-3)
    v.add_argument("--scrambled", action="store_true")
    v.add_argument(
        "--pairs", action="store_true", help="also enumerate all fault pairs"
    )
    v.add_argument(
        "--complementary",
        action="store_true",
        help="analyze the unprotected error type instead",
    )

    m = sub.add_parser("compare", help="scheme ratios from results CSV")
    m.add_argument("csv", help="results file produced by simulate")

    return parser


def _error(exc: Exception) -> int:
    """Report bad input or an unusable file in one line; exit status 2."""
    print(f"surfenc: error: {exc}", file=sys.stderr)
    return 2


def _circuit(args) -> Circuit | int:
    """The circuit that generate and verify act on, or exit status 2."""
    try:
        return generate_circuit(
            args.variant, args.distance, args.scheme, args.target, args.p,
            scrambled=args.scrambled,
        )
    except ValueError as exc:  # e.g. --scrambled with a scheme other than ue
        return _error(exc)


def _cmd_generate(args) -> int:
    circuit = _circuit(args)
    if isinstance(circuit, int):
        return circuit
    text = circuit.to_text()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _error(exc)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_count(args) -> int:
    circuit = generate_circuit(args.variant, args.distance, args.scheme, args.target, 0.0)
    print(f"qubits: {circuit.n_qubits}")
    print(f"cnot_count: {circuit.gate_count}")
    print(f"entangling_depth: {circuit.entangling_depth}")
    print(f"depth: {circuit.depth}")
    return 0


def _items(option: str, text: str, convert) -> list:
    """A comma-separated option's values, each through an argparse type."""
    try:
        return [convert(item) for item in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"argument {option}: {exc}") from None


def _load_config(args) -> ExperimentConfig:
    payload: dict = {}
    if args.config:
        with open(args.config) as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:  # not JSON, or not text at all
                raise ValueError(f"{args.config}: a config is a JSON object; {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError(
                f"{args.config}: a config is a JSON object, got {type(payload).__name__}"
            )
    if args.distances is not None:
        payload["distances"] = _items("--distances", args.distances, _distance)
    if args.noise_strengths is not None:
        payload["noise_strengths"] = _items(
            "--noise-strengths", args.noise_strengths, _probability
        )
    for key in ("variant", "scheme", "target", "shots", "seed", "workers", "min_failures"):
        value = getattr(args, key)
        if value is not None:
            payload[key] = value
    return ExperimentConfig.from_dict(payload)


def _cmd_simulate(args) -> int:
    try:
        config = _load_config(args)
        # open the output first: a bad path must not cost a whole run
        out = open(args.csv, "w") if args.csv else sys.stdout
    except (OSError, ValueError, TypeError) as exc:
        return _error(exc)
    try:
        write_results_csv(run_experiment(config), out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_verify(args) -> int:
    circuit = _circuit(args)
    if isinstance(circuit, int):
        return circuit
    report = analyze_faults(
        circuit,
        build_code(args.variant, args.distance),
        args.target,
        args.scheme,
        max_weight=2 if args.pairs else 1,
        complementary=args.complementary,
    )
    print(report.summary())
    for combo in report.failing_combinations[:20]:
        print("  FAIL " + " + ".join(combo))
    if len(report.failing_combinations) > 20:
        print(f"  ... {len(report.failing_combinations) - 20} more")
    return 1 if report.failing_combinations else 0


def _cmd_compare(args) -> int:
    try:
        with open(args.csv) as fh:
            rows = compare_schemes(read_results_csv(fh))
    except (OSError, ValueError) as exc:
        return _error(exc)
    if not rows:
        print("no comparable points found", file=sys.stderr)
        return 1
    print(f"{'variant':>9} {'target':>6} {'d':>3} {'p':>10} "
          f"{'ratio':>22} {'value':>10} {'lo':>10} {'hi':>10}")
    for r in rows:
        print(
            f"{r.variant:>9} {r.target:>6} {r.d:>3} {r.p:>10.2e} "
            f"{r.numerator + '/' + r.denominator:>22} "
            f"{r.ratio:>10.3g} {r.ratio_lo:>10.3g} {r.ratio_hi:>10.3g}"
        )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "count": _cmd_count,
        "simulate": _cmd_simulate,
        "verify": _cmd_verify,
        "compare": _cmd_compare,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
