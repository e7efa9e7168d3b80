"""Command-line interface.

Verbs: figure (sweep to CSV), verify (randomized soundness run), bounds
(refined bound for a scenario file), optimize (violation search), and
polynomial (term dump).  stdout carries data, stderr carries diagnostics.

Exit codes: 0 success, 1 verify found violations, 2 usage error, 3 file
or parse error, 4 runtime invariant violation.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .bounds import best_mk_bound, best_svetlichny_bound
from .experiments import (
    OptimizerConfig,
    SweepConfig,
    figure_sweep,
    maximize_violation,
    verify_bounds_random,
    write_sweep_csv,
)
from .linalg import FileFormatError, InvariantViolation, _load_state, expectation
from .observables import read_scenario_file
from .polynomials import check_equivalence_even, dump_terms, mk, realize, svetlichny

_PI_LITERAL = re.compile(
    r"^([+-]?)(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$", re.IGNORECASE
)


def parse_angle(text: str) -> float:
    """Radians from a decimal or fractional-pi literal ('pi/4', '-3pi/4', '0.5')."""
    token = text.strip().replace(" ", "")
    match = _PI_LITERAL.match(token)
    if match:
        sign = -1.0 if match.group(1) == "-" else 1.0
        coefficient = float(match.group(2)) if match.group(2) else 1.0
        denominator = float(match.group(3)) if match.group(3) else 1.0
        if denominator == 0.0:
            raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")
        return sign * coefficient * math.pi / denominator
    try:
        return float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected radians or a pi fraction, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellbounds",
        description="Svetlichny/MK operators and correlation-refined bounds",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    figure = verbs.add_parser("figure", help="sweep a preset figure to CSV")
    figure.add_argument("--id", type=int, choices=(1, 2, 3), required=True)
    figure.add_argument("--samples", type=int, default=201)
    figure.add_argument("--out", required=True)
    figure.add_argument("--alpha-start", type=parse_angle, default=-math.pi)
    figure.add_argument("--alpha-end", type=parse_angle, default=math.pi)
    figure.add_argument("--state", default="ghz", help="'ghz' or a state file")

    verify = verbs.add_parser("verify", help="randomized bound soundness run")
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--trials", type=int, default=1000)
    verify.add_argument("--n-min", type=int, default=2)
    verify.add_argument("--n-max", type=int, default=4)

    bounds = verbs.add_parser("bounds", help="refined bound for a scenario file")
    bounds.add_argument("--scenario", required=True)
    bounds.add_argument("--state", default="ghz", help="'ghz' or a state file")
    bounds.add_argument(
        "--operator", choices=("svetlichny+", "svetlichny-", "mk"), required=True
    )

    optimize = verbs.add_parser("optimize", help="search for maximal violation")
    optimize.add_argument("--n", type=int, required=True)
    optimize.add_argument(
        "--objective",
        choices=("max-svetlichny", "max-mk", "max-gap"),
        default="max-svetlichny",
    )
    optimize.add_argument("--family", choices=("planar", "bloch"), default="planar")
    optimize.add_argument("--multistarts", type=int, default=8)
    optimize.add_argument("--max-evals", type=int, default=20000)
    optimize.add_argument("--tol", type=float, default=1e-9)

    polynomial = verbs.add_parser("polynomial", help="dump operator terms")
    polynomial.add_argument(
        "--op", choices=("svetlichny+", "svetlichny-", "mk"), required=True
    )
    polynomial.add_argument("--n", type=int, required=True)
    return parser


def _operator_for(name: str, n_parties: int):
    if name == "svetlichny+":
        return svetlichny(n_parties, "+")
    if name == "svetlichny-":
        return svetlichny(n_parties, "-")
    return mk(n_parties)


def _run_figure(args) -> int:
    config = SweepConfig(
        figure=f"fig{args.id}",
        alpha_start=args.alpha_start,
        alpha_end=args.alpha_end,
        samples=args.samples,
        state=args.state,
    )
    rows = figure_sweep(config)
    write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


def _run_verify(args) -> int:
    report = verify_bounds_random(args.seed, args.trials, args.n_min, args.n_max)
    sys.stdout.write(report.to_text())
    sys.stderr.write(
        f"worst_slack_covariance_distinct={report.worst_slack_covariance_distinct:.15g}\n"
    )
    for check, (trial, n, seed, kind, family) in sorted(report.witnesses.items()):
        sys.stderr.write(f"witness_{check} trial={trial} n={n} seed={seed} kind={kind} family={family}\n")
    return 0 if report.violations == 0 else 1


def _run_bounds(args) -> int:
    scenario = read_scenario_file(args.scenario)
    n = scenario.n_parties
    state = _load_state(args.state, scenario, "scenario")
    operator = _operator_for(args.operator, n)
    value = expectation(state, realize(operator, scenario))
    lines = [f"operator={args.operator}", f"operator_value={value:.15g}"]
    if args.operator == "mk" and n % 2 == 1:
        if n < 3:
            raise ValueError("MK bounds need at least 3 parties")
        report = best_mk_bound(scenario, state)
    else:
        # even-N MK equals a signed Svetlichny operator, so the eta
        # refinement is the bound that applies
        if args.operator == "mk" and n <= 10:
            equivalence = check_equivalence_even(n)
            lines.append(f"svetlichny_equivalent={equivalence.parity},{equivalence.sign:+d}")
        report = best_svetlichny_bound(scenario, state)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.write(report.to_text())
    return 0


def _run_optimize(args) -> int:
    config = OptimizerConfig(
        n_parties=args.n,
        objective=args.objective,
        family=args.family,
        multistarts=args.multistarts,
        max_evals=args.max_evals,
        tol=args.tol,
    )
    result = maximize_violation(config)
    angles = ",".join(f"{a:.15g}" for a in result.angles)
    sys.stdout.write(
        f"objective={args.objective}\n"
        f"n_parties={args.n}\n"
        f"family={args.family}\n"
        f"value={result.value:.15g}\n"
        f"evals={result.evals}\n"
        f"converged={'true' if result.converged else 'false'}\n"
        f"angles={angles}\n"
    )
    for index, (value, evals, converged) in enumerate(result.starts):
        sys.stderr.write(
            f"start={index} value={value:.15g} evals={evals} "
            f"converged={'true' if converged else 'false'}\n"
        )
    return 0


def _run_polynomial(args) -> int:
    operator = _operator_for(args.op, args.n)
    sys.stdout.write(dump_terms(operator))
    return 0


_HANDLERS = {
    "figure": _run_figure,
    "verify": _run_verify,
    "bounds": _run_bounds,
    "optimize": _run_optimize,
    "polynomial": _run_polynomial,
}


def run(argv) -> int:
    """Parse argv (without the program name) and execute; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _HANDLERS[args.verb](args)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvariantViolation, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
