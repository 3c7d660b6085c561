"""Command-line entry point for the verification batteries.

Exit code 0 means the battery finished with no unexpected refutations; any
expected-positive sample that gets refuted (or a failed symbolic check)
yields exit code 1.  Reports go to stdout or --out as JSON, with an optional
flat CSV per-sample summary via --csv.
"""

from __future__ import annotations

import argparse
import sys

from .batch import (POSITIVE_KINDS, RunConfig, WORKERS_ENV, check_form_file,
                    report_json, verify_c2, verify_inequalities,
                    verify_main_theorem, verify_pushforwards, write_csv,
                    write_report)
from .generators import GeneratorSpec

COMMANDS = {
    "verify-main": verify_main_theorem,
    "verify-c2": verify_c2,
    "verify-ineq": verify_inequalities,
    "verify-pushforwards": verify_pushforwards,
    "check-form": check_form_file,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chernweil",
        description="Batch verification of curvature positivity statements.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, samples, n, r):
        p.add_argument("--samples", type=int, default=samples,
                       help="number of random curvature samples")
        p.add_argument("--dim", type=int, default=n, dest="n",
                       help="base dimension n")
        p.add_argument("--rank", type=int, default=r, dest="r",
                       help="bundle rank r")
        p.add_argument("--seed", type=int, default=0,
                       help="root seed; per-sample seeds are spawned from it")
        p.add_argument("--starts", type=int, default=64,
                       help="random starts per positivity search")
        p.add_argument("--iters", type=int, default=200,
                       help="alternating iterations per start")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="refutation threshold")
        p.add_argument("--generators", default=",".join(POSITIVE_KINDS),
                       help="comma-separated generator kinds to cycle through")
        p.add_argument("--workers", type=int, default=0,
                       help=f"worker processes (default ${WORKERS_ENV} or 1)")
        out(p)

    def out(p):
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--csv", default=None, help="write a per-sample CSV here")

    common(sub.add_parser("verify-main",
                          help="rank-3 Schur form S_(2,1,0) positivity battery"),
           samples=100, n=3, r=3)
    common(sub.add_parser("verify-c2", help="c_2 positivity battery"),
           samples=100, n=3, r=3)
    common(sub.add_parser("verify-ineq",
                          help="rank-3 chain c1^3 >= c1c2 >= c3 battery"),
           samples=100, n=3, r=3)

    p = sub.add_parser("verify-pushforwards",
                       help="exact symbolic push-forward and duality suite")
    p.add_argument("--rank", type=int, default=4, dest="max_rank",
                   help="largest rank in the sweeps")
    p.add_argument("--excess", type=int, default=3, dest="max_excess",
                   help="largest degree excess over the fiber dimension")
    p.add_argument("--weight", type=int, default=6, dest="jt_weight",
                   help="largest partition weight / tower degree")
    out(p)

    p = sub.add_parser("check-form",
                       help="evaluate and test one form from a curvature file")
    p.add_argument("input", help="curvature JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=64)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-9)
    out(p)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = dict(command=args.command)
    for name in ("n", "r", "samples", "seed", "starts", "iters", "tol",
                 "workers", "max_rank", "max_excess", "jt_weight"):
        if hasattr(args, name):
            fields[name] = getattr(args, name)
    if hasattr(args, "generators"):
        kinds = tuple(k.strip() for k in args.generators.split(",") if k.strip())
        for k in kinds:
            if k not in GeneratorSpec.KINDS:
                raise ValueError(f"unknown generator kind {k!r}; "
                                 f"choose from {', '.join(GeneratorSpec.KINDS)}")
        fields["generators"] = kinds
    if hasattr(args, "input"):
        fields["input_path"] = args.input
    fields["output_path"] = args.out
    fields["csv_path"] = args.csv
    return RunConfig(**fields)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        report = COMMANDS[args.command](cfg)
        if cfg.output_path:
            write_report(report, cfg.output_path)
        else:
            sys.stdout.write(report_json(report))
        if cfg.csv_path:
            write_csv(report, cfg.csv_path)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report["aggregate"]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
