#!/usr/bin/env python3
"""Sample component censuses at a fixed degree ratio and compare the
standardized moments with the closed-form Gaussian limit.

Example:
    python scripts/gaussian_limit_experiment.py --alpha 1 --n1 2000 --N 20000 --seed 7
"""

import argparse
import json
import sys

from degseq import (
    GraphClassParams,
    gaussian_check,
    limit_law,
    moment_report,
    run_experiment,
    standardize,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--n1", type=int, default=2000)
    parser.add_argument("--q", type=int, default=4)
    parser.add_argument("--N", type=int, default=20000, dest="n_reps")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--model", choices=("simple", "multigraph"), default="simple")
    parser.add_argument("--tol-cov", type=float, default=0.06)
    args = parser.parse_args(argv)

    params = GraphClassParams.from_alpha(args.alpha, args.n1, q=args.q, model=args.model)
    law = limit_law(args.alpha, args.q, args.model)
    result = run_experiment(params, args.n_reps, seed=args.seed, workers=args.workers)
    v = standardize(result.counts, law, params.n1)
    report = moment_report(v, params.n1, params.n2)
    verdict = gaussian_check(report, law, tol_cov_abs=args.tol_cov)

    print(json.dumps({
        "params": {"n1": params.n1, "n2": params.n2, "q": params.q, "model": params.model},
        "seed": args.seed,
        "report": report.to_json(),
        "limit_cov": [[float(x) for x in row] for row in law.hessian],
        "verdict": verdict.to_json(),
    }, indent=2, allow_nan=False))
    return 0 if verdict.passed else 1


if __name__ == "__main__":
    sys.exit(main())
