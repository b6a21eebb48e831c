#!/usr/bin/env python3
"""Sample configuration-model multigraphs and test the loop count against its
Poisson limit alpha/(2(1+alpha)).

Example:
    python scripts/poisson_limit_experiment.py --alpha 1 --n1 2000 --N 20000 --seed 7
"""

import argparse
import json
import sys

from degseq import GraphClassParams, limit_law, poisson_check, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--n1", type=int, default=2000)
    parser.add_argument("--N", type=int, default=20000, dest="n_reps")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    params = GraphClassParams.from_alpha(args.alpha, args.n1, q=2, model="multigraph")
    lam = limit_law(args.alpha, 2, "multigraph").poisson_lambda
    result = run_experiment(params, args.n_reps, seed=args.seed, workers=args.workers)
    verdict = poisson_check(result.counts[:, 0], lam)

    print(json.dumps({
        "params": {"n1": params.n1, "n2": params.n2, "model": params.model},
        "n_reps": args.n_reps,
        "seed": args.seed,
        "poisson_lambda": lam,
        "verdict": verdict.to_json(),
    }, indent=2, allow_nan=False))
    return 0 if verdict.passed else 1


if __name__ == "__main__":
    sys.exit(main())
