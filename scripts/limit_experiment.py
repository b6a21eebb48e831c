#!/usr/bin/env python3
"""Run check 8 (gaussian: Gaussian limit of the census) or check 9 (poisson:
Poisson limit of the loop count) of `degseq verify` at the given parameters,
by default the check's own; print its details as JSON, exit 0 iff it passes.

Example:
    python scripts/limit_experiment.py gaussian --alpha 1 --n1 2000 --N 20000 --seed 7
    python scripts/limit_experiment.py poisson --alpha 1 --n1 2000 --N 20000 --seed 7
"""

import argparse
import json
import sys

from degseq.exact import MODELS
from degseq.verify import check_gaussian_limit, check_poisson_limit

CHECKS = {"gaussian": check_gaussian_limit, "poisson": check_poisson_limit}


def main(argv=None) -> int:
    # a flag left out takes the check's own default
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--alpha", type=float)
    shared.add_argument("--n1", type=int)
    shared.add_argument("--N", type=int, dest="n_reps")
    shared.add_argument("--seed", type=int)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="limit", required=True)
    gaussian = sub.add_parser("gaussian", parents=[shared], argument_default=argparse.SUPPRESS,
                              help="check 8, the Gaussian limit of the census")
    gaussian.add_argument("--q", type=int)
    gaussian.add_argument("--model", choices=MODELS)
    sub.add_parser("poisson", parents=[shared], help="check 9, the Poisson limit of the loop count")
    args = vars(parser.parse_args(argv))
    details = CHECKS[args.pop("limit")](**args)
    print(json.dumps(details, indent=2, allow_nan=False))
    return 0 if details["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
