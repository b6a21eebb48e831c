#!/usr/bin/env python3
"""Run check 9 of `degseq verify` (Poisson limit of the loop count) at the given
parameters, by default the check's own; print its details as JSON, exit 0 iff it passes.

Example:
    python scripts/poisson_limit_experiment.py --alpha 1 --n1 2000 --N 20000 --seed 7
"""

import argparse
import json
import sys

from degseq.verify import check_poisson_limit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, argument_default=argparse.SUPPRESS)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--n1", type=int)
    parser.add_argument("--N", type=int, dest="n_reps")
    parser.add_argument("--seed", type=int)
    details = check_poisson_limit(**vars(parser.parse_args(argv)))
    print(json.dumps(details, indent=2, allow_nan=False))
    return 0 if details["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
