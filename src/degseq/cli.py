"""Command-line surface for reproduction runs and CI.

Subcommands: exact (census polynomial + PMF), limit-law (Gaussian/Poisson
parameters), sample (configuration-model Monte Carlo to CSV), asymptote
(saddle data, Laplace estimate, contour coefficient), verify (acceptance
battery).  Exit status: 0 success, 1 check failure, 2 usage, domain or I/O
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .errors import DegseqError
from .exact import GraphClassParams, census_json_text, graph_gf
from .series import MODELS


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _default_seed() -> int:
    env = os.environ.get("DEGSEQ_SEED")
    if not env:
        return 0
    try:
        return _nonneg_int(env)
    except (ValueError, argparse.ArgumentTypeError):
        raise DegseqError("DEGSEQ_SEED must be a nonnegative integer, got %r" % env) from None


def _write_json(obj, path):
    """Strict JSON to path or stdout; a non-finite top-level field is an
    error (exit 2) and nothing is written."""
    bad = [k for k, v in obj.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise DegseqError("non-finite result field(s): %s" % ", ".join(bad))
    _write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n", path)


def _write_text(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params(args) -> GraphClassParams:
    """The instance of --n1 with --n2, or with --alpha via from_alpha."""
    if args.n2 is not None:
        return GraphClassParams(args.n1, args.n2, q=args.q, model=args.model)
    return GraphClassParams.from_alpha(args.alpha, args.n1, q=args.q, model=args.model)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="degseq",
        description=(
            "Component-count distributions of random graphs with all degrees "
            "1 or 2: exact, asymptotic, and Monte Carlo pipelines."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact census polynomial and PMF")
    p_exact.add_argument("--n1", type=int, required=True)
    p_exact.add_argument("--n2", type=int, required=True)
    p_exact.add_argument("--q", type=int, default=2)
    p_exact.add_argument("--model", choices=MODELS, default="simple")
    p_exact.add_argument("--out", help="output JSON path (default stdout)")

    p_law = sub.add_parser("limit-law", help="Gaussian/Poisson limit parameters")
    p_law.add_argument("--alpha", type=float, required=True)
    p_law.add_argument("--q", type=int, default=2)
    p_law.add_argument("--model", choices=MODELS, default="simple")
    p_law.add_argument("--out", help="output JSON path (default stdout)")

    p_sample = sub.add_parser("sample", help="Monte Carlo censuses to CSV")
    p_sample.add_argument("--n1", type=int, required=True)
    group = p_sample.add_mutually_exclusive_group(required=True)
    group.add_argument("--n2", type=int)
    group.add_argument("--alpha", type=float)
    p_sample.add_argument("--q", type=int, default=2)
    p_sample.add_argument("--model", choices=MODELS, default="simple")
    p_sample.add_argument("--N", type=int, default=1000, dest="n_reps")
    p_sample.add_argument("--seed", type=_nonneg_int, default=None)
    p_sample.add_argument(
        "--workers", type=int, default=None, help="default: available parallelism"
    )
    p_sample.add_argument("--out", required=True, help="CSV path; a .meta.json sidecar is written next to it")

    p_asym = sub.add_parser("asymptote", help="saddle data and Laplace estimate")
    p_asym.add_argument("--n1", type=int, required=True)
    group = p_asym.add_mutually_exclusive_group(required=True)
    group.add_argument("--n2", type=int)
    group.add_argument("--alpha", type=float)
    p_asym.add_argument("--q", type=int, default=2)
    p_asym.add_argument("--model", choices=MODELS, default="simple")
    p_asym.add_argument("--u", help="comma-separated weights u_2..u_q (default all 1)")
    p_asym.add_argument("--u1", type=float, default=1.0, help="loop weight (multigraph)")
    p_asym.add_argument("--out", help="output JSON path (default stdout)")

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    p_verify.add_argument("--quick", action="store_true", help="numeric subset (< 1 min)")
    p_verify.add_argument("--only", help="comma-separated check numbers")
    p_verify.add_argument("--json", dest="json_path", help="write detailed results JSON")

    return parser


def _cmd_exact(args) -> int:
    params = GraphClassParams(args.n1, args.n2, q=args.q, model=args.model)
    _write_text(census_json_text(params, graph_gf(params)), args.out)
    return 0


def _cmd_limit_law(args) -> int:
    from .asymptotics import limit_law

    law = limit_law(args.alpha, args.q, args.model)
    _write_json(law.to_json(), args.out)
    return 0


def _cmd_sample(args) -> int:
    from .sampler import run_experiment, sidecar_metadata, write_samples_csv

    params = _params(args)
    seed = args.seed if args.seed is not None else _default_seed()
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    result = run_experiment(params, args.n_reps, seed=seed, workers=workers)
    write_samples_csv(result, args.out)
    _write_json(sidecar_metadata(result), args.out + ".meta.json")
    return 0


def _cmd_asymptote(args) -> int:
    from .asymptotics import _laplace_log_gf, _laplace_weights, contour_extract, saddle_data

    params = _params(args)
    u = [1.0] * args.q
    u[0] = args.u1
    if args.u:
        tail = [float(x) for x in args.u.split(",")]
        u[1 : 1 + len(tail)] = tail
    weights = _laplace_weights(params, u)  # its checks come before params.alpha's
    sd = saddle_data(params.alpha, weights, args.model)
    payload = {
        "params": {"n1": params.n1, "n2": params.n2, "q": params.q, "model": params.model},
        "u": u,
        "zeta": sd.zeta,
        "phi_second": sd.phi2,
        "a_zero": sd.a0,
        "path_at_zeta": sd.path_at_zeta,
        "log_gf_estimate": _laplace_log_gf(params, sd),
        "coefficient_estimate": contour_extract(params, u, zeta=sd.zeta),
    }
    _write_json(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    from . import verify as verify_mod

    known = [c[0] for c in verify_mod.CHECKS]
    if args.only:
        numbers = [int(x) for x in args.only.split(",")]
    else:
        numbers = verify_mod.QUICK_CHECKS if args.quick else known
    unknown = [n for n in numbers if n not in known]
    if unknown:
        raise ValueError("no acceptance check numbered %s" % ", ".join(map(str, unknown)))
    results = []
    for number in numbers:  # each line is printed as soon as its check ends
        results.append(verify_mod.run_check(number))
        print(results[-1].line())
    if args.json_path:
        text = json.dumps([r.to_json() for r in results], indent=2, allow_nan=False)
        _write_text(text + "\n", args.json_path)
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "exact": _cmd_exact,
    "limit-law": _cmd_limit_law,
    "sample": _cmd_sample,
    "asymptote": _cmd_asymptote,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (DegseqError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
