"""Command-line surface for reproduction runs and CI.

Subcommands: exact (census polynomial + PMF), limit-law (Gaussian/Poisson
parameters), sample (configuration-model Monte Carlo to CSV), asymptote
(saddle data, Laplace estimate, contour coefficient), verify (acceptance
battery).  Exit status: 0 success, 1 check failure, 2 usage, domain or I/O
error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

from .errors import DegseqError
from .exact import MODELS, GraphClassParams, census_json_text, graph_gf, params_dict


def _write_json(obj, path):
    """Strict JSON to path or stdout; a non-finite top-level field is an
    error (exit 2) and nothing is written."""
    bad = [k for k, v in obj.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise DegseqError("non-finite result field(s): %s" % ", ".join(bad))
    _write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n", path)


def _write_text(text, path):
    if path is not None:  # an empty path is an I/O error, not stdout
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

    # the flags several subcommands share, each declared once
    q_model = argparse.ArgumentParser(add_help=False)
    q_model.add_argument("--q", type=int, default=2)
    q_model.add_argument("--model", choices=MODELS, default="simple")
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--n1", type=int, required=True)
    group = instance.add_mutually_exclusive_group(required=True)
    group.add_argument("--n2", type=int)
    group.add_argument("--alpha", type=float)
    json_out = argparse.ArgumentParser(add_help=False)
    json_out.add_argument("--out", help="output JSON path (default stdout)")

    p_exact = sub.add_parser("exact", parents=[q_model, json_out], help="exact census polynomial and PMF")
    p_exact.add_argument("--n1", type=int, required=True)
    p_exact.add_argument("--n2", type=int, required=True)

    p_law = sub.add_parser("limit-law", parents=[q_model, json_out], help="Gaussian/Poisson limit parameters")
    p_law.add_argument("--alpha", type=float, required=True)

    p_sample = sub.add_parser("sample", parents=[instance, q_model], help="Monte Carlo censuses to CSV")
    p_sample.add_argument("--N", type=int, default=1000, dest="n_reps")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--workers", type=int, help="default: the CPUs this process may run on")
    p_sample.add_argument("--out", required=True, help="CSV path; a .meta.json sidecar is written next to it")

    p_asym = sub.add_parser(
        "asymptote", parents=[instance, q_model, json_out], help="saddle data and Laplace estimate"
    )
    p_asym.add_argument("--u", help="comma-separated weights u_2..u_q (default all 1)")
    p_asym.add_argument("--u1", type=float, default=1.0, help="loop weight (multigraph)")

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    checks = p_verify.add_mutually_exclusive_group()
    checks.add_argument("--quick", action="store_true", help="numeric subset (< 1 min)")
    checks.add_argument("--only", help="comma-separated check numbers")
    p_verify.add_argument("--json", dest="json_path", help="write detailed results JSON")

    return parser


def _cmd_exact(args) -> int:
    params = _params(args)
    _write_text(census_json_text(params, graph_gf(params)), args.out)
    return 0


def _cmd_limit_law(args) -> int:
    from .asymptotics import limit_law

    law = limit_law(args.alpha, args.q, args.model)
    _write_json(law.to_json(), args.out)
    return 0


def _cmd_sample(args) -> int:
    from .sampler import available_cpus, run_experiment, sidecar_metadata, write_samples_csv

    params = _params(args)
    workers = args.workers if args.workers is not None else available_cpus()
    result = run_experiment(params, args.n_reps, seed=args.seed, workers=workers)
    write_samples_csv(result, args.out)
    _write_json(sidecar_metadata(result), args.out + ".meta.json")
    return 0


def _cmd_asymptote(args) -> int:
    from .asymptotics import asymptotic_log_gf, contour_extract, saddle_data

    params = _params(args)
    u = [1.0] * args.q
    u[0] = args.u1
    if args.u is not None:  # an empty list is an error, not unit weights
        tail = [float(x) for x in args.u.split(",")]
        u[1 : 1 + len(tail)] = tail
    log_gf = asymptotic_log_gf(params, u)  # its checks come before params.alpha's
    sd = saddle_data(params.alpha, u, args.model)
    payload = {
        "params": params_dict(params),
        "u": u,
        "zeta": sd.zeta,
        "phi_second": sd.phi2,
        "a_zero": sd.a0,
        "path_at_zeta": sd.path_at_zeta,
        "log_gf_estimate": log_gf,
        "coefficient_estimate": contour_extract(params, u),
    }
    _write_json(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    from . import verify as verify_mod

    known = [c[0] for c in verify_mod.CHECKS]
    if args.only is not None:  # an empty or blank list is an error, not the whole battery
        numbers = [int(x) for x in args.only.split(",")]
    else:
        numbers = verify_mod.QUICK_CHECKS if args.quick else known
    unknown = [n for n in numbers if n not in known]
    if unknown:
        raise ValueError("no acceptance check numbered %s" % ", ".join(map(str, unknown)))
    if len(set(numbers)) < len(numbers):
        raise ValueError("a check number is listed more than once")
    # the report file is opened before any check runs: a bad path costs no battery
    with contextlib.nullcontext() if args.json_path is None else open(args.json_path, "w") as out:
        results = []
        for number in numbers:  # each line is printed as soon as its check ends
            results.append(verify_mod.run_check(number))
            print(results[-1].line())
        if out is not None:
            out.write(json.dumps([r.to_json() for r in results], indent=2, allow_nan=False) + "\n")
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
