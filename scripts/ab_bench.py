#!/usr/bin/env python3
"""A/B benchmark of two revisions of this repository, in alternating pairs.

    python scripts/ab_bench.py --parent REV [--change REV] --workload W \\
        --pairs N --seconds S --label L [--first-seed K]

Each revision is checked out with ``git worktree add`` under a temporary
directory, removed on exit; without ``--change`` the change side is the
working tree.  Pair i runs both trees' own ``perfbench/run.py`` with seed
K + i, the parent first in even pairs and the change first in odd ones, so
each side goes first in half of the pairs.  For each end-to-end metric of
``BENCHMARK.json`` it prints both medians, the parent's IQR (the distance
between its quartiles), the relative change of the medians and the pairs the
change wins (ties count for neither side), and it writes
``BENCH_<label>.json`` at the repository root: ``label``, ``about``, the
``parent`` and ``change`` records of the pair whose op_p50_ref ratio is the
median, every pair in ``pairs``, and the ``summary``.  Each revision's sha
comes from ``git rev-parse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 1800  # one perfbench run, set-up probes included


def pair_order(n_pairs: int) -> list:
    """The side that runs first in each pair: parent, change, parent, ..."""
    return [SIDES[i % 2] for i in range(n_pairs)]


def quartiles(values) -> tuple:
    """(Q1, median, Q3) by linear interpolation between order statistics;
    all three are the value itself for a single run."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs: list, metrics: list) -> dict:
    """Per metric {better, parent and change quartiles, parent_iqr,
    relative_change of the medians, wins, losses, ties} over the pairs, each
    a {"parent": record, "change": record} with the record's "metrics";
    ``metrics`` lists BENCHMARK.json's {name, better} entries."""
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        (p1, pm, p3), (c1, cm, c3) = (quartiles(values[side]) for side in SIDES)
        # > 0 where the change is better in that pair
        gains = [sign * (a - b) for a, b in zip(values["parent"], values["change"])]
        out[name] = {
            "better": metric["better"],
            "parent_median": pm,
            "change_median": cm,
            "parent_quartiles": [p1, p3],
            "change_quartiles": [c1, c3],
            "parent_iqr": p3 - p1,
            "relative_change": (cm - pm) / pm if pm else None,
            "wins": sum(g > 0 for g in gains),
            "losses": sum(g < 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
        }
    return out


def format_summary(summary: dict, n_pairs: int) -> str:
    lines = ["%-14s %12s %12s %12s %9s %7s" % ("metric", "parent p50", "change p50",
                                               "parent IQR", "change", "wins")]
    for name, s in summary.items():
        rel = "n/a" if s["relative_change"] is None else "%+.1f%%" % (100 * s["relative_change"])
        lines.append("%-14s %12.6g %12.6g %12.3g %9s %7s" % (
            name, s["parent_median"], s["change_median"], s["parent_iqr"], rel,
            "%d/%d" % (s["wins"], n_pairs)))
    return "\n".join(lines)


def representative(pairs: list) -> dict:
    """The pair whose change/parent op_p50_ref ratio is the (lower) median."""
    ranked = sorted(pairs, key=lambda p: p["change"]["metrics"]["op_p50_ref"]
                    / p["parent"]["metrics"]["op_p50_ref"])
    return ranked[(len(ranked) - 1) // 2]


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The record that ``perfbench/run.py`` of ``tree`` prints; RuntimeError
    if the run fails."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    records = [line[len("record "):] for line in proc.stdout.splitlines() if line.startswith("record ")]
    if proc.returncode != 0 or not records:
        raise RuntimeError("perfbench in %s exited %d:\n%s" % (tree, proc.returncode, proc.stderr))
    return json.loads(records[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--change", help="revision of the change side (default: the working tree)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--first-seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.first_seed < 0:
        parser.error("--first-seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    revs = {"parent": args.parent, "change": args.change}
    shas = {side: git("rev-parse", "--verify", rev + "^{commit}") for side, rev in revs.items() if rev}
    if args.change is None:
        shas["change"] = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        revs["change"] = "working tree" + (" (uncommitted changes on %s)" % shas["change"][:12] if dirty else "")
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]

    pairs, added = [], []
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        trees = {"change": ROOT}
        try:
            for side in SIDES if args.change is not None else ("parent",):
                trees[side] = Path(tmp) / side
                git("worktree", "add", "--detach", str(trees[side]), shas[side])
                added.append(trees[side])
            for i, first in enumerate(pair_order(args.pairs)):
                seed = args.first_seed + i
                order = SIDES if first == "parent" else SIDES[::-1]
                pair = {"seed": seed, "first": first}
                for side in order:
                    pair[side] = run_perfbench(trees[side], args.workload, seed, args.seconds)
                    pair[side]["git_sha"] = shas[side]
                pairs.append(pair)
                print("pair %d seed %d %s first: op_p50_ref parent %.4g change %.4g" % (
                    i + 1, seed, first, pair["parent"]["metrics"]["op_p50_ref"],
                    pair["change"]["metrics"]["op_p50_ref"]), flush=True)
        finally:
            for tree in added:
                git("worktree", "remove", "--force", str(tree))

    summary = {
        "workload": args.workload,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
        "parent": {"rev": revs["parent"], "sha": shas["parent"]},
        "change": {"rev": revs["change"], "sha": shas["change"]},
        "metrics": summarize(pairs, metrics),
    }
    print(format_summary(summary["metrics"], args.pairs))
    rep = representative(pairs)
    record = {
        "label": args.label,
        "about": "scripts/ab_bench.py: %d alternating pairs of perfbench/run.py --workload %s "
                 "--seconds %g, seeds %d-%d, parent %s (%s) against change %s; 'parent' and "
                 "'change' are the records of the pair with the median op_p50_ref ratio (seed %d), "
                 "'pairs' holds every record and 'summary' the medians, the parent's IQR and the "
                 "change's wins per metric." % (
                     args.pairs, args.workload, args.seconds, pairs[0]["seed"], pairs[-1]["seed"],
                     revs["parent"], shas["parent"], revs["change"], rep["seed"]),
        "parent": rep["parent"],
        "change": rep["change"],
        "pairs": pairs,
        "summary": summary,
    }
    path = ROOT / ("BENCH_%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print("wrote %s" % path)
    return 0 if summary["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
