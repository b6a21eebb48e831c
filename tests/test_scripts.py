"""The scripts, run in process: each limit_experiment.py invocation exits 0
and prints strict JSON, and ab_bench.py's summary reads synthetic records
(no benchmark runs here)."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name="limit_experiment"):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _no_constant(name):
    raise ValueError("non-strict JSON constant %s" % name)


@pytest.mark.parametrize(
    "args",
    (
        "gaussian --n1 2000 --N 1000 --seed 7",
        "poisson --n1 2000 --N 1000 --seed 7",
        "gaussian --n1 200 --N 1000 --seed 7 --model multigraph",
    ),
)
def test_limit_experiment_passes_and_prints_strict_json(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = _load_script().main(args.split())
    assert code == 0
    details = json.loads(out.getvalue(), parse_constant=_no_constant)
    assert details["passed"] is True and details["seed"] == 7


def test_limit_experiment_takes_q_and_model_for_gaussian_only(capsys):
    with pytest.raises(SystemExit) as exc:
        _load_script().main(["poisson", "--q", "3"])
    assert exc.value.code == 2 and "unrecognized arguments: --q 3" in capsys.readouterr().err


def _record(op_p50_ref, success_ratio):
    return {"metrics": {"op_p50_ref": op_p50_ref, "success_ratio": success_ratio}}


AB_METRICS = [{"name": "op_p50_ref", "better": "lower"}, {"name": "success_ratio", "better": "higher"}]


def test_ab_bench_summary_of_synthetic_pairs():
    ab = _load_script("ab_bench")
    # op_p50_ref: parent 2.0, 2.2, 2.4, 2.6, change 1.9, 2.3, 2.1, 2.0 (three
    # wins, one loss); success_ratio: one change win, one loss, two ties
    parent = [(2.0, 1.0), (2.2, 0.5), (2.4, 1.0), (2.6, 1.0)]
    change = [(1.9, 1.0), (2.3, 0.75), (2.1, 0.5), (2.0, 1.0)]
    pairs = [{"parent": _record(*a), "change": _record(*b)} for a, b in zip(parent, change)]
    summary = ab.summarize(pairs, AB_METRICS)
    p50 = summary["op_p50_ref"]
    assert p50["parent_median"] == pytest.approx(2.3) and p50["change_median"] == pytest.approx(2.05)
    assert p50["parent_quartiles"] == pytest.approx([2.15, 2.45])  # inclusive interpolation
    assert p50["parent_iqr"] == pytest.approx(0.3)
    assert p50["relative_change"] == pytest.approx(2.05 / 2.3 - 1)
    assert (p50["wins"], p50["losses"], p50["ties"]) == (3, 1, 0)
    ok = summary["success_ratio"]
    assert ok["better"] == "higher" and ok["parent_median"] == 1.0 and ok["change_median"] == 0.875
    assert (ok["wins"], ok["losses"], ok["ties"]) == (1, 1, 2)
    # one pair: both quartiles are the run itself
    one = ab.summarize(pairs[:1], AB_METRICS)["op_p50_ref"]
    assert one["parent_iqr"] == 0 and one["wins"] == 1
    # the representative pair has the lower-median change/parent ratio:
    # 0.769, 0.875, 0.95, 1.045 in pairs 3, 2, 0, 1
    assert ab.representative(pairs) is pairs[2]


@pytest.mark.parametrize("n_pairs", [1, 2, 7, 10])
def test_ab_bench_alternates_the_side_that_runs_first(n_pairs):
    order = _load_script("ab_bench").pair_order(n_pairs)
    assert len(order) == n_pairs and order[0] == "parent"
    assert all(a != b for a, b in zip(order, order[1:]))
    assert order.count("parent") - order.count("change") == n_pairs % 2
