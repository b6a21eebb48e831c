"""scripts/limit_experiment.py, run in process: each invocation exits 0 and
prints strict JSON."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "limit_experiment.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("limit_experiment", SCRIPT)
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
