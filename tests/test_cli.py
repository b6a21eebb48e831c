import argparse
import contextlib
import hashlib
import io
import json
import os
import time
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degseq.cli import _build_parser, main
from degseq.exact import class_is_empty


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_single_edge(capsys):
    code, out, _ = run_cli(["exact", "--n1", "2", "--n2", "0", "--q", "2"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["polynomial"] == [{"exponents": [0, 1], "num": 1, "den": 1}]
    assert blob["pmf"] == [{"counts": [0, 1], "num": 1, "den": 1}]


def test_exact_builds_census_polynomial_once(capsys, monkeypatch):
    from degseq import cli, exact

    calls = []
    original = exact.graph_gf

    def counted(params):
        calls.append(params)
        return original(params)

    monkeypatch.setattr(exact, "graph_gf", counted)
    monkeypatch.setattr(cli, "graph_gf", counted)
    code, out, _ = run_cli(["exact", "--n1", "4", "--n2", "4", "--q", "4"], capsys)
    assert code == 0
    assert len(calls) == 1
    assert sum(p["num"] / p["den"] for p in json.loads(out)["pmf"]) == pytest.approx(1.0)


def test_exact_output_matches_pinned_digest(tmp_path, capsys):
    # the digest perfbench/spec.json pins for the exact_census workload
    out = tmp_path / "census.json"
    code, _, _ = run_cli(["exact", "--n1", "20", "--n2", "20", "--q", "4", "--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "12ab7fd99266e0ab0eb2a0a8fdafff207b2ca75cd76d0e042dcde7dd4d6c2b34"
    )


def test_exact_multigraph_output_matches_pinned_digest(tmp_path, capsys):
    # multigraph masses carry 2^-n2 denominators; the digest was computed on
    # the all-Fraction census kernel before it moved to integer numerators
    out = tmp_path / "census.json"
    args = ["exact", "--n1", "8", "--n2", "8", "--q", "6", "--model", "multigraph"]
    code, _, _ = run_cli(args + ["--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "647f13f63dd80f9b6dde33e4088028763aa706d29dee0e2a028aa9d185d9afb8"
    )


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--n1", "40", "--n2", "40", "--q", "6"],
         "a34498f3f4a1238831f0fbd36d61066e52235da043c7ebac961f4aad9cd8e80d"),
        (["--n1", "30", "--n2", "30", "--q", "5", "--model", "multigraph"],
         "2a6ba54af5abfc1053d0adb048885e9203bea642f672a319ee06ab1e73454fdb"),
    ],
)
def test_exact_output_at_larger_exponents_matches_pinned_digest(tmp_path, capsys, args, digest):
    # computed on the tuple-keyed series kernel, before graph_gf moved to
    # packed integer keys and then to the closed form; the first digest is
    # also checked in CI
    out = tmp_path / "census.json"
    code, _, _ = run_cli(["exact"] + args + ["--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@given(
    st.integers(0, 6),
    st.integers(0, 10),
    st.integers(2, 6),
    st.sampled_from(("simple", "multigraph")),
)
@example(0, 3, 4, "multigraph")  # n1 = 0: cycles only
@example(1, 2, 6, "simple")  # q > n1 + n2
@settings(max_examples=60, deadline=None)
def test_exact_writer_matches_indented_json(half_n1, n2, q, model):
    # the template writer against the encoder it replaces, on the payload the
    # command builds; includes n1 = 0 and q beyond the largest component
    from degseq import cli
    from degseq.exact import census_json_text, census_to_json

    args = ["exact", "--n1", str(2 * half_n1), "--n2", str(n2), "--q", str(q), "--model", model]
    with mock.patch.object(cli, "census_json_text", wraps=census_json_text) as spy:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(args)
    if code == 2:  # an empty class, reported before any output
        assert class_is_empty(2 * half_n1, n2, model) and out.getvalue() == ""
        return
    assert code == 0
    census = spy.call_args.args[1]
    payload = {
        "params": {"n1": 2 * half_n1, "n2": n2, "q": q, "model": model},
        **census_to_json(census),
        "pmf": [{"counts": list(k), "num": p.numerator, "den": p.denominator}
                for k, p in census.pmf().items()],
    }
    assert out.getvalue() == json.dumps(payload, indent=2, allow_nan=False) + "\n"


def test_exact_odd_n1_exits_2(capsys):
    code, _, err = run_cli(["exact", "--n1", "3", "--n2", "1"], capsys)
    assert code == 2
    assert err == "error: n1 must be even\n"


def test_exact_empty_class_exits_2(capsys):
    code, _, err = run_cli(["exact", "--n1", "0", "--n2", "2"], capsys)
    assert code == 2
    assert "empty class" in err


def test_exact_beyond_size_bound_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["exact", "--n1", "4", "--n2", "100000000000000000000", "--q", "3"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "bound" in err


def test_exact_multigraph_masses(capsys):
    code, out, _ = run_cli(
        ["exact", "--n1", "0", "--n2", "3", "--q", "3", "--model", "multigraph"], capsys
    )
    assert code == 0
    blob = json.loads(out)
    terms = {tuple(t["exponents"]): (t["num"], t["den"]) for t in blob["polynomial"]}
    assert terms[(0, 0, 1)] == (1, 1)  # triangle
    assert terms[(1, 1, 0)] == (3, 4)  # loop + double edge
    assert terms[(3, 0, 0)] == (1, 8)  # three loops


def test_limit_law_output(capsys):
    code, out, _ = run_cli(["limit-law", "--alpha", "1", "--q", "4"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["mean_coeffs"] == [0.5, 0.25, 0.125]
    assert blob["hessian"][0][0] == 0.125
    assert blob["hessian"][0][1] == -0.125
    assert blob["hessian"][1][1] == 0.1875
    assert blob["poisson_lambda"] is None


def test_limit_law_q2_matrix(capsys):
    code, out, _ = run_cli(["limit-law", "--alpha", "1", "--q", "2"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["hessian"] == [[0.125]]


def test_limit_law_multigraph_lambda(capsys):
    code, out, _ = run_cli(
        ["limit-law", "--alpha", "1", "--q", "2", "--model", "multigraph"], capsys
    )
    blob = json.loads(out)
    assert blob["poisson_lambda"] == 0.25


def test_limit_law_bad_alpha_usage_error(capsys):
    code, _, _ = run_cli(["limit-law", "--alpha", "-1", "--q", "4"], capsys)
    assert code == 2


NON_FINITE = ("inf", "nan", "Infinity", "1e400")


@pytest.mark.parametrize("value", NON_FINITE)
def test_limit_law_rejects_non_finite_alpha(capsys, value):
    code, out, err = run_cli(["limit-law", "--alpha", value, "--q", "4"], capsys)
    assert code == 2
    assert out == ""
    assert "must be positive and finite" in err


@pytest.mark.parametrize("value", NON_FINITE)
def test_sample_rejects_non_finite_alpha(tmp_path, capsys, value):
    out = tmp_path / "s.csv"
    code, _, err = run_cli(
        ["sample", "--n1", "4", "--alpha", value, "--N", "3", "--out", str(out)], capsys
    )
    assert code == 2
    assert "must be positive and finite" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ("--alpha", "--u1"))
@pytest.mark.parametrize("value", NON_FINITE)
def test_asymptote_rejects_non_finite_alpha_and_u1(capsys, flag, value):
    args = ["asymptote", "--n1", "20", "--q", "3"]
    args += [flag, value] if flag == "--alpha" else ["--n2", "10", flag, value]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert "must be positive and finite" in err


@pytest.mark.parametrize(
    "args",
    [
        ["asymptote", "--n1", "20", "--n2", "10", "--q", "3", "--model", "multigraph", "--u1", "1e308"],
        ["asymptote", "--n1", "20", "--n2", "10", "--q", "3", "--u", "1.1,inf"],
        ["asymptote", "--n1", "20", "--n2", "10", "--q", "3", "--u", ""],  # not unit weights
    ],
    ids=["overflowing-u1", "infinite-u", "empty-u"],
)
def test_asymptote_bad_weights_exit_2_without_traceback(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# Inputs the library rejects with no CLI-side check of its own: each exits 2
# with one error line from main().
LIBRARY_REJECTED = {
    "exact-odd-n1": ["exact", "--n1", "3", "--n2", "1"],
    "exact-negative-n1": ["exact", "--n1", "-2", "--n2", "1"],
    "exact-q1": ["exact", "--n1", "2", "--n2", "1", "--q", "1"],
    "limit-law-q1": ["limit-law", "--alpha", "1", "--q", "1"],
    "limit-law-alpha-0": ["limit-law", "--alpha", "0"],
    "limit-law-alpha-neg": ["limit-law", "--alpha", "-1"],
    "limit-law-alpha-neg-multigraph": ["limit-law", "--alpha", "-1", "--model", "multigraph"],
    "sample-odd-n1": ["sample", "--n1", "3", "--n2", "1", "--N", "5"],
    "sample-negative-n1": ["sample", "--n1", "-2", "--n2", "1", "--N", "5"],
    "sample-alpha-0": ["sample", "--n1", "4", "--alpha", "0", "--N", "5"],
    "sample-alpha-overflows-n2": ["sample", "--n1", "4", "--alpha", "1e308", "--N", "5"],
    "sample-N0": ["sample", "--n1", "4", "--n2", "2", "--N", "0"],
    "sample-empty-class": ["sample", "--n1", "0", "--n2", "1", "--N", "5"],
    "sample-q1": ["sample", "--n1", "4", "--n2", "2", "--q", "1", "--N", "5"],
    "asymptote-odd-n1": ["asymptote", "--n1", "3", "--n2", "1"],
    "asymptote-n1-0": ["asymptote", "--n1", "0", "--n2", "1"],
    "asymptote-q1": ["asymptote", "--n1", "4", "--n2", "2", "--q", "1"],
    "asymptote-alpha-neg": ["asymptote", "--n1", "4", "--alpha", "-1"],
    "asymptote-alpha-overflows-n2": ["asymptote", "--n1", "4", "--alpha", "1e308"],
}


@pytest.mark.parametrize("args", LIBRARY_REJECTED.values(), ids=LIBRARY_REJECTED)
def test_library_rejection_exits_2(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    if args[0] == "sample":
        args = args + ["--workers", "1", "--out", str(out)]
    code, stdout, err = run_cli(args, capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_non_integer_n1_is_a_usage_error(capsys):
    code, _, err = run_cli(["sample", "--n1", "2.5", "--n2", "1", "--out", "x.csv"], capsys)
    assert code == 2
    assert "error: argument --n1: invalid int value" in err


def test_sample_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "s.csv"
    args = [
        "sample", "--n1", "20", "--alpha", "1", "--q", "3",
        "--N", "40", "--seed", "7", "--workers", "1", "--out", str(out),
    ]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "rep_id,U_1,U_2,U_3,tail_count"
    assert len([x for x in lines if x]) == 41
    meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
    assert meta["seed"] == 7 and meta["params"]["n2"] == 10

    # byte-for-byte reproducibility
    first = out.read_bytes()
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    assert out.read_bytes() == first


def test_sample_csv_matches_pinned_digest(tmp_path, capsys):
    # output does not depend on --workers, so one worker gives the CSV of
    # `degseq sample --n1 200 --alpha 1 --q 4 --N 250 --seed 7`
    out = tmp_path / "s.csv"
    args = [
        "sample", "--n1", "200", "--alpha", "1", "--q", "4",
        "--N", "250", "--seed", "7", "--workers", "1", "--out", str(out),
    ]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "e56087c2c013505cac7c79bcd7ef5e5178918be9f716206a94e970e673c5f8e3"
    )


def test_sample_conflicting_n2_alpha_usage_error(capsys):
    code, _, _ = run_cli(
        ["sample", "--n1", "4", "--n2", "2", "--alpha", "1", "--out", "x.csv"], capsys
    )
    assert code == 2


@pytest.mark.parametrize(
    "args",
    [["--n1", "4", "--n2", "2", "--alpha", "1"], ["--n1", "4"]],
    ids=["both", "neither"],
)
def test_asymptote_takes_exactly_one_of_n2_and_alpha(capsys, args):
    code, out, err = run_cli(["asymptote"] + args, capsys)
    assert code == 2 and out == ""
    assert "--n2" in err and "--alpha" in err


def _typed(namespace):
    return {name: (value, type(value)) for name, value in vars(namespace).items()}


# the smallest valid argv of each subcommand and the namespace it parses to:
# every option's name, default and type, whichever parser declares it
FLAG_TABLE = {
    "exact": (
        ["--n1", "4", "--n2", "2"],
        dict(n1=4, n2=2, q=2, model="simple", out=None),
    ),
    "limit-law": (["--alpha", "1"], dict(alpha=1.0, q=2, model="simple", out=None)),
    "sample": (
        ["--n1", "4", "--n2", "2", "--out", "x.csv"],
        dict(n1=4, n2=2, alpha=None, q=2, model="simple", n_reps=1000, seed=0, workers=None,
             out="x.csv"),
    ),
    "asymptote": (
        ["--n1", "4", "--alpha", "1"],
        dict(n1=4, n2=None, alpha=1.0, q=2, model="simple", u=None, u1=1.0, out=None),
    ),
    "verify": ([], dict(quick=False, only=None, json_path=None)),
}


@pytest.mark.parametrize("command", FLAG_TABLE)
def test_flag_table_of_each_subcommand(command):
    argv, expected = FLAG_TABLE[command]
    namespace = _build_parser().parse_args([command] + argv)
    assert _typed(namespace) == _typed(argparse.Namespace(command=command, **expected))


def test_sample_empty_simple_class_exits_2(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, err = run_cli(
        ["sample", "--n1", "0", "--n2", "2", "--model", "simple", "--out", str(out)], capsys
    )
    assert code == 2
    assert "empty class" in err


@pytest.mark.parametrize(
    "args",
    [
        ["exact", "--n1", "2", "--n2", "0"],
        ["sample", "--n1", "4", "--n2", "2", "--N", "5", "--workers", "1"],
    ],
    ids=["exact", "sample"],
)
def test_unwritable_out_exits_2(tmp_path, capsys, args):
    # exit 1 means a failed check, so an I/O error is a usage error (2)
    out = tmp_path / "no" / "such" / "x.json"
    code, _, err = run_cli(args + ["--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["exact", "--n1", "4", "--n2", "4", "--q", "8"],
        ["limit-law", "--alpha", "1"],
        ["asymptote", "--n1", "20", "--n2", "10", "--q", "3"],
    ],
    ids=["exact", "limit-law", "asymptote"],
)
def test_an_empty_out_path_is_an_error_not_stdout(capsys, args):
    code, out, err = run_cli(args + ["--out", ""], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_sample_default_workers_are_the_cpus_the_process_may_use(tmp_path, capsys, monkeypatch):
    # under taskset or a cpuset the process may run on fewer CPUs than the
    # host has; --N 200 is two chunks, so a two-CPU default would show
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    out = tmp_path / "s.csv"
    code, _, _ = run_cli(["sample", "--n1", "4", "--n2", "2", "--N", "200", "--out", str(out)], capsys)
    assert code == 0
    meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
    assert meta["workers"] == 1 and meta["seed"] == 0


def test_sample_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, err = run_cli(
        ["sample", "--n1", "4", "--n2", "2", "--N", "5", "--seed", "-1", "--out", str(out)],
        capsys,
    )
    # the library's check, reached before any draw
    assert code == 2
    assert err == "error: seed must be nonnegative\n"
    assert not out.exists()


def test_asymptote_output(capsys):
    code, out, _ = run_cli(
        ["asymptote", "--n1", "20", "--n2", "10", "--q", "3", "--u", "1.1,0.9"], capsys
    )
    assert code == 0
    blob = json.loads(out)
    assert 0 < blob["zeta"] < 1
    assert blob["phi_second"] > 0
    assert blob["u"] == [1.0, 1.1, 0.9]
    assert "log_gf_estimate" in blob and "coefficient_estimate" in blob


def test_asymptote_unit_weights_closed_form(capsys):
    code, out, _ = run_cli(["asymptote", "--n1", "100", "--alpha", "1", "--q", "2"], capsys)
    blob = json.loads(out)
    assert blob["zeta"] == pytest.approx(0.5, abs=1e-12)
    assert blob["phi_second"] == pytest.approx(2.0, abs=1e-10)


def test_asymptote_large_alpha_solves(capsys):
    code, out, _ = run_cli(["asymptote", "--n1", "2", "--n2", "300", "--q", "2"], capsys)
    assert code == 0
    assert json.loads(out)["zeta"] == pytest.approx(300 / 301, rel=1e-12)


def test_asymptote_readme_example_matches_pinned_digest(capsys):
    # pinned while the command solved the saddle once per output; sharing one
    # SaddleData between the outputs must not move a byte.  The multigraph
    # digests were pinned before the cycle polynomial read its smallest cycle
    # size from series.SMALLEST_CYCLE.  The quadrature sums in its own order,
    # so its last digits are checked against the exact coefficient instead of
    # pinned.
    from degseq.exact import GraphClassParams, graph_gf_value, v_factor

    cases = [
        (["--n1", "20", "--n2", "10", "--q", "3", "--u", "1.1,0.9"],
         GraphClassParams(20, 10, q=3), ["1", "11/10", "9/10"],
         "094732626e184f38d14caafa174f41c8578536d485e21d3c8e700029b118f3ad"),
        (["--n1", "20", "--n2", "10", "--q", "3", "--u", "1.1,0.9", "--model", "multigraph"],
         GraphClassParams(20, 10, q=3, model="multigraph"), ["1", "11/10", "9/10"],
         "ce13af8aaaa6c7bc9b35da741a939cf11b4b2a24342b8f4d574bb190d6606267"),
        (["--n1", "40", "--n2", "30", "--q", "4", "--u", "1.2,0.8,1.3", "--u1", "1.5",
          "--model", "multigraph"],
         GraphClassParams(40, 30, q=4, model="multigraph"), ["3/2", "6/5", "4/5", "13/10"],
         "6838fc8a306d9af148b017b1d4fac85e516fd118b2798296ab472c05e3cb72dc"),
    ]
    for args, params, u, digest in cases:
        code, out, _ = run_cli(["asymptote"] + args, capsys)
        assert code == 0
        lines = out.splitlines(True)
        pinned = "".join(line for line in lines if '"coefficient_estimate"' not in line)
        assert hashlib.sha256(pinned.encode()).hexdigest() == digest, args
        u = [Fraction(x) for x in u]
        exact = float(graph_gf_value(params, u) / v_factor(params.n1, params.n2))
        assert json.loads(out)["coefficient_estimate"] == pytest.approx(exact, rel=1e-13, abs=0)


def test_asymptote_non_finite_exits_2(capsys, monkeypatch):
    # a non-finite field from any library call: no NaN may reach stdout
    from degseq import asymptotics

    monkeypatch.setattr(asymptotics, "contour_extract", lambda *args, **kwargs: float("nan"))
    code, out, err = run_cli(["asymptote", "--n1", "20", "--alpha", "1", "--q", "3"], capsys)
    assert code == 2
    assert out == ""
    assert "coefficient_estimate" in err


def test_asymptote_overflow_reports_one_error_line_without_warnings(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["asymptote", "--n1", "2000", "--alpha", "1", "--q", "3"], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: non-finite result field(s): coefficient_estimate"]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "n1, message", [("3", "n1 must be even"), ("0", "the Laplace estimate needs n1 >= 2")]
)
def test_asymptote_reports_the_laplace_checks_first(capsys, n1, message):
    # before the saddle solve, and before n1 = 0 leaves alpha undefined
    code, out, err = run_cli(["asymptote", "--n1", n1, "--n2", "2"], capsys)
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


def test_asymptote_at_n2_zero_names_the_missing_saddle(capsys):
    # alpha = 2 n2 / n1 = 0: the error names n2 = 0, not the saddle's alpha check
    code, out, err = run_cli(["asymptote", "--n1", "6", "--n2", "0", "--q", "3"], capsys)
    assert code == 2 and out == ""
    assert err == "error: n2 = 0 gives alpha = 0: there is no saddle point\n"


def test_asymptote_beyond_the_saddle_bracket_names_alpha(capsys):
    code, out, err = run_cli(["asymptote", "--n1", "2", "--alpha", "1e14"], capsys)
    assert code == 2 and out == ""
    assert err == "error: saddle bracket has no sign change; alpha or weights out of range\n"


def test_asymptote_rejects_too_many_weights(capsys):
    # the library's weight-count check, reached before any output
    code, out, err = run_cli(
        ["asymptote", "--n1", "10", "--alpha", "1", "--q", "2", "--u", "1.1,0.9"], capsys
    )
    assert code == 2 and out == ""
    assert err == "error: expected 2 weights, got 3\n"


def test_verify_only_single_check(capsys):
    code, out, _ = run_cli(["verify", "--only", "3"], capsys)
    assert code == 0
    assert "PASS" in out and "saddle-closed-form" in out


def test_verify_tampered_hessian_fails(capsys, monkeypatch):
    # negative control: a covariance closed form off by a factor of 2 fails check 4
    from degseq import verify

    real = verify.hessian_H
    monkeypatch.setattr(verify, "hessian_H", lambda alpha, q: 2.0 * real(alpha, q))
    code, out, _ = run_cli(["verify", "--only", "4"], capsys)
    assert code == 1
    assert out.startswith("FAIL   4  hessian-identity")


def test_verify_rejects_unknown_check_before_running_any(capsys, monkeypatch):
    from degseq import verify

    def run_check(number):
        raise AssertionError("check %d ran" % number)

    monkeypatch.setattr(verify, "run_check", run_check)
    code, out, err = run_cli(["verify", "--only", "3,99,0"], capsys)
    assert code == 2 and out == ""
    assert err == "error: no acceptance check numbered 99, 0\n"


@pytest.mark.parametrize("only", ["", " "], ids=["empty", "blank"])
def test_verify_rejects_an_empty_check_list_before_running_any(capsys, monkeypatch, only):
    # an empty --only is not the whole battery
    from degseq import verify

    calls = []
    monkeypatch.setattr(verify, "run_check", calls.append)
    code, out, err = run_cli(["verify", "--only", only], capsys)
    assert code == 2 and out == "" and calls == []
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["--only", "3", "--json", ""],
        ["--only", "3", "--json", "no/such/dir/report.json"],
        ["--only", "3,5,3"],
        ["--quick", "--only", "3"],
    ],
    ids=["empty-json-path", "unwritable-json-path", "repeated-check", "quick-with-only"],
)
def test_verify_rejects_bad_options_before_running_any(tmp_path, capsys, monkeypatch, args):
    # each is one usage error before the battery starts, not a silently
    # dropped flag, a check run twice or a report lost after the run
    from degseq import verify

    calls = []
    monkeypatch.setattr(verify, "run_check", calls.append)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["verify"] + args, capsys)
    assert code == 2 and out == "" and calls == []
    assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]
    assert list(tmp_path.iterdir()) == []


def test_verify_without_flags_runs_every_check(capsys, monkeypatch):
    from degseq import verify

    def check():
        return {"passed": True}

    monkeypatch.setattr(verify, "CHECKS", ((3, "first", check), (7, "second", check)))
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    lines = [line.split()[:3] for line in out.splitlines()]
    assert lines == [["PASS", "3", "first"], ["PASS", "7", "second"]]


def test_verify_structural_check_fails_on_forged_graph(tmp_path, capsys, monkeypatch):
    # one sampled graph gets a loop in place of an edge: same edge count, but
    # two vertices off their degree, which both labellers reject
    from degseq import verify
    from degseq.sampler import StubMultigraph

    real = verify.sample_simple
    forged = []

    def sample_simple(n1, n2, rng):
        g = real(n1, n2, rng)
        if forged:
            return g
        (a, _), *rest = g.edges
        forged.append(StubMultigraph(n1, n2, ((a, a), *rest)))
        return forged[0]

    def small_check():  # check 10 on one small batch of simple graphs
        return verify.check_structural_invariants(batches=(("simple", 8, 6, 4, 1000),))

    monkeypatch.setattr(verify, "sample_simple", sample_simple)
    monkeypatch.setattr(verify, "CHECKS", ((10, "structural-invariants", small_check),))
    report = tmp_path / "report.json"
    code, out, err = run_cli(["verify", "--only", "10", "--json", str(report)], capsys)
    assert code == 1 and "FAIL" in out and err == ""
    (entry,) = json.loads(report.read_text())
    assert entry["passed"] is False and entry["details"]["violations"] >= 1


def test_verify_json_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, _ = run_cli(["verify", "--only", "3,5", "--json", str(report)], capsys)
    assert code == 0
    blob = json.loads(report.read_text())
    assert [entry["number"] for entry in blob] == [3, 5]
    assert all(entry["passed"] for entry in blob)


def test_usage_error_on_unknown_command(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2
