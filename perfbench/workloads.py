"""The four benchmark workloads, their per-op output checks and run gates.

Each workload is a closed loop in one process (``workers=1``, no threads):
``op(i)`` is operation ``i``, whose inputs derive from the workload seed and
``i`` alone, ``check(i, out)`` returns None or the reason the output is
wrong, and ``gate()`` judges all outputs of the run together.  degseq and its
dependencies are imported in ``setup`` so that a fresh process can time the
import as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "spec.json")) as _fh:
    SPEC = json.load(_fh)

# Operation index of the warm-up op, outside the range a timed loop reaches.
WARMUP_INDEX = 10**9

# Check 8's tolerances.
GAUSS_TOL_MEAN_SE = 4.0
GAUSS_TOL_COV_ABS = 0.06
# Check 11's significance.
GOF_SIGNIFICANCE = 0.001
# Check 6's contour tolerance; the Laplace tolerance for large n1.
CONTOUR_REL_TOL = 1e-8
LAPLACE_LOG_TOL = 0.05


def derive_seed(seed, index):
    """64-bit seed of operation ``index`` of a run with workload seed ``seed``."""
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


def fraction_bytes(value):
    return ("%d/%d" % (value.numerator, value.denominator)).encode()


# -- gates, as plain functions so tests can feed them perturbed outputs ------


def gaussian_gate(counts, law, n1, n2):
    """Check 8's verdict on census rows: standardized means within 4 SE of 0
    and covariance within 0.06 of the limit law's."""
    from degseq import stats

    report = stats.moment_report(stats.standardize(counts, law, n1), n1, n2)
    verdict = stats.gaussian_check(
        report, law, tol_mean_se=GAUSS_TOL_MEAN_SE, tol_cov_abs=GAUSS_TOL_COV_ABS
    )
    return verdict.passed, verdict.details


def gof_gate(observed, oracles):
    """Chi-square goodness of fit of every instance's sampled censuses against
    its exact law.  The per-instance statistics are independent, so their sum
    is one chi-square statistic with the summed degrees of freedom; the run
    passes when its p-value is at least 0.001 (one test per run)."""
    from degseq import stats
    from scipy.stats import chi2

    total_stat = 0.0
    total_dof = 0
    per_instance = {}
    for key, probs in oracles.items():
        obs = observed.get(key, Counter())
        n = sum(obs.values())
        if n == 0:
            return False, {"missing_instance": "/".join(map(str, key))}
        verdict = stats.chi_square_gof(obs, probs, n, significance=GOF_SIGNIFICANCE)
        total_stat += verdict.details["chi2_stat"]
        total_dof += verdict.details["cells"] - 1
        per_instance["/".join(map(str, key))] = {"p_value": verdict.details["p_value"], "n_samples": n}
    p_value = float(chi2.sf(total_stat, total_dof)) if total_dof else 0.0
    return p_value >= GOF_SIGNIFICANCE, {
        "p_value": p_value,
        "chi2_stat": total_stat,
        "dof": total_dof,
        "instances": per_instance,
    }


# -- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    period = 1  # a timed loop stops only after a multiple of this many ops
    min_ops = 2  # fewest timed ops: the gate's needs, and two for percentiles
    trace_ops = 1  # fixed op count of the traced run
    graphs_per_op = None  # accepted graphs censused per op, where defined

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir

    def params(self):
        raise NotImplementedError

    def setup(self):
        """Build the workload's inputs and oracles."""

    def op(self, i):
        raise NotImplementedError

    def check(self, i, out):
        return None

    def known_failure(self, i):
        """Whether op ``i`` hits a defect recorded at the baseline."""
        return False

    def collect(self, out):
        """Keep what the run gate needs from a completed op."""

    def gate(self):
        return True, {}


class McGauss(Workload):
    """W1: the Gaussian-limit experiment in blocks of replications."""

    name = "mc_gauss_n2000"
    N1, ALPHA, Q, BLOCK = 2000, 1.0, 4, 25
    # The gate judges the run's first 1000 rows (gaussian_check's minimum).
    # At n1=2000 the standardized mean of U_2 has a finite-size bias of
    # k(k-1)/(n2+k-1) - k/2 = -0.25 components (k = n1/2 paths), about
    # -0.0079 in V_2 units; over N rows that is 0.0079 * sqrt(N) / sqrt(H_22)
    # standard errors, so a gate over all of a run's ~12000 rows would fail
    # 4-SE checks on correct samples in several percent of runs.
    GATE_ROWS = 1000
    min_ops = GATE_ROWS // BLOCK
    trace_ops = 40
    graphs_per_op = BLOCK

    def params(self):
        return {"model": "simple", "n1": self.N1, "alpha": self.ALPHA, "q": self.Q,
                "block_reps": self.BLOCK, "workers": 1}

    def setup(self):
        import numpy as np
        from degseq import asymptotics, exact, sampler, stats

        self.np, self.sampler, self.stats = np, sampler, stats
        self.p = exact.GraphClassParams.from_alpha(self.ALPHA, self.N1, q=self.Q, model="simple")
        self.law = asymptotics.limit_law(self.ALPHA, self.Q, "simple")
        self.csv_path = os.path.join(self.out_dir, "mc_gauss_block.csv")
        self.rows = []

    def op(self, i):
        """What ``degseq sample --workers 1`` does, then the block's moments."""
        seed = derive_seed(self.seed, i)
        result = self.sampler.run_experiment(self.p, self.BLOCK, seed=seed, workers=1)
        self.sampler.write_samples_csv(result, self.csv_path)
        with open(self.csv_path + ".meta.json", "w") as fh:
            json.dump(self.sampler.sidecar_metadata(result), fh, indent=2)
            fh.write("\n")
        v = self.stats.standardize(result.counts, self.law, self.p.n1)
        report = self.stats.moment_report(v, self.p.n1, self.p.n2)
        return seed, result, report

    def check(self, i, out):
        seed, result, report = out
        np = self.np
        counts = result.counts
        if counts.shape != (self.BLOCK, self.Q):
            return "census matrix has shape %r" % (counts.shape,)
        if (counts < 0).any() or (result.tail_counts < 0).any():
            return "negative component count"
        if counts[:, 0].any():
            return "size-1 component in a simple graph"
        sizes = counts @ np.arange(1, self.Q + 1)
        if (sizes > self.p.n1 + self.p.n2).any():
            return "marked components exceed the vertex count"
        if not (np.isfinite(report.empirical_mean).all() and np.isfinite(report.empirical_cov).all()):
            return "non-finite moments"
        with open(self.csv_path) as fh:
            lines = fh.read().splitlines()
        table = np.array([[int(x) for x in line.split(",")] for line in lines[1:]])
        if table.shape != (self.BLOCK, self.Q + 2) or (table[:, 1:-1] != counts).any() \
                or (table[:, -1] != result.tail_counts).any():
            return "CSV differs from the census matrix"
        with open(self.csv_path + ".meta.json") as fh:
            meta = json.load(fh)
        if meta["n_reps"] != self.BLOCK or meta["seed"] != seed or meta["workers"] != 1:
            return "sidecar does not describe the block"
        return None

    def collect(self, out):
        self.rows.append(out[1].counts)

    def gate(self):
        counts = self.np.concatenate(self.rows)[: self.GATE_ROWS]
        return gaussian_gate(counts, self.law, self.p.n1, self.p.n2)


class McSmallGof(Workload):
    """W2: the tiny instances of checks 10 and 11; one op draws a block from
    each instance in turn."""

    name = "mc_small_gof"
    INSTANCES = (
        ("simple", 4, 4, 8),
        ("multigraph", 2, 4, 6),
        ("multigraph", 4, 3, 7),
        ("simple", 8, 6, 4),
        ("multigraph", 8, 6, 4),
    )
    DRAWS = 40  # per instance and op
    min_ops = 25
    trace_ops = 250
    graphs_per_op = DRAWS * len(INSTANCES)

    def params(self):
        return {"instances": [list(x) for x in self.INSTANCES], "draws_per_instance_and_op": self.DRAWS}

    def setup(self):
        import numpy as np
        from degseq import exact, sampler

        self.np, self.sampler = np, sampler
        self.oracles = {}
        for model, n1, n2, q in self.INSTANCES:
            params = exact.GraphClassParams(n1, n2, q=q, model=model)
            if model == "multigraph" and n1 < 8:
                oracle = exact.brute_force_multigraph(params)
                probs = {k: c / oracle.total for k, c in oracle.poly.terms.items()}
            else:
                probs = exact.joint_pmf(params)
            self.oracles[(model, n1, n2, q)] = probs
        self.observed = {key: Counter() for key in self.oracles}

    def op(self, i):
        np = self.np
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, i])))
        return [(key, self.draw_block(key, rng)) for key in self.INSTANCES]

    def draw_block(self, key, rng):
        model, n1, n2, q = key
        sampler = self.sampler
        draw = sampler.sample_simple if model == "simple" else sampler.sample_multigraph
        structural = n1 == 8
        graphs = []
        for _ in range(self.DRAWS):
            g = draw(n1, n2, rng)
            c = sampler.census(g, q)
            error = comp = None
            if structural:
                try:
                    sampler.validate_structure(g)
                except sampler.StructuralError as exc:
                    error = str(exc)
                comp = sampler.compensation_factor(g)
            graphs.append((c.counts, c.component_sizes_sum, c.path_components,
                           g.loop_count + g.double_edge_count, comp, error))
        return graphs

    def check(self, i, out):
        if [key for key, _ in out] != list(self.INSTANCES):
            return "op did not draw every instance"
        for key, graphs in out:
            problem = self.check_block(key, graphs)
            if problem is not None:
                return "%s: %s" % ("/".join(map(str, key)), problem)
        return None

    def check_block(self, key, graphs):
        model, n1, n2, q = key
        support = self.oracles[key]
        if len(graphs) != self.DRAWS:
            return "drew %d graphs" % len(graphs)
        for counts, sizes_sum, paths, defects, comp, error in graphs:
            if error is not None:
                return "validate_structure: " + error
            if sizes_sum != n1 + n2 or paths != n1 // 2:
                return "census sizes %d / paths %d" % (sizes_sum, paths)
            if counts not in support:
                return "census %r outside the exact support" % (counts,)
            if model == "simple" and defects:
                return "rejection sampler returned a non-simple graph"
            if comp is not None and not (0 < comp <= 1 and (comp == 1) == (defects == 0)):
                return "compensation factor %s" % comp
        return None

    def collect(self, out):
        for key, graphs in out:
            self.observed[key].update(g[0] for g in graphs)

    def gate(self):
        return gof_gate(self.observed, self.oracles)


class ExactCensus(Workload):
    """W3: ``degseq exact --n1 20 --n2 20 --q 4`` in-process, then the scalar
    census value at n1=320."""

    name = "exact_census"

    def params(self):
        return {"cli": ["exact", "--n1", "20", "--n2", "20", "--q", "4"],
                "graph_gf_value": {"n1": 320, "n2": 160, "q": 2}}

    def setup(self):
        from degseq import cli, exact

        self.cli, self.exact = cli, exact
        self.json_path = os.path.join(self.out_dir, "exact_census.json")
        self.value_params = exact.GraphClassParams(320, 160, q=2)
        self.total_ref = exact.graph_gf_value(exact.GraphClassParams(20, 20, q=4))
        self.pins = SPEC["exact_census_sha256"]

    def op(self, i):
        code = self.cli.main(["exact", "--n1", "20", "--n2", "20", "--q", "4",
                              "--out", self.json_path])
        with open(self.json_path, "rb") as fh:
            blob = fh.read()
        return code, blob, self.exact.graph_gf_value(self.value_params)

    def check(self, i, out):
        code, blob, value = out
        return check_exact_outputs(code, blob, value, self.total_ref, self.pins)


def check_exact_outputs(code, blob, value, total_ref, pins):
    if code != 0:
        return "degseq exact exited %d" % code
    if sha256_hex(blob) != pins["cli_json"]:
        return "CLI JSON differs from the pinned digest"
    if sha256_hex(fraction_bytes(value)) != pins["graph_gf_value_320"]:
        return "graph_gf_value(320) differs from the pinned digest"
    total = json.loads(blob)["total"]
    if Fraction(total["num"], total["den"]) != total_ref:
        return "graph_gf total differs from graph_gf_value"
    return None


U_TILTED = (1.0, 1.1, 0.9, 1.05)
U_TILTED_EXACT = (Fraction(1), Fraction(11, 10), Fraction(9, 10), Fraction(21, 20))


def grid_key(model, alpha, n1, u_name):
    return "%s/%g/%d/%s" % (model, alpha, n1, u_name)


class AsymSweep(Workload):
    """W4: the work of ``degseq asymptote`` over a fixed grid, one point per
    op, in seed-shuffled whole sweeps."""

    name = "asym_sweep"
    Q, POINTS = 4, 1024
    GRID = tuple(
        (model, alpha, n1, u_name)
        for model in ("simple", "multigraph")
        for alpha in (0.5, 1.0, 2.0)
        for n1 in (20, 80, 320, 1280, 2000)
        for u_name in ("ones", "tilted")
    )
    period = len(GRID)
    min_ops = len(GRID)
    trace_ops = 10 * len(GRID)

    def params(self):
        return {"models": ["simple", "multigraph"], "alpha": [0.5, 1, 2],
                "n1": [20, 80, 320, 1280, 2000], "u": {"ones": [1.0] * 4, "tilted": list(U_TILTED)},
                "q": self.Q, "points": self.POINTS}

    def setup(self):
        import numpy as np
        from degseq import asymptotics, exact

        self.np, self.asym, self.exact = np, asymptotics, exact
        self.known = set(SPEC["asym_sweep_baseline_failures"])
        self.orders = {}
        self.refs = {}
        for model, alpha, n1, u_name in self.GRID:
            if n1 <= 80:
                p = self._params(model, alpha, n1)
                u = None if u_name == "ones" else U_TILTED_EXACT
                value = exact.graph_gf_value(p, u) / exact.v_factor(p.n1, p.n2)
                self.refs[grid_key(model, alpha, n1, u_name)] = float(value)

    def _params(self, model, alpha, n1):
        return self.exact.GraphClassParams(n1, int(math.floor(alpha * n1 / 2)), q=self.Q, model=model)

    def point(self, i):
        sweep, pos = divmod(i, len(self.GRID))
        order = self.orders.get(sweep)
        if order is None:
            rng = self.np.random.default_rng(self.np.random.SeedSequence([self.seed, sweep]))
            order = self.orders[sweep] = rng.permutation(len(self.GRID)).tolist()
        return self.GRID[order[pos]]

    def op(self, i):
        model, alpha, n1, u_name = self.point(i)
        p = self._params(model, alpha, n1)
        u = [1.0] * self.Q if u_name == "ones" else list(U_TILTED)
        sd = self.asym.saddle_data(p.alpha, u, model)
        return {
            "key": grid_key(model, alpha, n1, u_name),
            "n1": p.n1,
            "n2": p.n2,
            "saddle": (sd.zeta, sd.phi2, sd.a0, sd.path_at_zeta),
            "log_gf_estimate": self.asym.asymptotic_log_gf(p, u),
            "coefficient_estimate": self.asym.contour_extract(p, u, points=self.POINTS),
        }

    def check(self, i, out):
        return check_asym_output(out, self.refs.get(out["key"]))

    def known_failure(self, i):
        return grid_key(*self.point(i)) in self.known


def log_v_factor(n1, n2):
    k = n1 // 2
    return math.lgamma(n1 + n2 + 1) - k * math.log(2.0) - math.lgamma(k + 1)


def check_asym_output(out, exact_ref):
    """Every output finite; the contour matches the exact coefficient at small
    n1 and the Laplace estimate at large n1."""
    values = list(out["saddle"]) + [out["log_gf_estimate"], out["coefficient_estimate"]]
    if not all(math.isfinite(x) for x in values):
        return "non-finite output"
    coeff = out["coefficient_estimate"]
    if exact_ref is not None:
        rel = abs(coeff / exact_ref - 1.0)
        if not rel <= CONTOUR_REL_TOL:
            return "contour off the exact coefficient by %.3g relative" % rel
    elif out["n1"] >= 320:
        if coeff <= 0:
            return "non-positive contour coefficient"
        gap = abs(math.log(coeff) + log_v_factor(out["n1"], out["n2"]) - out["log_gf_estimate"])
        if not gap <= LAPLACE_LOG_TOL:
            return "contour and Laplace logs differ by %.3g" % gap
    return None


WORKLOADS = {w.name: w for w in (McGauss, McSmallGof, ExactCensus, AsymSweep)}
