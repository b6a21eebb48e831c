"""Component-count distributions of random graphs with all degrees 1 or 2,
by three cross-validating pipelines: exact census polynomials over the
rationals with brute-force oracles (exact), saddle-point estimates, contour
extraction and the Gaussian/Poisson limit law (asymptotics), and
configuration-model Monte Carlo with moment and goodness-of-fit verdicts
(sampler, stats).

The namespace is lazy (PEP 562): ``degseq.<name>`` imports the submodule that
defines the name and is never cached here, so a wrapper installed on the
submodule is always seen.  ``import degseq.cli`` and ``degseq exact`` load
neither numpy nor scipy, nor dataclasses and inspect (the exact records are
plain classes), and ``degseq exact`` loads no degseq module but
cli, errors and exact: the reference modules series and unionfind are
loaded only by the MPoly view of a census and the brute-force oracles, and
``asymptote`` loads neither; ``limit-law``, ``sample``, ``asymptote`` and
``verify`` load numpy, and the one scipy piece, scipy.special, is imported
inside stats.chi_square_gof, so ``limit-law``, ``sample`` and ``asymptote``
load no scipy (tests/test_import_policy.py).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ConvergenceError", "DegseqError", "DomainError", "EmptyClassError",
               "StructuralError"),
    "exact": ("CensusPolynomial", "GraphClassParams", "brute_force_multigraph",
              "brute_force_simple", "census_to_json", "class_is_empty",
              "graph_gf", "graph_gf_value", "joint_pmf", "v_factor"),
    "asymptotics": ("LimitLaw", "SaddleData", "asymptotic_log_gf", "contour_extract",
                    "gradient_chi", "hessian_H", "limit_law", "saddle_data", "solve_zeta"),
    "sampler": ("ComponentCensus", "ExperimentResult", "StubMultigraph", "census",
                "compensation_factor", "run_experiment", "sample_multigraph", "sample_simple",
                "validate_structure", "write_samples_csv"),
    "series": ("MPoly", "TruncatedSeries", "build_cycle_series", "build_path_series"),
    "stats": ("MomentReport", "Verdict", "chi_square_gof", "gaussian_check", "moment_report",
              "poisson_check", "psd_check", "standardize"),
    "unionfind": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name in _HOME:
        return getattr(importlib.import_module("." + _HOME[name], __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
