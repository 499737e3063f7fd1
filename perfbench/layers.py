"""Per-layer metrics: tracer hooks and the derivation of each metric by name.

Each metric's comment names the end-to-end metric it should move and on
which workload; the benchmark's README.md carries the same map.
"""

from __future__ import annotations

CLI_VERBS = (
    "eval-gauss",
    "eval-kloosterman",
    "density",
    "count",
    "verify-asymptotic",
    "expsum-scan",
    "tau",
    "singular-series",
    "quad-count",
    "selftest",
)

COST_KEYS = ("axis_points", "convolutions", "outer_points", "root_solves", "kernel_evals")

# (name, unit, better): counts of work and seconds are better lower.
PER_LAYER = (
    # wall_s on charsum-sweep
    ("modmath.sqrt_classes.calls", "count", "lower"),
    ("modmath.jacobi.calls", "count", "lower"),
    ("modmath.invmod.calls", "count", "lower"),
    ("modmath.self_s", "s", "lower"),
    # wall_s on charsum-sweep, and on six-square-count through the spectral sum
    ("charsums.gauss_closed.calls", "count", "lower"),
    ("charsums.gauss_closed.us_per_call", "us", "lower"),
    ("charsums.kloosterman_salie_closed.calls", "count", "lower"),
    ("charsums.kloosterman_salie_closed.us_per_call", "us", "lower"),
    ("charsums.F_closed.calls", "count", "lower"),
    ("charsums.brute.self_s", "s", "lower"),
    ("charsums.self_s", "s", "lower"),
    # wall_s on six-square-count (spectral main term)
    ("densities.count_B_m.calls", "count", "lower"),
    ("densities.count_B_m.self_s", "s", "lower"),
    ("densities.exact_convolutions", "count", "lower"),
    ("densities.self_s", "s", "lower"),
    # wall_s on six-square-count and cli-readme
    ("counting.direct.self_s", "s", "lower"),
    ("counting.spectral.self_s", "s", "lower"),
    *((f"counting.cost.{key}", "count", "lower") for key in COST_KEYS),
    # setup_s on every workload, wall_s on cli-readme
    ("counting.weight_tables_s", "s", "lower"),
    ("counting.weight_evals", "count", "lower"),
    # accuracy_digits on six-square-count
    ("counting.direct_spectral_gap", "ratio", "lower"),
    ("counting.imag_residual", "ratio", "lower"),
    ("counting.self_s", "s", "lower"),
    # wall_s on scan-and-series
    ("sqrt_expsums.rows", "count", "lower"),
    ("sqrt_expsums.terms", "count", "lower"),
    ("sqrt_expsums.self_s", "s", "lower"),
    ("sqrt_expsums.terms_per_s", "1/s", "higher"),
    ("sqrt_expsums.thread_speedup", "ratio", "higher"),
    ("representations.singular_coefficient.self_s", "s", "lower"),
    ("representations.tau_n.self_s", "s", "lower"),
    ("representations.quadruple_count.self_s", "s", "lower"),
    ("representations.singular_integral.self_s", "s", "lower"),
    ("representations.self_s", "s", "lower"),
    # no time effect: does the budget predict the work?
    ("errors.charge.calls", "count", "lower"),
    ("errors.est_ops", "count", "lower"),
    ("errors.est_ops_per_s", "1/s", "higher"),
    ("errors.default_budget_refusals", "count", "lower"),
    # wall_s and setup_s on cli-readme
    *((f"cli.process_s.{verb}", "s", "lower") for verb in CLI_VERBS),
    ("cli.main.self_s", "s", "lower"),
    # traced wall_s over untraced wall_s, to discount the numbers above
    ("trace.overhead", "ratio", "lower"),
)


def hooks(errors_module) -> dict:
    """Tracer hooks that turn library calls into counters."""
    default_budget = errors_module.DEFAULT_BUDGET

    def charge_pre(tracer, args, kwargs):
        cost = args[0] if args else kwargs["cost"]
        tracer.add("errors.est_ops", cost)
        tracer.add_to_span("est_ops", cost)
        if cost > default_budget:
            tracer.add("errors.default_budget_refusals", 1)

    def count_post(tracer, args, kwargs, report):
        for key in COST_KEYS:
            if key in report.cost:
                tracer.add(f"counting.cost.{key}", report.cost[key])

    def root_sum_post(tracer, args, kwargs, value):
        ps = args[0] if args else kwargs["params"]
        k0 = ps.b % ps.c or ps.c
        tracer.add("sqrt_expsums.terms", len(range(k0, ps.K + 1, ps.c)))

    return {
        "errors.charge": (charge_pre, None),
        "counting.count_weighted_direct": (None, count_post),
        "counting.count_weighted_spectral": (None, count_post),
        "sqrt_expsums.sqrt_root_sum": (None, root_sum_post),
    }


def span_counters(spans: list[dict]) -> dict[str, float]:
    """Charged estimates and the seconds of the spans that charged them."""
    est = secs = 0.0
    for span in spans:
        ops = span.get("counters", {}).get("est_ops")
        if ops:
            est += ops
            secs += span["end"] - span["start"]
    return {"errors.span_est_ops": est, "errors.span_seconds": secs}


def derive(aggs: dict[str, list], counters: dict[str, float], stats: dict) -> dict[str, float]:
    """Every per-layer metric except the cli.process_s and trace ones."""

    def calls(*names):
        return sum(aggs.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(aggs.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(*names):
        return sum(aggs.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer_self(layer):
        return sum(v[2] for n, v in aggs.items() if n.startswith(layer + "."))

    def per_call_us(*names):
        n = calls(*names)
        return 1e6 * total(*names) / n if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    closed_ks = ("charsums.kloosterman_closed", "charsums.salie_closed")
    out = {
        "modmath.sqrt_classes.calls": calls("modmath.sqrt_classes_mod_prime_power"),
        "modmath.jacobi.calls": calls("modmath.jacobi_symbol"),
        "modmath.invmod.calls": calls("modmath.invmod"),
        "modmath.self_s": layer_self("modmath"),
        "charsums.gauss_closed.calls": calls("charsums.gauss_sum_closed"),
        "charsums.gauss_closed.us_per_call": per_call_us("charsums.gauss_sum_closed"),
        "charsums.kloosterman_salie_closed.calls": calls(*closed_ks),
        "charsums.kloosterman_salie_closed.us_per_call": per_call_us(*closed_ks),
        "charsums.F_closed.calls": calls("charsums.F_closed"),
        "charsums.brute.self_s": sum(v[2] for n, v in aggs.items() if n.startswith("charsums.") and "bruteforce" in n),
        "charsums.self_s": layer_self("charsums"),
        "densities.count_B_m.calls": calls("densities.count_B_m"),
        "densities.count_B_m.self_s": self_s("densities.count_B_m"),
        "densities.exact_convolutions": calls("densities.cyclic_convolution_exact"),
        "densities.self_s": layer_self("densities"),
        "counting.direct.self_s": self_s("counting.count_weighted_direct"),
        "counting.spectral.self_s": self_s("counting.count_weighted_spectral"),
        "counting.weight_tables_s": total("counting._bump_tables"),
        "counting.weight_evals": calls("counting.weight_eval", "counting.weight_fourier"),
        "counting.direct_spectral_gap": stats.get("direct_spectral_gap", 0.0),
        "counting.imag_residual": stats.get("imag_residual", 0.0),
        "counting.self_s": layer_self("counting"),
        "sqrt_expsums.rows": calls("sqrt_expsums.sqrt_root_sum"),
        "sqrt_expsums.terms": counters.get("sqrt_expsums.terms", 0),
        "sqrt_expsums.self_s": layer_self("sqrt_expsums"),
        "sqrt_expsums.terms_per_s": ratio(
            counters.get("sqrt_expsums.terms", 0), total("sqrt_expsums.sqrt_root_sum")
        ),
        "sqrt_expsums.thread_speedup": stats.get("thread_speedup", 0.0),
        "representations.singular_coefficient.self_s": self_s("representations.singular_coefficient"),
        "representations.tau_n.self_s": self_s("representations.tau_n"),
        "representations.quadruple_count.self_s": self_s("representations.quadruple_count"),
        "representations.singular_integral.self_s": self_s("representations.singular_integral"),
        "representations.self_s": layer_self("representations"),
        "errors.charge.calls": calls("errors.charge"),
        "errors.est_ops": counters.get("errors.est_ops", 0),
        "errors.est_ops_per_s": ratio(
            counters.get("errors.span_est_ops", 0), counters.get("errors.span_seconds", 0)
        ),
        "errors.default_budget_refusals": counters.get("errors.default_budget_refusals", 0),
        "cli.main.self_s": self_s("cli.main"),
    }
    for key in COST_KEYS:
        out[f"counting.cost.{key}"] = counters.get(f"counting.cost.{key}", 0)
    return out
