"""Per-layer metrics of a traced pass, read from a ``Tracer.summary``.

Each ``*_s`` metric is the inclusive time of the named spans per pass, except
``verify.count_s`` (self time of the counting stage: block sampling and X
evaluation are its children) and ``<layer>.self_s`` (self time of all spans of
that layer).  ``pearson.sample_*`` and, on ``chaos_sandwich``,
``chaos.margin_s`` time public calls on the op's own inputs outside the
traced pass, because ``verify`` reaches those layers only through private
helpers.  A metric of a layer the workload does not load reads 0.
"""

from __future__ import annotations

SAMPLE_CASES = {"Gamma": "gamma", "Beta": "beta", "InverseGammaType": "invgamma", "NoRealRoots": "case5"}


def _per_cert(s, eq):
    certs = s["counts"]["stein.certify.calls"]
    return s["counts"]["stein.pearson_grid_calls_in_cert"] / certs if certs else 0.0


# (name, unit, better, value from (summary, public-equivalent timings))
PER_LAYER = [
    ("bounds.implicit_s", "s", "lower", lambda s, eq: s["incl"]["bounds.implicit"]),
    ("bounds.implicit_calls", "count", "lower", lambda s, eq: s["counts"]["bounds.implicit.calls"]),
    ("bounds.implicit_integrand_evals", "count", "lower",
     lambda s, eq: s["counts"]["bounds.implicit_integrand_evals"]),
    ("chaos.tail_s", "s", "lower", lambda s, eq: s["incl"]["chaos.tail"]),
    ("chaos.tail_calls", "count", "lower", lambda s, eq: s["counts"]["chaos.tail.calls"]),
    ("chaos.brent_solves", "count", "lower", lambda s, eq: s["counts"]["chaos.brent_solves"]),
    ("chaos.brent_evals", "count", "lower", lambda s, eq: s["counts"]["chaos.brent_evals"]),
    ("quadrature.adaptive_calls", "count", "lower", lambda s, eq: s["counts"]["quadrature.adaptive.calls"]),
    ("quadrature.adaptive_evals", "count", "lower", lambda s, eq: s["counts"]["quadrature.adaptive_evals"]),
    ("quadrature.adaptive_s", "s", "lower", lambda s, eq: s["incl"]["quadrature.adaptive"]),
    ("quadrature.panel_calls", "count", "lower", lambda s, eq: s["counts"]["quadrature.panel.calls"]),
    ("quadrature.panel_s", "s", "lower", lambda s, eq: s["incl"]["quadrature.panel"]),
    ("pearson.sample_s", "s", "lower", lambda s, eq: eq["pearson.sample"]),
    *((f"pearson.sample_ns_per_draw.{case}", "ns", "lower",
       lambda s, eq, case=case: eq[f"pearson.sample_ns_per_draw.{case}"])
      for case in SAMPLE_CASES.values()),
    ("rng.draws", "count", "lower", lambda s, eq: s["counts"]["rng.draws"]),
    ("rng.s", "s", "lower", lambda s, eq: s["incl"]["rng.block"]),
    ("verify.count_s", "s", "lower", lambda s, eq: s["self"]["verify.count"]),
    ("verify.certify_s", "s", "lower", lambda s, eq: s["incl"]["verify.certify"]),
    ("stein.solve_s", "s", "lower", lambda s, eq: s["incl"]["stein.solve"]),
    ("stein.cert_grid_s", "s", "lower", lambda s, eq: s["incl"]["stein.cert_grid"]),
    ("stein.certify_s", "s", "lower", lambda s, eq: s["incl"]["stein.certify"]),
    ("stein.pearson_grid_calls_per_cert", "count", "lower", _per_cert),
    ("pearson.grid_s", "s", "lower", lambda s, eq: s["incl"]["pearson.grid"]),
    ("pearson.quantile_s", "s", "lower", lambda s, eq: s["incl"]["pearson.quantile"]),
    ("pearson.quantile_calls", "count", "lower", lambda s, eq: s["counts"]["pearson.quantile.calls"]),
    ("pearson.brent_solves", "count", "lower", lambda s, eq: s["counts"]["pearson.brent_solves"]),
    ("chaos.margin_s", "s", "lower", lambda s, eq: s["incl"]["chaos.margin"] + eq["chaos.margin"]),
    ("chaos.kernel_s", "s", "lower", lambda s, eq: s["incl"]["chaos.kernel"]),
    *((f"{layer}.self_s", "s", "lower", lambda s, eq, layer=layer: s["layer_self"][layer])
      for layer in ("pearson", "stein", "bounds", "chaos", "verify", "rng", "quadrature")),
]

# filled from the set-up phase and from traced versus untraced passes
EXTRA = [
    ("pearson.build_law_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    return [(name, unit, better) for name, unit, better, _ in PER_LAYER] + EXTRA
