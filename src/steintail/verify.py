"""Scenario harness: assemble a variable, a reference law, and a dominance
hypothesis into per-threshold tail verdicts.

A scenario fixes a model for X (a polynomial chaos variable with an exact law,
or a quadratic-kernel law), a reference coefficient triple, a z grid, and a
sample budget.  The runner certifies the dominance hypothesis exactly, over the
whole support of X, through one polynomial margin routine for both models
(``chaos.margin_extrema``, docs/DECISIONS.md decision 7), draws reproducible
counter-based samples, and compares the empirical survival function, wrapped
in its Dvoretzky-Kiefer-Wolfowitz band, against the certified bounds.

Two policies keep the verdicts honest: the explicit large-z bounds are only
asserted past the regime threshold 10 sqrt(variance) (below it they are
informational and can at worst yield "inconclusive"), and once the expected
tail count n * S(z) drops under 100 the empirical estimate is replaced by the
exact tail (relative Monte-Carlo error explodes out there).
"""

from __future__ import annotations

import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from . import bounds, chaos, pearson, rng
from .chaos import HermiteSeries
from .errors import DomainError, InsufficientRangeError, UncertifiedHypothesisError
from .pearson import PearsonCoefficients, PearsonLaw, build_law

__all__ = [
    "Hypothesis",
    "ScenarioSpec",
    "TailReport",
    "Verdict",
    "dkw_half_width",
    "empirical_tail",
    "run_scenario",
    "slope_estimate",
    "scenario_from_json",
    "scenario_to_json",
]

DEEP_TAIL_MIN_COUNT = 100.0
MARGIN_TOL = 1e-9


class Hypothesis(str, Enum):
    DOMINATES_LOWER = "DominatesLower"
    DOMINATED_UPPER = "DominatedUpper"
    SANDWICH = "Sandwich"


@dataclass(frozen=True)
class ScenarioSpec:
    x_model: Union[HermiteSeries, PearsonLaw]
    reference: PearsonCoefficients
    hypothesis: Hypothesis
    z_grid: tuple[float, ...]
    n_samples: int
    seed: int
    confidence: float = 0.99
    reference_upper: Optional[PearsonCoefficients] = None
    c_lower: float = 4.0
    k_upper: Optional[float] = None

    def __post_init__(self):
        if self.n_samples < 10_000:
            raise DomainError(f"scenario needs n_samples >= 10^4, got {self.n_samples}")
        if not 0.0 < self.confidence < 1.0:
            raise DomainError(f"confidence must be in (0,1), got {self.confidence}")
        zs = tuple(float(z) for z in self.z_grid)
        object.__setattr__(self, "z_grid", zs)
        if any(b <= a for a, b in zip(zs, zs[1:])) or not zs:
            raise DomainError("z_grid must be nonempty and strictly increasing")
        _, b = pearson.support(self.reference)
        if zs[0] <= 0.0 or zs[-1] >= b:
            raise DomainError(f"z_grid must lie in (0, b) = (0, {b})")

    @property
    def upper_coeffs(self) -> PearsonCoefficients:
        return self.reference_upper if self.reference_upper is not None else self.reference


def dkw_half_width(n: int, confidence: float) -> float:
    """Uniform band half-width sqrt(ln(2/(1-confidence)) / (2n))."""
    if n < 1 or not 0.0 < confidence < 1.0:
        raise DomainError("need n >= 1 and confidence in (0,1)")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))


def empirical_tail(samples, z_grid, confidence: float = 0.99) -> tuple[np.ndarray, float]:
    """Empirical survival function on the grid and its DKW half-width."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise DomainError("empirical_tail needs at least one sample")
    counts = _exceedances(samples, np.asarray(z_grid, dtype=float))
    return counts / samples.size, dkw_half_width(samples.size, confidence)


# ---------------------------------------------------------------------------
# the report


class Verdict(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TailReport:
    """Per-z certificates, empirical tails, and verdicts for one scenario."""

    z_grid: tuple[float, ...]
    phi_star: tuple[float, ...]
    lower_cert: tuple[float, ...]
    upper_cert: tuple[float, ...]
    empirical: tuple[float, ...]
    ci_half_width: float
    verdicts: tuple[str, ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        n = len(self.z_grid)
        for name in ("phi_star", "lower_cert", "upper_cert", "empirical", "verdicts"):
            if len(getattr(self, name)) != n:
                raise DomainError(f"TailReport field {name} length mismatch")
        if any(b >= a for a, b in zip(self.phi_star, self.phi_star[1:])):
            raise DomainError("phi_star must be strictly decreasing along the grid")

    @property
    def all_passed(self) -> bool:
        return all(v != Verdict.FAIL.value for v in self.verdicts)

    def to_csv(self) -> str:
        lines = ["z,phi_star,lower,upper,empirical,ci,verdict"]
        for i, z in enumerate(self.z_grid):
            lines.append(
                f"{z!r},{self.phi_star[i]!r},{self.lower_cert[i]!r},{self.upper_cert[i]!r},"
                f"{self.empirical[i]!r},{self.ci_half_width!r},{self.verdicts[i]}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "z": list(self.z_grid),
            "phi_star": list(self.phi_star),
            "lower": list(self.lower_cert),
            "upper": list(self.upper_cert),
            "empirical": list(self.empirical),
            "ci": self.ci_half_width,
            "verdicts": list(self.verdicts),
            "meta": self.meta,
        })


# ---------------------------------------------------------------------------
# hypothesis certification


def _certify(spec: ScenarioSpec) -> dict:
    """Exact margins of the dominance hypothesis over the whole support of X; raises if one fails.

    A chaos X gives the polynomials X(n) and G(n) on the line, a Pearson X
    gives x and its own kernel g_X(x) on its support; both go through
    ``chaos.margin_extrema``.
    """
    x = spec.x_model
    if isinstance(x, HermiteSeries):
        x_poly, g_poly, domain = x.to_polynomial().coeffs, chaos.malliavin_G(x).coeffs, (-math.inf, math.inf)
    else:
        c = x.coeffs
        x_poly, g_poly, domain = (0.0, 1.0), (c.gamma, c.beta, c.alpha), (x.support_a, x.support_b)
    info = {}
    if spec.hypothesis in (Hypothesis.DOMINATES_LOWER, Hypothesis.SANDWICH):
        res = chaos.margin_extrema(x_poly, g_poly, spec.reference, domain)
        info["lower_margin"] = res["min"]
        if res["min"] < -MARGIN_TOL:
            raise UncertifiedHypothesisError(
                f"G >= g(X) fails: margin {res['min']} at {res['argmin']}")
    if spec.hypothesis in (Hypothesis.DOMINATED_UPPER, Hypothesis.SANDWICH):
        res = chaos.margin_extrema(x_poly, g_poly, spec.upper_coeffs, domain)
        info["upper_margin"] = res["max"]
        if res["max"] > MARGIN_TOL:
            raise UncertifiedHypothesisError(
                f"G <= g_upper(X) fails: margin {res['max']} at {res['argmax']}")
    return info


# ---------------------------------------------------------------------------
# block sampling


def _block_sampler(spec: ScenarioSpec) -> tuple[Callable[[int, int], np.ndarray], Callable]:
    """Per-block sampler and the X model's exact y -> (P[X > y], E[X; X > y], E[X^2; X > y]).

    The moments are memoized: the runner reads them at each z, and the
    implicit bound reads them at z and at the reference's right end again.
    """
    if isinstance(spec.x_model, HermiteSeries):
        series = spec.x_model
        sample = lambda b, size: series.evaluate(rng.normal_block(spec.seed, b, size))
        moments = chaos.law_of_polynomial(series).partial_moments
    else:
        x_law = spec.x_model
        sample = lambda b, size: pearson.quantile_grid(x_law, rng.uniform_block(spec.seed, b, size))
        moments = lambda y: pearson.partial_moments(x_law, y)
    return sample, functools.cache(moments)


def _exceedances(xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Number of xs above each z: one pass over the draws per threshold, no block x z matrix."""
    return np.array([np.count_nonzero(xs > z) for z in zs], dtype=np.int64)


def _tail_counts(sample_block: Callable[[int, int], np.ndarray], n: int, zs: np.ndarray,
                 n_workers: int) -> np.ndarray:
    """Exceedance counts of n draws per grid point, summed over the blocks."""
    bs = rng.BLOCK_SIZE
    blocks = list(range(rng.n_blocks(n)))
    sizes = [min(bs, n - b * bs) for b in blocks]

    def one(b: int) -> np.ndarray:
        return _exceedances(sample_block(b, sizes[b]), zs)

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as ex:
            parts = list(ex.map(one, blocks))
    else:
        parts = [one(b) for b in blocks]
    return np.sum(parts, axis=0, dtype=np.int64)  # integer sums: exact in any order


# ---------------------------------------------------------------------------
# the runner


def run_scenario(spec: ScenarioSpec, n_workers: int = 1) -> TailReport:
    """Execute the scenario and return the per-threshold report."""
    ref_law = build_law(spec.reference)
    upper_law = build_law(spec.upper_coeffs)
    cert_info = _certify(spec)

    sample_block, x_moments = _block_sampler(spec)
    zs = np.asarray(spec.z_grid)
    counts = _tail_counts(sample_block, spec.n_samples, zs, n_workers)
    emp = counts / spec.n_samples
    eps = dkw_half_width(spec.n_samples, spec.confidence)

    check_lower = spec.hypothesis in (Hypothesis.DOMINATES_LOWER, Hypothesis.SANDWICH)
    check_upper = spec.hypothesis in (Hypothesis.DOMINATED_UPPER, Hypothesis.SANDWICH)
    z_min_lower = bounds.regime_threshold(spec.reference)
    z_min_upper = bounds.regime_threshold(spec.upper_coeffs)
    k_upper = spec.k_upper
    if k_upper is None and check_upper:
        k_upper = 2.0 * bounds.pearson_upper_constant(spec.upper_coeffs.alpha)

    phi_star, lower_cert, upper_cert, verdicts = [], [], [], []
    deep_flags, exact_tail = [], []
    for i, z in enumerate(spec.z_grid):
        phi_star.append(pearson.tail(ref_law, z))
        s_exact = x_moments(z)[0]
        exact_tail.append(s_exact)
        deep = s_exact * spec.n_samples < DEEP_TAIL_MIN_COUNT
        deep_flags.append(deep)
        s_hi = s_exact if deep else emp[i] + eps
        s_lo = s_exact if deep else max(emp[i] - eps, 0.0)

        misses = []  # (bound missed, asserted): an asserted miss fails, any other is inconclusive
        low_val = -math.inf
        if check_lower:
            ilb = bounds.implicit_lower_bound(ref_law, x_moments, z)
            plb, _ = bounds.pearson_lower(ref_law, z, spec.c_lower)
            low_val = max(ilb, plb) if z >= z_min_lower else ilb
            misses += [(s_hi < ilb, True), (s_hi < plb, z >= z_min_lower)]
        lower_cert.append(low_val)

        up_val = math.nan
        if check_upper:
            up_val = k_upper * pearson.tail(upper_law, z)
            misses.append((s_lo > up_val, z >= z_min_upper))
        upper_cert.append(up_val)

        if any(missed and asserted for missed, asserted in misses):
            verdicts.append(Verdict.FAIL.value)
        elif any(missed for missed, _ in misses):
            verdicts.append(Verdict.INCONCLUSIVE.value)
        else:
            verdicts.append(Verdict.PASS.value)

    meta = {
        "scenario": json.loads(scenario_to_json(spec)),
        "certification": cert_info,
        "k_upper": k_upper,
        "c_lower": spec.c_lower,
        "z_min_lower": z_min_lower if check_lower else None,
        "z_min_upper": z_min_upper if check_upper else None,
        "deep_tail": deep_flags,
        "exact_tail_x": exact_tail,
    }
    return TailReport(
        z_grid=spec.z_grid,
        phi_star=tuple(phi_star),
        lower_cert=tuple(lower_cert),
        upper_cert=tuple(upper_cert),
        empirical=tuple(float(e) for e in emp),
        ci_half_width=eps,
        verdicts=tuple(verdicts),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# slope fits


def slope_estimate(z_grid, log_tail, mode: str, p: float = 0.0) -> float:
    """Least-squares slope of the log tail in the requested scale.

    loglog: ln S vs ln z (limit -(1 + 1/alpha)); loglinear: ln S vs z (limit
    -1/beta); stretched: ln S vs z^(2-p) (limit -1/(beta (2-p))).  The grid
    must span at least one decade.
    """
    zs = np.asarray(z_grid, dtype=float)
    ys = np.asarray(log_tail, dtype=float)
    if zs.size != ys.size or zs.size < 3:
        raise DomainError("need matching grids with at least 3 points")
    if np.any(zs <= 0.0):
        raise DomainError("slope grids must be positive")
    if zs.max() / zs.min() < 10.0 * (1.0 - 1e-12):
        raise InsufficientRangeError(
            f"grid spans {zs.max() / zs.min():.3g}x, need at least one decade")
    mode = mode.lower()
    if mode == "loglog":
        xs = np.log(zs)
    elif mode == "loglinear":
        xs = zs
    elif mode == "stretched":
        if not 0.0 <= p < 2.0:
            raise DomainError(f"stretched mode needs 0 <= p < 2, got {p}")
        xs = zs ** (2.0 - p)
    else:
        raise DomainError(f"unknown slope mode {mode!r}")
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# scenario (de)serialization


def scenario_to_json(spec: ScenarioSpec) -> str:
    if isinstance(spec.x_model, HermiteSeries):
        x_obj = {"type": "hermite", "coeffs": list(spec.x_model.coeffs)}
    else:
        x_obj = {"type": "pearson", **asdict(spec.x_model.coeffs)}
    obj = {
        "x_model": x_obj,
        "reference": asdict(spec.reference),
        "hypothesis": spec.hypothesis.value,
        "z_grid": list(spec.z_grid),
        "n_samples": spec.n_samples,
        "seed": spec.seed,
        "confidence": spec.confidence,
        "c": spec.c_lower,
    }
    if spec.reference_upper is not None:
        obj["reference_upper"] = asdict(spec.reference_upper)
    if spec.k_upper is not None:
        obj["K"] = spec.k_upper
    return json.dumps(obj)


def _coeffs_from_obj(obj: dict) -> PearsonCoefficients:
    return PearsonCoefficients(float(obj["alpha"]), float(obj["beta"]), float(obj["gamma"]))


def scenario_from_json(text: str) -> ScenarioSpec:
    obj = json.loads(text)
    required = ["x_model", "reference", "hypothesis", "z_grid", "n_samples", "seed"]
    missing = [k for k in required if k not in obj]
    if missing:
        raise DomainError(f"scenario JSON missing fields: {missing}")
    xm = obj["x_model"]
    if xm.get("type") == "hermite":
        x_model: Union[HermiteSeries, PearsonLaw] = HermiteSeries(tuple(float(v) for v in xm["coeffs"]))
    elif xm.get("type") == "pearson":
        x_model = build_law(_coeffs_from_obj(xm))
    else:
        raise DomainError(f"unknown x_model type {xm.get('type')!r}")
    return ScenarioSpec(
        x_model=x_model,
        reference=_coeffs_from_obj(obj["reference"]),
        hypothesis=Hypothesis(obj["hypothesis"]),
        z_grid=tuple(float(z) for z in obj["z_grid"]),
        n_samples=int(obj["n_samples"]),
        seed=int(obj["seed"]),
        confidence=float(obj.get("confidence", 0.99)),
        reference_upper=_coeffs_from_obj(obj["reference_upper"]) if "reference_upper" in obj else None,
        c_lower=float(obj.get("c", 4.0)),
        k_upper=float(obj["K"]) if "K" in obj else None,
    )
