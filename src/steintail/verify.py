"""Scenario harness: assemble a variable, a reference law, and a dominance hypothesis into per-threshold
tail verdicts.

A scenario fixes a model for X (a polynomial chaos variable with an exact law, or a quadratic-kernel law),
a reference coefficient triple, a z grid, and a sample budget.  The runner certifies the dominance
hypothesis exactly, over the whole support of X, through one polynomial margin routine for both models
(``chaos.margin_extrema``, docs/DECISIONS.md decision 7), draws reproducible counter-based uniforms, and
compares the empirical survival function, wrapped in its Dvoretzky-Kiefer-Wolfowitz band, against the rows
of ``bounds.statement_table``, which owns where each bound is asserted: a miss there fails, any other miss
is inconclusive.  Both models count the uniforms on the ends of the intervals of u where X > z, which X's
law gives (decision 10).  Certification, counting and the bounds read X through one model, ``_model``.
Once the expected tail count n * S(z) drops under 100 the exact tail replaces the empirical estimate
(relative Monte-Carlo error explodes out there).
"""

from __future__ import annotations

import functools
import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Optional, Union

import numpy as np

from . import bounds, chaos, pearson, rng
from .chaos import HermiteSeries
from .errors import DomainError, InsufficientRangeError, UncertifiedHypothesisError, as_float, as_int, reading
from .pearson import PearsonCoefficients, PearsonLaw, build_law
from .rng import U_MAX, U_MIN

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


_LOWER = (Hypothesis.DOMINATES_LOWER, Hypothesis.SANDWICH)  # the hypotheses that check each side
_UPPER = (Hypothesis.DOMINATED_UPPER, Hypothesis.SANDWICH)


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
    c_lower: float = bounds.EXPLICIT_C
    k_upper: Optional[float] = None

    def __post_init__(self):
        with reading("hypothesis"):  # a valid string becomes the member
            object.__setattr__(self, "hypothesis", Hypothesis(self.hypothesis))
        for name, value in (("reference", self.reference), ("reference_upper", self.upper_coeffs)):
            if not isinstance(value, PearsonCoefficients):
                raise DomainError(f"{name} must be a PearsonCoefficients triple, got {value!r}")
        object.__setattr__(self, "n_samples", as_int(self.n_samples, "n_samples"))
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        for name in ("confidence", "c_lower") + (("k_upper",) if self.k_upper is not None else ()):
            object.__setattr__(self, name, as_float(getattr(self, name), name))
        if self.n_samples < 10_000:
            raise DomainError(f"scenario needs n_samples >= 10^4, got {self.n_samples}")
        if not 0.0 < self.confidence < 1.0:
            raise DomainError(f"confidence must be in (0,1), got {self.confidence}")
        with reading("z_grid"):  # a grid that is not a sequence; a point that is not a number names itself
            zs = tuple(as_float(z, "a z_grid point") for z in self.z_grid)
        object.__setattr__(self, "z_grid", zs)
        if any(b <= a for a, b in zip(zs, zs[1:])) or not zs:
            raise DomainError("z_grid must be nonempty and strictly increasing")
        if not all(map(math.isfinite, zs)):
            raise DomainError(f"z_grid must be finite, got {zs}")
        _, b = pearson.support(self.reference)
        if zs[0] <= 0.0 or zs[-1] >= b:
            raise DomainError(f"z_grid must lie in (0, b) = (0, {b})")
        if self.hypothesis in _LOWER:
            bounds.pearson_lower_constant(self.reference.alpha, self.c_lower)  # raises InvalidConstantError for c <= 2
        if self.hypothesis in _UPPER or self.k_upper is not None:  # a given K is checked whatever the hypothesis
            bounds.pearson_upper_multiplier(self.upper_coeffs.alpha, self.k_upper)  # raises as the table would

    @property
    def upper_coeffs(self) -> PearsonCoefficients:
        return self.reference_upper if self.reference_upper is not None else self.reference


def dkw_half_width(n: int, confidence: float) -> float:
    """Uniform band half-width sqrt(ln(2/(1-confidence)) / (2n))."""
    n, confidence = as_int(n, "sample count"), as_float(confidence, "confidence")
    if n < 1 or not 0.0 < confidence < 1.0:
        raise DomainError("need n >= 1 and confidence in (0,1)")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))


def empirical_tail(samples, z_grid, confidence: float = 0.99) -> tuple[np.ndarray, float]:
    """Empirical survival function on the grid and its DKW half-width; a NaN sample or threshold raises."""
    samples, zs = as_float(samples, "samples", arrays=True), as_float(z_grid, "z_grid", arrays=True)
    if samples.size == 0:
        raise DomainError("empirical_tail needs at least one sample")
    if np.isnan(samples).any() or np.isnan(zs).any():
        raise DomainError("empirical_tail needs samples and thresholds that are not NaN")
    counts = np.array([np.count_nonzero(samples > z) for z in zs], dtype=np.int64)
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
        if any(b > a for a, b in zip(self.phi_star, self.phi_star[1:])):  # rounded tails may tie
            raise DomainError("phi_star must be non-increasing along the grid")

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


def _certify(spec: ScenarioSpec, model: _Model) -> dict:
    """Exact margins of the dominance hypothesis over the whole support of X; raises if one fails.

    The model's polynomials X and G (a Pearson X's own kernel for G) on its domain go through
    ``chaos.margin_extrema`` for both X models.
    """
    extrema = functools.cache(lambda coeffs: chaos.margin_extrema(model.poly, model.gpoly, coeffs, model.domain))
    info = {}
    if spec.hypothesis in _LOWER:
        res = extrema(spec.reference)
        info["lower_margin"] = res["min"]
        if res["min"] < -MARGIN_TOL:
            raise UncertifiedHypothesisError(
                f"G >= g(X) fails: margin {res['min']} at {res['argmin']}")
    if spec.hypothesis in _UPPER:
        res = extrema(spec.upper_coeffs)  # a Sandwich with one reference reads the extrema above
        info["upper_margin"] = res["max"]
        if res["max"] > MARGIN_TOL:
            raise UncertifiedHypothesisError(
                f"G <= g_upper(X) fails: margin {res['max']} at {res['argmax']}")
    return info


# ---------------------------------------------------------------------------
# the X model, block sampling and counting

_Model = namedtuple("_Model", "intervals poly gpoly domain moments x_end")


def _model(x_model: Union[HermiteSeries, PearsonLaw]) -> _Model:
    """What the runner reads of an X model, its one dispatch on the model (docs/DECISIONS.md, decisions 7, 10).

    intervals(zs) is (lo, hi, owner): the open intervals of u on which X > z, a draw u standing for X's exact
    inverse at u, and the threshold each belongs to, from one tail call for the grid.  A Pearson X exceeds z
    on (0, P[X > z]); a chaos X(n), n the Normal's inverse of u, on (P[N > n_hi], P[N > n_lo]) for each
    interval (n_lo, n_hi) of ``level(z)``.  X is the polynomial ``poly`` (x itself for a Pearson X, whose kernel
    stands for G) of a variable on ``domain``, where G is ``gpoly``; moments(y) is (P[X > y], E[X; X > y],
    E[X^2; X > y]), y a number or an array, and ``x_end`` is X's right end.  Any other model raises DomainError.
    """
    if isinstance(x_model, PearsonLaw):
        c = x_model.coeffs
        return _Model(lambda zs: (np.zeros(zs.size), pearson.tail(x_model, zs), np.arange(zs.size)),
                      (0.0, 1.0), (c.gamma, c.beta, c.alpha), (x_model.support_a, x_model.support_b),
                      functools.partial(pearson.partial_moments, x_model), x_model.support_b)
    if not isinstance(x_model, HermiteSeries):
        raise DomainError(f"x_model must be a HermiteSeries or a PearsonLaw, got {x_model!r}")
    law, normal = chaos.law_of_polynomial(x_model), build_law(PearsonCoefficients(0.0, 0.0, 1.0))

    def intervals(zs: np.ndarray) -> tuple[np.ndarray, ...]:
        above = [law.level(z)[1] for z in zs.tolist()]
        owner = np.repeat(np.arange(zs.size), [len(a) for a in above])
        n_lo, n_hi = np.array([ends for a in above for ends in a], dtype=float).reshape(-1, 2).T
        p = pearson.tail(normal, np.concatenate([n_hi, n_lo]))  # u falls as n rises
        return p[:owner.size], p[owner.size:], owner

    return _Model(intervals, law.poly, law.gpoly, (-math.inf, math.inf), law.partial_moments, law.support_b)


def _tail_counts(model: _Model, seed: int, n: int, zs: np.ndarray) -> np.ndarray:
    """Exceedance counts of the model's n draws from ``seed`` per grid point: the draws strictly inside one of its
    intervals, #(u < hi) - #(u <= lo), summed over the blocks (docs/DECISIONS.md, decision 10).

    Each block makes one compare-and-count pass per distinct end inside the range of the uniforms, and an
    integer weight matrix sums them by threshold.  The blocks are counted in turn on the calling thread; block b
    depends on (seed, b) alone, so the sum does not depend on their order.
    """
    lo, hi, owner = model.intervals(zs)
    keep = hi > lo  # an interval that rounds empty holds no draw
    points, column = np.unique(np.concatenate([hi[keep], np.nextafter(lo[keep], 2.0)]), return_inverse=True)
    weights = np.zeros((zs.size, points.size), dtype=np.int64)
    np.add.at(weights, (np.tile(owner[keep], 2), column), np.repeat([1, -1], np.count_nonzero(keep)))
    read = (points > U_MIN) & (points <= U_MAX)  # u < v holds for no draw at v <= U_MIN and for every one past U_MAX
    every, weights, points = weights[:, points > U_MAX].sum(axis=1), weights[:, read], points[read]
    total = np.zeros(zs.shape, dtype=np.int64)
    for b in range(rng.n_blocks(n)):
        u = rng.uniform_block(seed, b, min(rng.BLOCK_SIZE, n - b * rng.BLOCK_SIZE))
        total += weights @ np.array([np.count_nonzero(u < v) for v in points], dtype=np.int64) + every * u.size
    return total


# ---------------------------------------------------------------------------
# the runner


def run_scenario(spec: ScenarioSpec, n_workers: Optional[int] = None) -> TailReport:
    """Execute the scenario and return the per-threshold report.

    The sample blocks are counted on the calling thread, and the report depends on the spec alone.
    ``n_workers`` is accepted and has no effect: the benchmark's replay still passes it, and it can
    go with the next change to the benchmark.
    """
    ref_law = build_law(spec.reference)
    model = _model(spec.x_model)
    cert_info = _certify(spec, model)

    zs = np.asarray(spec.z_grid)
    emp = _tail_counts(model, spec.seed, spec.n_samples, zs) / spec.n_samples
    eps = dkw_half_width(spec.n_samples, spec.confidence)

    at_z = model.moments(zs)
    exact = at_z[0]
    deep = exact * spec.n_samples < DEEP_TAIL_MIN_COUNT
    s_hi = np.where(deep, exact, emp + eps)
    s_lo = np.where(deep, exact, np.maximum(emp - eps, 0.0))
    rows, constants = bounds.statement_table(ref_law if spec.hypothesis in _LOWER else None,
                                             build_law(spec.upper_coeffs) if spec.hypothesis in _UPPER else None,
                                             zs, at_z, model.x_end, spec.c_lower, spec.k_upper)
    missed = asserted = np.zeros(zs.shape, dtype=bool)  # an asserted miss fails, any other is inconclusive
    certs = {}
    for side, empty, s, tighter in (("lower", -math.inf, s_hi, np.greater), ("upper", math.nan, s_lo, np.less)):
        mine = [r for r in rows if r.side == side]
        cert, held = (mine[0].value, mine[0].asserted) if mine else (np.full(zs.shape, empty), None)
        for r in mine:  # each side reports its tightest asserted row, or its tightest row where none is asserted
            take = (r.asserted > held) | ((r.asserted == held) & tighter(r.value, cert))
            cert, held, miss = np.where(take, r.value, cert), held | r.asserted, tighter(r.value, s)
            missed, asserted = missed | miss, asserted | (miss & r.asserted)
        certs[side] = cert
    verdicts = np.where(asserted, Verdict.FAIL.value,
                        np.where(missed, Verdict.INCONCLUSIVE.value, Verdict.PASS.value))

    meta = {
        "scenario": json.loads(scenario_to_json(spec)),
        "certification": cert_info,
        **constants,
        "deep_tail": deep.tolist(),
        "exact_tail_x": exact.tolist(),
    }
    return TailReport(
        z_grid=spec.z_grid,
        phi_star=tuple(pearson.tail(ref_law, zs).tolist()),
        lower_cert=tuple(certs["lower"].tolist()),
        upper_cert=tuple(certs["upper"].tolist()),
        empirical=tuple(emp.tolist()),
        ci_half_width=eps,
        verdicts=tuple(verdicts.tolist()),
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
    zs, ys = as_float(z_grid, "z_grid", arrays=True), as_float(log_tail, "log_tail", arrays=True)
    if zs.size != ys.size or zs.size < 3:
        raise DomainError("need matching grids with at least 3 points")
    if not (np.isfinite(zs).all() and np.isfinite(ys).all()):
        raise DomainError("slope grids and log tails must be finite (a log tail of -inf is a tail of 0)")
    if np.any(zs <= 0.0):
        raise DomainError("slope grids must be positive")
    if zs.max() / zs.min() < 10.0 * (1.0 - 1e-12):
        raise InsufficientRangeError(
            f"grid spans {zs.max() / zs.min():.3g}x, need at least one decade")
    scales = {"loglog": np.log, "loglinear": lambda z: z, "stretched": lambda z: z ** (2.0 - p)}
    if not isinstance(mode, str) or (mode := mode.lower()) not in scales:
        raise DomainError(f"unknown slope mode {mode!r}")
    if mode == "stretched" and not 0.0 <= (p := as_float(p, "p")) < 2.0:
        raise DomainError(f"stretched mode needs 0 <= p < 2, got {p}")
    slope, _ = np.polyfit(scales[mode](zs), ys, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# scenario (de)serialization


def scenario_to_json(spec: ScenarioSpec) -> str:
    x = spec.x_model
    obj = {
        "x_model": {"type": "hermite", "coeffs": list(x.coeffs)} if isinstance(x, HermiteSeries)
        else {"type": "pearson", **asdict(x.coeffs)},
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
    return PearsonCoefficients(obj["alpha"], obj["beta"], obj["gamma"])


def scenario_from_json(text: str) -> ScenarioSpec:
    """The scenario in text, each value passed as it is to the type that checks it; malformed text raises DomainError."""
    with reading("scenario JSON"):
        obj = json.loads(text)
        required = ["x_model", "reference", "hypothesis", "z_grid", "n_samples", "seed"]
        missing = [k for k in required if k not in obj]
        if missing:
            raise DomainError(f"scenario JSON missing fields: {missing}")
        xm = obj["x_model"]
        if xm.get("type") == "hermite":
            x_model: Union[HermiteSeries, PearsonLaw] = HermiteSeries(xm["coeffs"])
        elif xm.get("type") == "pearson":
            x_model = build_law(_coeffs_from_obj(xm))
        else:
            raise DomainError(f"unknown x_model type {xm.get('type')!r}")
        return ScenarioSpec(
            x_model=x_model,
            reference=_coeffs_from_obj(obj["reference"]),
            hypothesis=Hypothesis(obj["hypothesis"]),
            z_grid=obj["z_grid"],
            n_samples=obj["n_samples"],
            seed=obj["seed"],
            reference_upper=_coeffs_from_obj(obj["reference_upper"]) if "reference_upper" in obj else None,
            **{field: obj[key] for key, field in (("confidence", "confidence"), ("c", "c_lower"), ("K", "k_upper"))
               if key in obj},
        )
