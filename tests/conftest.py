import numpy as np
import pytest

from steintail import pearson, rng
from steintail.pearson import PearsonCoefficients, build_law


def normal_stream(seed: int, n: int) -> np.ndarray:
    """n standard normals, the Normal's inverse of rng's uniforms: the draws a chaos X is counted on."""
    return pearson.quantile_grid(build_law(PearsonCoefficients(0.0, 0.0, 1.0)), rng.uniform_stream(seed, n))


# one coefficient triple per canonical case, reused across the suite
CANONICAL_COEFFS = {
    "normal": PearsonCoefficients(0.0, 0.0, 1.0),
    "gamma": PearsonCoefficients(0.0, 2.0, 2.0),
    "beta": PearsonCoefficients(-0.25, 0.0, 0.0625),
    "inverse_gamma_type": PearsonCoefficients(0.5, 1.0, 0.5),
    "no_real_roots": PearsonCoefficients(0.25, 0.0, 0.25),
}

# the canonical cases, the inverse-gamma type with alpha = 1/4, and two mirrored laws (right ends 1 and 2)
WIDER_COEFFS = {**CANONICAL_COEFFS, "inverse_gamma_type_0.25": PearsonCoefficients(0.25, 1.0, 1.0),
                "mirrored_gamma": PearsonCoefficients(0.0, -2.0, 2.0),
                "mirrored_inverse_gamma": PearsonCoefficients(0.25, -1.0, 1.0)}


@pytest.fixture(scope="session")
def canonical_laws():
    return {name: build_law(c) for name, c in CANONICAL_COEFFS.items()}


@pytest.fixture(scope="session")
def normal_law(canonical_laws):
    return canonical_laws["normal"]


@pytest.fixture(scope="session")
def gamma_law(canonical_laws):
    return canonical_laws["gamma"]


@pytest.fixture(scope="session")
def beta_law(canonical_laws):
    return canonical_laws["beta"]


@pytest.fixture(scope="session")
def invgamma_law(canonical_laws):
    return canonical_laws["inverse_gamma_type"]


@pytest.fixture(scope="session")
def case5_law(canonical_laws):
    return canonical_laws["no_real_roots"]
