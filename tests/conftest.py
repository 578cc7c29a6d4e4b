import pathlib
import warnings

import pytest

from khalfin import make_density, solve_crossover

# Hypothesis imports this module while it reports a failing property; where
# libcst is installed, that import raises a third-party DeprecationWarning,
# which under -W error::DeprecationWarning ends the session with an
# INTERNALERROR instead of the failure.  Importing it once here, with that
# warning ignored for this import only, keeps the failure reportable.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def d100():
    """Narrow-resonance reference model (x = 100) in model units."""
    return make_density(0.0, 100.0, 1.0)


@pytest.fixture(scope="session")
def t_as_100(d100):
    """Exact crossover time of the reference model."""
    return solve_crossover(d100).s_exact_large


@pytest.fixture(scope="session")
def demo_catalog_path():
    return DATA / "demo_catalog.csv"
