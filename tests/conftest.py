import pytest

from mssv import HiddenState, ModelParams

# the study's fitted two-factor parameters, reused all over the suite
FITTED = dict(kappa=3.58, theta=0.021, sigma=0.347, rho=-1.0,
              epsilon=0.0096, w3_eps=0.0150, r=0.02)
# its fitted one-factor benchmark
FITTED_HESTON = dict(kappa=3.43, theta=0.04, sigma=0.424, rho=-1.0)


@pytest.fixture
def params():
    return ModelParams(**FITTED)


@pytest.fixture
def state_high_y():
    return HiddenState(y=0.0234, z=0.0194)


@pytest.fixture
def state_low_y():
    return HiddenState(y=0.0110, z=0.0203)
