import pytest

from flathump import coefficients as co
from flathump import stationary as st


@pytest.fixture(scope="session")
def preset_a():
    return co.preset("example-A")


@pytest.fixture(scope="session")
def preset_b():
    return co.preset("example-B")


@pytest.fixture(scope="session")
def preset_c():
    return co.preset("example-C")


@pytest.fixture(scope="session")
def canonical_params():
    # the canonical stationary setup used across tests
    return st.canonical_params()


@pytest.fixture(scope="session")
def preset_c3(canonical_params):
    return canonical_params.coeffs


@pytest.fixture(scope="session")
def slope_interval(preset_c3):
    r_star, interval = st.lambda_interval_from_slopes(preset_c3, preset_c3.linear_reaction)
    return r_star, interval


@pytest.fixture(scope="session")
def aligned_v0(canonical_params):
    # plateau edge on a cell interface of the 1024-cell mesh (and thus of
    # every dyadic refinement); keeps refinement ratios clean
    return st.v0_for_edge_alignment(canonical_params, 1024, 16)


@pytest.fixture(scope="session")
def canonical_profiles(canonical_params, aligned_v0):
    return {n: st.construct_flat_hump(canonical_params, aligned_v0, n)
            for n in (1024, 2048, 4096)}
