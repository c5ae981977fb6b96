import numpy as np
import pytest
from hypothesis import strategies as st

from maxprod import kernels, signals

# parameters as a user may type them: numbers finite or not, and junk
_PARAMETERS = st.one_of(
    st.integers(-10 ** 5, 10 ** 5).map(str), st.floats().map(repr),
    st.sampled_from(["", "1e400", "-0", " 7 ", "1_0", "0x4"]),
    st.text(max_size=4))


def catalog_names(*prefixes):
    """Strings a user may pass as a catalog name with these prefixes."""
    params = st.lists(_PARAMETERS, max_size=3).map(",".join)
    return st.one_of(st.text(max_size=12),
                     st.builds(str.__add__, st.sampled_from(prefixes),
                               params))


@pytest.fixture(scope="session")
def fejer_kernel():
    return kernels.fejer()


@pytest.fixture(scope="session")
def vp_kernel():
    return kernels.de_la_vallee_poussin()


@pytest.fixture(scope="session")
def m3_kernel():
    return kernels.bspline(3)


@pytest.fixture(scope="session")
def m4_kernel():
    return kernels.bspline(4)


@pytest.fixture(scope="session")
def m5_kernel():
    return kernels.bspline(5)


@pytest.fixture(scope="session")
def catalog_kernels(fejer_kernel, vp_kernel, m3_kernel, m4_kernel, m5_kernel):
    return [fejer_kernel, vp_kernel, m3_kernel, m4_kernel, m5_kernel]


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def bounded_signals():
    return [signals.catalog(n)
            for n in ("constant:1", "ramp", "step", "sawtooth", "abs-sine")]
