import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database; no deadline, since the examples' cost is not under test.
settings.register_profile("gravtritter", derandomize=True, database=None, deadline=None)
settings.load_profile("gravtritter")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def gaussian_overlap(a, s1, b, s2, ph1=0.0, ph2=0.0):
    """Closed-form overlap of two normalized Gaussian profiles.

    Full-line formula, valid to <1e-10 truncation error when both peaks sit
    many widths above zero; an independent oracle for the half-line lobe
    sum of ``inner_product``.
    """
    mag = np.sqrt(2.0 * s1 * s2 / (s1**2 + s2**2)) * np.exp(
        -((a - b) ** 2) / (4.0 * (s1**2 + s2**2))
    )
    return mag * np.exp(1j * (ph2 - ph1))
