import math

import pytest

from eplab.config import ToleranceConfig, within
from eplab.errors import InapplicableError, InputError


class TestWithin:
    @pytest.mark.parametrize("residual", [math.nan, math.inf, -math.inf])
    def test_non_finite_residual_raises(self, residual):
        with pytest.raises(InapplicableError, match="commutation"):
            within(residual, 1.0, "commutation")
        with pytest.raises(InapplicableError):
            within(residual, math.inf)

    @pytest.mark.parametrize(
        "residual, bound",
        [
            (0.0, 0.0),
            (-0.0, 0.0),
            (1e-8, 1e-8),
            (1e-8, math.nextafter(1e-8, 0.0)),
            (math.nextafter(1e-8, 0.0), 1e-8),
            (5e-324, 0.0),
            (0.0, 5e-324),
            (-1.0, 0.0),
            (2.0, 1.0),
            (1e300, math.inf),
            (1.0, -math.inf),
            (1.0, math.nan),
        ],
    )
    def test_finite_residual_compares_like_le(self, residual, bound):
        assert within(residual, bound) is (residual <= bound)


class TestToleranceConfig:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1e-8])
    @pytest.mark.parametrize("name", ["rank_multiplier", "subspace_tol", "psd_tol"])
    def test_rejects_non_finite_and_non_positive(self, name, value):
        with pytest.raises(InputError, match=name):
            ToleranceConfig(**{name: value})
