import math

import numpy as np
import pytest
from scipy.special import ndtri

from soilrct.errors import ParamError
from soilrct.stats import norm_ppf, wald_halfwidth


def test_norm_ppf_matches_scipy_everywhere():
    ps = np.concatenate([
        np.linspace(1e-12, 1e-3, 200),
        np.linspace(1e-3, 1 - 1e-3, 2000),
        1 - np.linspace(1e-12, 1e-3, 200),
    ])
    ours = np.array([norm_ppf(p) for p in ps])
    ref = ndtri(ps)
    assert np.max(np.abs(ours - ref)) < 1e-9


def test_norm_ppf_symmetry_and_median():
    assert norm_ppf(0.5) == 0.0
    for p in (0.001, 0.1, 0.3, 0.45):
        assert norm_ppf(p) == pytest.approx(-norm_ppf(1 - p), abs=1e-14)


def test_norm_ppf_known_value():
    assert norm_ppf(0.975) == pytest.approx(1.959963984540054, abs=1e-12)


def test_norm_ppf_975_is_pinned_to_the_bit():
    # every Wald interval in metrics.csv scales by this quantile; an
    # interpreter whose `statistics.NormalDist` differs must fail here
    # rather than move the last digits of every `ci_width`
    assert norm_ppf(0.975).hex() == "0x1.f5c0331eeff82p+0"


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, math.nan])
def test_norm_ppf_rejects_out_of_range(p):
    with pytest.raises(ParamError):
        norm_ppf(p)


def test_wald_halfwidth_values():
    assert wald_halfwidth(0.0, 0.05) == 0.0
    assert wald_halfwidth(1.0, 0.05) == pytest.approx(1.959963984540054,
                                                     abs=1e-12)
    assert wald_halfwidth(4.0, 0.05) == pytest.approx(2 * 1.959963984540054,
                                                      abs=1e-12)


def test_wald_halfwidth_rejects_bad_inputs():
    with pytest.raises(ParamError):
        wald_halfwidth(-1.0, 0.05)
    with pytest.raises(ParamError):
        wald_halfwidth(1.0, 0.0)
    with pytest.raises(ParamError):
        wald_halfwidth(1.0, 1.0)
    # the upper quantile's level 1 - alpha/2 rounds to 1 up to 2**-53
    with pytest.raises(ParamError, match="alpha must lie in"):
        wald_halfwidth(1.0, 2.0 ** -53)
    assert wald_halfwidth(1.0, 2.0 ** -52) == norm_ppf(1.0 - 2.0 ** -53)
