"""estimates.term_powers, the one power rule of the Dirichlet and Farey
series: its accuracy against 40-digit mpmath, that each term depends only
on its own base, so that a series does not depend on how its terms are
chunked, and its refusals outside the float range and at base 0."""

import warnings

import mpmath
import numpy as np
import pytest

from tropzeta.estimates import add_in_order, term_powers

U = 2.0 ** -52


def bases():
    """4,000 log-uniform v in [1e-12, 1], 1 itself, and the Farey-like
    1/(n (n+1) (n+2))."""
    rng = np.random.default_rng(20)
    n = np.arange(1, 2001, dtype=float)
    return np.concatenate((10.0 ** rng.uniform(-12, 0, 4000), [1.0], 1 / (n * (n + 1) * (n + 2))))


def reference(v, s):
    """v ** s to 40 digits, v taken exactly."""
    with mpmath.workdps(40):
        return complex(mpmath.power(mpmath.mpf(float(v)), mpmath.mpmathify(s)))


REAL_S = [0.8, 2.5, 3.0, 2.0, -1.5]
COMPLEX_S = [0.7 + 2j, 0.75 + 1.3j, 3 + 1j, 0.6 + 10j]


class TestAccuracy:
    @pytest.mark.parametrize("s", REAL_S)
    def test_real_s_within_two_ulp(self, s):
        x = bases()
        got = term_powers(x, complex(s))
        assert got.dtype == float
        ref = np.array([reference(v, s).real for v in x])
        assert (np.abs(got - ref) <= 2 * np.spacing(ref)).all()

    @pytest.mark.parametrize("s", COMPLEX_S)
    def test_complex_s_within_the_phase_bound(self, s):
        # the phase Im s log v is rounded, so a term's relative error grows
        # with |Im s log v|: (|Im s log v| + 2) u bounds it
        x = bases()
        got = term_powers(x, complex(s))
        assert got.dtype == complex
        ref = np.array([reference(v, s) for v in x])
        bound = (np.abs(s.imag * np.log(x)) + 2) * U * np.abs(ref)
        assert (np.abs(got - ref) <= bound).all()


class TestPosition:
    @pytest.mark.parametrize("s", [0.8, 3.0, 0.7 + 2j, 0.6 + 10j])
    def test_entry_equals_its_base_powered_alone(self, s):
        x = bases()[:5003]
        whole = term_powers(x, complex(s))
        alone = np.concatenate([term_powers(x[i:i + 1], complex(s)) for i in range(x.size)])
        assert whole.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("s", [0.8, 3.0, 0.7 + 2j, 0.6 + 10j])
    def test_entry_equals_it_in_any_slice(self, s):
        x = bases()[:5003]
        whole = term_powers(x, complex(s))
        rng = np.random.default_rng(5)
        for lo, hi in [(0, 1), (1, 18), (3, 5003), (4990, 5003)] + [
                tuple(sorted(rng.integers(0, 5004, 2))) for _ in range(20)]:
            part = term_powers(x[lo:hi], complex(s))
            assert part.tobytes() == whole[lo:hi].tobytes()
        for step in (2, 3, 17):  # strided views, not contiguous copies
            assert term_powers(x[1::step], complex(s)).tobytes() == whole[1::step].tobytes()


class TestRefusals:
    @pytest.mark.parametrize("s", [-700, 1100, -700 + 1j, 1100 + 3j])
    def test_power_outside_the_float_range(self, s):
        # 1e-6 ** -700 and 2 ** 1100 overflow; refused without a numpy warning
        x = np.array([0.5, 1e-6, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="outside the float range"):
                term_powers(x, complex(s))

    @pytest.mark.parametrize("s", [0.7 + 2j, 2j, -1.5, -2])
    def test_base_zero_at_complex_or_negative_s(self, s):
        with pytest.raises(ValueError, match="0.0 to the power"):
            term_powers(np.array([0.5, 0.0]), complex(s))

    def test_base_zero_at_real_s_at_least_zero(self):
        x = np.array([0.0, 0.25])
        assert term_powers(x, complex(2.5)).tolist() == [0.0, 0.25 ** 2.5]
        assert term_powers(x, 0j).tolist() == [1.0, 1.0]

    def test_sum_outside_the_float_range(self):
        # finite terms whose running sum overflows, and an inf or NaN term
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for terms in ([1e308, 1e308], [1.0, np.inf], [np.nan]):
                with pytest.raises(OverflowError, match="outside the float range"):
                    add_in_order(0j, np.array(terms))
