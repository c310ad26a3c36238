import math
from fractions import Fraction

import pytest

from gr32485.special import central_binomial_ratio


def test_central_binomial_examples():
    assert central_binomial_ratio(0) == 1.0
    assert central_binomial_ratio(1) == 0.5


def test_central_binomial_against_exact_rational():
    for n in (2, 7, 30, 64):
        exact = Fraction(math.comb(2 * n, n), 4**n)
        assert central_binomial_ratio(n) == pytest.approx(float(exact), rel=1e-14)


def test_central_binomial_asymptote_ratio():
    for n in range(30, 201, 10):
        ratio = central_binomial_ratio(n) * math.sqrt(math.pi * n)
        assert 0.9 < ratio < 1.0
