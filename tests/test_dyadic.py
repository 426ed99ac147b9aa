import pytest

from mfskit import DyadicProbability


def test_canonical_form():
    p = DyadicProbability(4, 4)  # 4/16
    assert (p.numerator, p.log2_denominator) == (1, 2)
    assert DyadicProbability(0, 17) == DyadicProbability(0)
    assert DyadicProbability(8, 3) == DyadicProbability(1)


def test_rejects_values_outside_unit_interval():
    with pytest.raises(ValueError):
        DyadicProbability(5, 2)
    with pytest.raises(ValueError):
        DyadicProbability(-1, 0)
