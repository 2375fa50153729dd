import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipsched.workload import (
    LayerDims,
    PaddingPolicy,
    factorize,
    pad_bound,
    prime_factors,
    total_factor_count,
)


def test_four_factor_layer():
    pf = factorize(LayerDims(3, 1, 1, 1, 1, 4, 3))
    assert pf.factors == ((3,), (), (), (), (), (2, 2), (3,))
    assert total_factor_count(pf) == 4


def test_unit_dim_yields_no_factors():
    pf = factorize(LayerDims(1, 1, 1, 1, 1, 1, 1))
    assert pf.factors == ((),) * 7
    assert total_factor_count(pf) == 0
    assert pf.padded == (1,) * 7


def test_twelve_factorizes_uniquely():
    pf = factorize(LayerDims(1, 1, 12, 1, 1, 1, 1))
    assert pf.factors[2] == (2, 2, 3)


def test_large_prime_padded():
    # oracle: scan upward from 13 for the first integer whose largest
    # prime factor stays within the policy
    target = 13
    while max(prime_factors(target)) > 7:
        target += 1
    assert target == 14
    pf = factorize(LayerDims(1, 1, 1, 1, 1, 13, 1), PaddingPolicy(max_prime=7))
    assert pf.padded[5] == 14
    assert pf.factors[5] == (2, 7)


def test_padding_disabled_keeps_primes():
    pf = factorize(LayerDims(1, 1, 1, 1, 13, 1, 1), PaddingPolicy(max_prime=None))
    assert pf.padded[4] == 13
    assert pf.factors[4] == (13,)


def test_conv28_factor_count():
    pf = factorize(LayerDims(3, 3, 28, 28, 8, 4, 3))
    assert pf.factors == ((3,), (3,), (2, 2, 7), (2, 2, 7), (2, 2, 2), (2, 2), (3,))
    # oracle: factorize then count list lengths
    assert total_factor_count(pf) == sum(len(f) for f in pf.factors) == 14


def test_invalid_dims_rejected():
    with pytest.raises(ValueError):
        LayerDims(0, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        LayerDims(1, 1, 1, 1, 1, 1, 1, stride=0)


@given(st.lists(st.integers(min_value=1, max_value=4000), min_size=7, max_size=7))
@settings(max_examples=150, deadline=None)
def test_reconstruction(bounds):
    pf = factorize(LayerDims(*bounds))
    for j in range(7):
        assert math.prod(pf.factors[j]) == pf.padded[j]
        assert pf.padded[j] >= bounds[j]
        for p in pf.factors[j]:
            assert prime_factors(p) == [p]  # every listed factor is prime


@given(st.integers(min_value=2, max_value=5000), st.sampled_from([2, 3, 5, 7, 11]))
@settings(max_examples=100, deadline=None)
def test_monotone_padding(bound, max_prime):
    padded = pad_bound(bound, max_prime)
    # oracle: linear scan for the minimum admissible integer
    m = bound
    while max(prime_factors(m)) > max_prime:
        m += 1
    assert padded == m


@given(st.lists(st.integers(min_value=1, max_value=4000), min_size=7, max_size=7))
@settings(max_examples=60, deadline=None)
def test_log2_cache_agrees(bounds):
    pf = factorize(LayerDims(*bounds))
    for j in range(7):
        for n, p in enumerate(pf.factors[j]):
            assert math.isclose(pf.log2_factors[j][n], math.log2(p), rel_tol=1e-12)


@given(st.lists(st.integers(min_value=1, max_value=4000), min_size=7, max_size=7),
       st.sampled_from([2, 3, 5, 7, 11, None]))
@settings(max_examples=100, deadline=None)
def test_identical_factors_are_contiguous(bounds, max_prime):
    """Factors of one dimension and prime sit next to each other in factor
    order: the enumeration walk's `same_next` and its order-count
    multiplicity read them as one run."""
    pf = factorize(LayerDims(*bounds), PaddingPolicy(max_prime=max_prime))
    pairs = [(j, prime) for j, _n, prime, _lg in pf.flat()]
    runs = [key for key, _run in itertools.groupby(pairs)]
    assert len(runs) == len(set(pairs))


def test_flat_order_and_overhead():
    pf = factorize(LayerDims(3, 1, 1, 1, 1, 4, 3))
    assert [(j, n, p) for j, n, p, _ in pf.flat()] == [
        (0, 0, 3),
        (5, 0, 2),
        (5, 1, 2),
        (6, 0, 3),
    ]
    assert pf.padded == pf.dims.as_tuple()
