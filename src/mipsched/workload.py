"""Layer dimensions and their prime-factor decomposition.

A layer is a 7-dimensional loop nest with bounds R, S (kernel), P, Q
(output), C, K (channels), N (batch).  Every bound is split into its
prime factors; each factor becomes one allocation unit of the scheduling
problem.  Bounds whose factorization contains a large prime may be
padded upward to the next integer that factors into small primes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DIM_NAMES = ("R", "S", "P", "Q", "C", "K", "N")
NUM_DIMS = len(DIM_NAMES)
DIM_INDEX = {name: j for j, name in enumerate(DIM_NAMES)}


@dataclass(frozen=True)
class LayerDims:
    """The seven loop bounds of a conv/matmul nest, plus stride metadata.

    Stride is not a loop bound; the cost model uses it to size input
    tiles.  Matmul maps in with r = s = 1.
    """

    r: int
    s: int
    p: int
    q: int
    c: int
    k: int
    n: int
    stride: int = 1

    def __post_init__(self):
        for name, value in zip(DIM_NAMES, self.as_tuple()):
            if value < 1:
                raise ValueError(f"dimension {name} must be >= 1, got {value}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")

    def as_tuple(self) -> tuple[int, ...]:
        return (self.r, self.s, self.p, self.q, self.c, self.k, self.n)

    def __str__(self) -> str:
        body = " ".join(f"{name}={v}" for name, v in zip(DIM_NAMES, self.as_tuple()))
        return f"{body} stride={self.stride}"


@dataclass(frozen=True)
class PaddingPolicy:
    """Controls padding of loop bounds before factorization.

    A bound whose largest prime factor exceeds ``max_prime`` is padded
    up to the smallest integer whose largest prime factor is within the
    limit.  ``max_prime=None`` disables padding and accepts large primes
    as single factors.
    """

    max_prime: int | None = 7

    def __post_init__(self):
        if self.max_prime is not None and self.max_prime < 2:
            raise ValueError("max_prime must be >= 2 or None")


def prime_factors(x: int) -> list[int]:
    """Prime factorization of x >= 1 in non-decreasing order (empty for 1)."""
    if x < 1:
        raise ValueError(f"cannot factorize {x}")
    out: list[int] = []
    d = 2
    while d * d <= x:
        while x % d == 0:
            out.append(d)
            x //= d
        d += 1 if d == 2 else 2
    if x > 1:
        out.append(x)
    return out


def pad_bound(bound: int, max_prime: int) -> int:
    """Smallest integer >= bound whose largest prime factor is <= max_prime."""
    m = bound
    while True:
        if max(prime_factors(m), default=2) <= max_prime:
            return m
        m += 1


@dataclass(frozen=True)
class PrimeFactorization:
    """Per-dimension prime factors of the (possibly padded) loop bounds.

    ``factors[j]`` multiplies out to ``padded[j]`` exactly; a unit
    dimension contributes no factors and therefore no variables.
    """

    dims: LayerDims
    padded: tuple[int, ...]
    factors: tuple[tuple[int, ...], ...]
    log2_factors: tuple[tuple[float, ...], ...]

    def flat(self) -> list[tuple[int, int, int, float]]:
        """Factors flattened to (dim index j, ordinal n, prime, log2)."""
        out = []
        for j, fs in enumerate(self.factors):
            for n, prime in enumerate(fs):
                out.append((j, n, prime, self.log2_factors[j][n]))
        return out


def factorize(dims: LayerDims, policy: PaddingPolicy = PaddingPolicy()) -> PrimeFactorization:
    """Decompose every loop bound into prime factors, padding per policy."""
    padded = []
    factors = []
    for bound in dims.as_tuple():
        if policy.max_prime is not None and bound > 1:
            bound = pad_bound(bound, policy.max_prime)
        padded.append(bound)
        factors.append(tuple(prime_factors(bound)))
    logs = tuple(tuple(math.log2(p) for p in fs) for fs in factors)
    return PrimeFactorization(
        dims=dims,
        padded=tuple(padded),
        factors=tuple(factors),
        log2_factors=logs,
    )


def total_factor_count(pf: PrimeFactorization) -> int:
    """Number of prime factors across all dimensions (the rank-slot count)."""
    return sum(len(fs) for fs in pf.factors)
