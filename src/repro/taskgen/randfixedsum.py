"""Stafford's Randfixedsum algorithm.

The paper's synthetic experiments generate per-task utilisations "from an
unbiased set of utilization values using the Randfixedsum algorithm"
[Emberson, Stafford & Davis, WATERS 2010].  Randfixedsum draws vectors
uniformly at random from the simplex slice

    { x ∈ [0, 1]^n : Σ x_i = u },

i.e. every admissible utilisation split is equally likely — unlike the
naive normalise-uniforms approach, which biases towards balanced splits.
This is a from-scratch implementation of J. Stafford's dynamic-
programming construction (the same algorithm Emberson's ``taskgen``
tool uses), extended with an affine transform for general per-component
bounds ``[lo, hi]``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["randfixedsum"]


def _simplex_table(n: int, u: float) -> tuple[int, float, np.ndarray]:
    """Stafford's table for ``n ≥ 2`` components summing to ``u``: the
    integer shelf ``k``, the sum as a float, and the transition
    probabilities ``t`` the sampling walk reads.  Draws nothing."""
    # The simplex slice decomposes into simplices indexed by how many
    # coordinates exceed their "integer shelf"; w accumulates their
    # (scaled) volumes, t the transition probabilities between shelves.
    k = min(int(u), n - 1)
    s = float(u)
    s1 = s - np.arange(k, k - n, -1.0)
    s2 = np.arange(k + n, k, -1.0) - s

    tiny = np.finfo(float).tiny
    huge = np.finfo(float).max

    w = np.zeros((n, n + 1))
    w[0, 1] = huge
    t = np.zeros((n - 1, n))
    for i in range(2, n + 1):
        tmp1 = w[i - 2, 1 : i + 1] * s1[:i] / float(i)
        tmp2 = w[i - 2, 0:i] * s2[n - i : n] / float(i)
        w[i - 1, 1 : i + 1] = tmp1 + tmp2
        tmp3 = w[i - 1, 1 : i + 1] + tiny
        tmp4 = s2[n - i : n] > s1[:i]
        t[i - 2, 0:i] = (tmp2 / tmp3) * tmp4 + (1.0 - tmp1 / tmp3) * (~tmp4)
    return k, s, t


def _walk_vectors(
    k: int, s: float, t: np.ndarray, rt: np.ndarray, rs: np.ndarray
) -> np.ndarray:
    """The sampling walk over ``nsets`` columns at once: ``rt``/``rs``
    are ``(n−1, nsets)`` uniforms (simplex-type decisions, positions
    inside the simplex); returns the ``(n, nsets)`` unpermuted draws."""
    n, nsets = rt.shape[0] + 1, rt.shape[1]
    x = np.zeros((n, nsets))
    sums = np.full(nsets, s)
    j = np.full(nsets, k + 1, dtype=int)
    sm = np.zeros(nsets)
    pr = np.ones(nsets)
    for i in range(n - 1, 0, -1):
        e = (rt[n - i - 1, :] <= t[i - 1, j - 1]).astype(float)
        sx = rs[n - i - 1, :] ** (1.0 / i)
        sm = sm + (1.0 - sx) * pr * sums / (i + 1)
        pr = sx * pr
        x[n - i - 1, :] = sm + pr * e
        sums = sums - e
        j = (j - e).astype(int)
    x[n - 1, :] = sm + pr * sums
    return x


def _walk_one(
    k: int, s: float, t: np.ndarray, rt: np.ndarray, rs: np.ndarray
) -> list[float]:
    """:func:`_walk_vectors` for one column (``rt``/``rs`` of length
    ``n−1``), on Python floats.

    Every step does the vector walk's float operations in its order, so
    the draw is bitwise the same; only the power stays a numpy array
    operation, on a length-1 slice as in the walk over one column,
    because Python's ``**`` (libm) rounds differently in a few percent
    of draws.
    """
    n = len(rt) + 1
    decisions = rt.tolist()
    x = [0.0] * n
    sums = s
    j = k + 1
    sm = 0.0
    pr = 1.0
    for i in range(n - 1, 0, -1):
        row = n - i - 1
        e = 1.0 if decisions[row] <= t.item(i - 1, j - 1) else 0.0
        sx = (rs[row : row + 1] ** (1.0 / i)).item()
        sm = sm + (1.0 - sx) * pr * sums / (i + 1)
        pr = sx * pr
        x[row] = sm + pr * e
        sums = sums - e
        j -= int(e)
    x[n - 1] = sm + pr * sums
    return x


def _randfixedsum_unit(
    n: int, u: float, nsets: int, rng: np.random.Generator
) -> np.ndarray:
    """Stafford's algorithm on the unit box: ``nsets`` vectors in
    ``[0,1]^n`` each summing to ``u`` (requires ``0 ≤ u ≤ n``)."""
    if n == 1:
        return np.full((nsets, 1), u)
    k, s, t = _simplex_table(n, u)
    rt = rng.uniform(size=(n - 1, nsets))  # simplex-type decisions
    rs = rng.uniform(size=(n - 1, nsets))  # position inside the simplex

    # The walk fills dimensions in a fixed order; permute each sample
    # so every coordinate is exchangeable.  Every task set of a sweep
    # draws one vector, which the walk on Python floats serves.
    if nsets == 1:
        x = np.array(_walk_one(k, s, t, rt[:, 0], rs[:, 0]))
        return x[rng.permutation(n)][np.newaxis, :]
    x = _walk_vectors(k, s, t, rt, rs)
    for col in range(nsets):
        x[:, col] = x[rng.permutation(n), col]
    return x.T


def randfixedsum(
    n: int,
    total: float,
    nsets: int = 1,
    rng: np.random.Generator | None = None,
    low: float = 0.0,
    high: float = 1.0,
) -> np.ndarray:
    """Draw ``nsets`` vectors uniformly from
    ``{x ∈ [low, high]^n : Σ x = total}``.

    Parameters
    ----------
    n:
        Number of components per vector.
    total:
        Required sum; must satisfy ``n·low ≤ total ≤ n·high``.
    nsets:
        Number of independent vectors to draw.
    rng:
        Numpy random generator (a fresh default one when omitted).
    low, high:
        Per-component bounds.

    Returns
    -------
    Array of shape ``(nsets, n)``; each row sums to ``total`` (to
    floating-point accuracy) with all entries inside ``[low, high]``.
    """
    if n < 1:
        raise ValidationError(f"n must be ≥ 1, got {n}")
    if nsets < 1:
        raise ValidationError(f"nsets must be ≥ 1, got {nsets}")
    if high <= low:
        raise ValidationError(f"need low < high, got [{low}, {high}]")
    if not (n * low - 1e-12 <= total <= n * high + 1e-12):
        raise ValidationError(
            f"sum {total} unreachable with {n} components in "
            f"[{low}, {high}]"
        )
    if rng is None:
        rng = np.random.default_rng()
    span = high - low
    unit_total = (total - n * low) / span
    unit_total = min(max(unit_total, 0.0), float(n))
    unit = _randfixedsum_unit(n, unit_total, nsets, rng)
    return low + unit * span
