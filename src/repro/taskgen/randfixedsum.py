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

The construction is a table of simplex volumes ``w`` (``n`` rows,
``n + 1`` columns), the transition probabilities ``t`` derived from
it, and a walk that reads one ``t`` per component.  A draw of
``nsets > 1`` vectors builds the whole table in numpy, ``O(n²)``, and
walks every column at once.  A draw of one vector, which every
synthetic task set makes, builds only the *band* of columns
``0..k+1`` of ``w`` on Python floats, where ``k = min(⌊u⌋, n−1)``:
``O(n·(k+2))``.  The band is exact, not an approximation: the walk
starts at column ``k`` of ``t`` and only moves left; ``t[r, c]`` reads
only ``w[r, c]``, ``w[r, c+1]`` and ``w[r+1, c+1]``; and ``w[r, c]``
depends only on columns ``≤ c`` of row ``r−1``.  A negative column is
reachable only after a decision uniform of exactly 0.0, and the whole
table never fills the cell it then reads, so that cell holds 0.0.
With the table's float operations in its order, the one-vector draw is
bitwise the ``nsets > 1`` route run on one column.
"""

from __future__ import annotations

import sys

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


def _walk_band(
    n: int, u: float, rt: np.ndarray, rs: np.ndarray
) -> list[float]:
    """The sampling walk for one vector (``rt``/``rs`` of length
    ``n−1``) on Python floats, over the band of the volume table that
    the module docstring describes, with :func:`_simplex_table`'s float
    operations in its order: bitwise :func:`_walk_vectors` on one
    column.  Each step's power stays numpy's array power on a length-1
    slice, because Python's ``**`` (libm) rounds differently in a few
    percent of draws.
    """
    k = min(int(u), n - 1)
    s = float(u)
    s1 = [s - (k - c) for c in range(k + 1)]
    s2 = [(k + n - c) - s for c in range(n)]
    tiny = sys.float_info.min
    w = [[0.0] * (k + 2) for _ in range(n)]
    w[0][1] = sys.float_info.max
    for i in range(2, n + 1):
        above, row = w[i - 2], w[i - 1]
        for c in range(min(i, k + 1)):
            tmp1 = above[c + 1] * s1[c] / i
            tmp2 = above[c] * s2[n - i + c] / i
            row[c + 1] = tmp1 + tmp2

    decisions = rt.tolist()
    x = [0.0] * n
    sums = s
    c = k  # the column of t the next decision reads
    sm = 0.0
    pr = 1.0
    for i in range(n - 1, 0, -1):
        step = n - i - 1
        if c < 0:
            t = 0.0
        else:
            # t[i−1, c], which _simplex_table fills at its step i + 1
            tmp1 = w[i - 1][c + 1] * s1[c] / (i + 1)
            tmp2 = w[i - 1][c] * s2[step + c] / (i + 1)
            tmp3 = w[i][c + 1] + tiny
            tmp4 = 1.0 if s2[step + c] > s1[c] else 0.0
            t = (tmp2 / tmp3) * tmp4 + (1.0 - tmp1 / tmp3) * (1.0 - tmp4)
        e = 1.0 if decisions[step] <= t else 0.0
        sx = (rs[step : step + 1] ** (1.0 / i)).item()
        sm = sm + (1.0 - sx) * pr * sums / (i + 1)
        pr = sx * pr
        x[step] = sm + pr * e
        sums = sums - e
        c -= int(e)
    x[n - 1] = sm + pr * sums
    return x


def _randfixedsum_unit(
    n: int, u: float, nsets: int, rng: np.random.Generator
) -> np.ndarray:
    """Stafford's algorithm on the unit box: ``nsets`` vectors in
    ``[0,1]^n`` each summing to ``u`` (requires ``0 ≤ u ≤ n``)."""
    if n == 1:
        return np.full((nsets, 1), u)
    rt = rng.uniform(size=(n - 1, nsets))  # simplex-type decisions
    rs = rng.uniform(size=(n - 1, nsets))  # position inside the simplex

    # The walk fills dimensions in a fixed order; permute each sample
    # so every coordinate is exchangeable.  Every task set of a sweep
    # draws one vector, which the band walk serves: it builds only
    # columns 0..k+1 of Stafford's table, O(n·(k+2)) against O(n²).
    # That is exact: a walk from column k only moves left, column c of
    # t reads columns c and c+1 of the volumes, each of which needs no
    # column right of it, and a negative column (after a decision of
    # exactly 0.0) reads 0.0 from either table.
    if nsets == 1:
        x = np.array(_walk_band(n, u, rt[:, 0], rs[:, 0]))
        return x[rng.permutation(n)][np.newaxis, :]
    k, s, t = _simplex_table(n, u)
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
