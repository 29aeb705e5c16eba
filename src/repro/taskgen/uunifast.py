"""The UUniFast family of utilisation splitters.

UUniFast [Bini & Buttazzo, RTSJ 2005] draws a utilisation vector
summing to ``u`` by peeling the remaining sum with order-statistic
factors — ``O(n)`` per vector, against the ``O(n·(k+2))`` band
(``k = ⌊u⌋``) of Randfixedsum's table that its one-vector draw builds —
but its components are unbounded above, so on multicore targets
(``u > 1``) a draw can demand more than one core from a single task.
UUniFast-Discard [Emberson et al., WATERS 2010] repairs that by
resampling vectors containing any component above 1 until one is
admissible.

Both draw ``nsets`` vectors per call, fully vectorised (the synthetic
recipe asks for one per task set; UUniFast-Discard redraws only the
rejected ones), and back the workload generators in
:mod:`repro.workloads` together with :func:`project_box_sum` — the
deterministic clamp-and-redistribute projection the synthetic recipe
uses to keep per-task utilisations inside ``[floor, 1]`` without
drifting off the target sum.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["uunifast", "uunifast_discard", "project_box_sum"]


def uunifast(
    n: int,
    total: float,
    nsets: int = 1,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Draw ``nsets`` UUniFast vectors of ``n`` components summing to
    ``total``.

    Classic UUniFast: components are exchangeable with the correct
    joint density on the simplex, but individually unbounded above —
    callers targeting ``total > 1`` should use
    :func:`uunifast_discard` or project with :func:`project_box_sum`.

    Returns an array of shape ``(nsets, n)``.
    """
    if n < 1:
        raise ValidationError(f"n must be ≥ 1, got {n}")
    if nsets < 1:
        raise ValidationError(f"nsets must be ≥ 1, got {nsets}")
    if total < 0:
        raise ValidationError(f"total must be ≥ 0, got {total}")
    if rng is None:
        rng = np.random.default_rng()
    if n == 1:
        return np.full((nsets, 1), float(total))
    # sum_{i+1} = sum_i · r_i^(1/(n-i)): the classic peeling recursion,
    # run for all sets at once via a row-wise cumulative product.
    r = rng.uniform(size=(nsets, n - 1))
    factors = r ** (1.0 / np.arange(n - 1, 0, -1.0))
    sums = total * np.cumprod(factors, axis=1)
    boundaries = np.concatenate(
        [np.full((nsets, 1), float(total)), sums], axis=1
    )
    return np.concatenate(
        [boundaries[:, :-1] - boundaries[:, 1:], sums[:, -1:]], axis=1
    )


def uunifast_discard(
    n: int,
    total: float,
    nsets: int = 1,
    rng: np.random.Generator | None = None,
    high: float = 1.0,
    max_attempts: int = 100,
) -> np.ndarray:
    """UUniFast-Discard: resample any vector with a component above
    ``high`` until every vector is admissible.

    Only the offending vectors are redrawn each round, so the accepted
    ones keep their (unbiased) distribution.  After ``max_attempts``
    rounds any stragglers are projected onto the admissible box with
    :func:`project_box_sum` — a biased but deterministic fallback that
    guarantees termination (relevant only when ``total`` is close to
    ``n·high``, where the discard acceptance rate collapses).
    """
    if not (total <= n * high + 1e-12):
        raise ValidationError(
            f"sum {total} unreachable with {n} components in [0, {high}]"
        )
    if rng is None:
        rng = np.random.default_rng()
    utils = uunifast(n, total, nsets, rng)
    for _ in range(max_attempts):
        bad = np.flatnonzero((utils > high).any(axis=1))
        if bad.size == 0:
            return utils
        utils[bad] = uunifast(n, total, int(bad.size), rng)
    return project_box_sum(utils, total, low=0.0, high=high)


def project_box_sum(
    values: np.ndarray,
    total: float,
    low: float = 0.0,
    high: float = 1.0,
) -> np.ndarray:
    """Project each row of ``values`` onto
    ``{x ∈ [low, high]^n : Σ x = total}`` by clamping and
    redistributing the clamped mass proportionally to the remaining
    head-room (or slack).  Every row shares the one target sum.

    Deterministic and idempotent: rows already inside the box and on
    the target sum are returned bit-for-bit unchanged.  Rows whose sum
    is off redistribute in one proportional pass (plus a float-cleanup
    pass), which cannot push any component back out of ``[low, high]``.
    A degenerate target at or below ``n·low`` falls back to an even
    ``total / n`` split.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    if high <= low:
        raise ValidationError(f"need low < high, got [{low}, {high}]")
    total = float(total)
    if total > n * high + 1e-9:
        raise ValidationError(
            f"sum {total} unreachable with {n} components in "
            f"[{low}, {high}]"
        )
    if total <= n * low:
        return np.full(values.shape, total / n)
    tiny = np.finfo(float).tiny
    tol = 1e-12 * max(1.0, abs(total))
    out = np.clip(values, low, high)
    for _ in range(2):
        deficit = total - out.sum(axis=-1, keepdims=True)
        if np.all(np.abs(deficit) <= tol):
            break
        headroom = high - out
        slack = out - low
        up = np.clip(deficit, 0.0, None)
        down = np.clip(-deficit, 0.0, None)
        out = (
            out
            + headroom * (up / np.maximum(headroom.sum(-1, keepdims=True), tiny))
            - slack * (down / np.maximum(slack.sum(-1, keepdims=True), tiny))
        )
    return out
