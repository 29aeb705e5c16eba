"""Unit and property tests for Stafford's Randfixedsum."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.taskgen.randfixedsum import (
    _randfixedsum_unit,
    _simplex_table,
    _walk_band,
    _walk_vectors,
    randfixedsum,
)


class TestBasics:
    def test_single_component(self, rng):
        x = randfixedsum(1, 0.7, 3, rng)
        assert x.shape == (3, 1)
        assert np.allclose(x, 0.7)

    def test_shape(self, rng):
        assert randfixedsum(5, 2.0, 7, rng).shape == (7, 5)

    def test_sums_exact(self, rng):
        x = randfixedsum(6, 2.5, 100, rng)
        assert np.allclose(x.sum(axis=1), 2.5)

    def test_unit_bounds_respected(self, rng):
        x = randfixedsum(4, 3.2, 200, rng)
        assert x.min() >= -1e-12
        assert x.max() <= 1.0 + 1e-12

    def test_custom_bounds(self, rng):
        x = randfixedsum(5, 2.0, 100, rng, low=0.1, high=0.6)
        assert np.allclose(x.sum(axis=1), 2.0)
        assert x.min() >= 0.1 - 1e-12
        assert x.max() <= 0.6 + 1e-12

    def test_degenerate_total_at_lower_corner(self, rng):
        x = randfixedsum(3, 0.3, 10, rng, low=0.1, high=0.9)
        assert np.allclose(x, 0.1)

    def test_degenerate_total_at_upper_corner(self, rng):
        x = randfixedsum(3, 3.0, 10, rng)
        assert np.allclose(x, 1.0)

    def test_reproducible_with_seeded_rng(self):
        a = randfixedsum(5, 2.0, 4, np.random.default_rng(3))
        b = randfixedsum(5, 2.0, 4, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_component_means_uniform(self):
        # Exchangeability: each coordinate has mean u/n.
        rng = np.random.default_rng(0)
        x = randfixedsum(4, 2.0, 20_000, rng)
        assert np.allclose(x.mean(axis=0), 0.5, atol=0.01)


class TestValidation:
    def test_unreachable_sum_rejected(self, rng):
        with pytest.raises(ValidationError):
            randfixedsum(3, 3.5, 1, rng)
        with pytest.raises(ValidationError):
            randfixedsum(3, -0.1, 1, rng)

    def test_bad_counts_rejected(self, rng):
        with pytest.raises(ValidationError):
            randfixedsum(0, 0.0, 1, rng)
        with pytest.raises(ValidationError):
            randfixedsum(3, 1.0, 0, rng)

    def test_bad_bounds_rejected(self, rng):
        with pytest.raises(ValidationError):
            randfixedsum(3, 1.0, 1, rng, low=0.5, high=0.5)


class TestBatchKernel:
    """One call draws an ``nsets`` batch of rows from a single table
    build; the synthetic recipe draws one row per call."""

    def test_rows_hit_their_own_totals(self):
        rng = np.random.default_rng(3)
        for total in np.linspace(0.05, 7.8, 117):
            rows = randfixedsum(8, total, 4, rng)
            assert rows.shape == (4, 8)
            assert np.allclose(rows.sum(axis=1), total, atol=1e-9)
            assert rows.min() >= -1e-12
            assert rows.max() <= 1.0 + 1e-12

    def test_single_component(self):
        # a one-task split is forced, so it draws nothing from the stream
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for total in (0.2, 0.9):
            rows = randfixedsum(1, total, 2, rng)
            assert np.array_equal(rows, np.full((2, 1), total))
        assert rng.bit_generator.state == state

    def test_affine_bounds(self):
        rng = np.random.default_rng(1)
        for total in (1.0, 1.5, 2.0):
            rows = randfixedsum(5, total, 3, rng, low=0.1, high=0.6)
            assert np.allclose(rows.sum(axis=1), total, atol=1e-9)
            assert rows.min() >= 0.1 - 1e-12
            assert rows.max() <= 0.6 + 1e-12

    def test_reproducible_with_seeded_rng(self):
        # batches drawn back to back from one stream repeat as a whole
        def draw(seed):
            rng = np.random.default_rng(seed)
            return [randfixedsum(6, t, 3, rng) for t in (0.5, 1.3, 2.9)]

        a, b = draw(8), draw(8)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], draw(9)[0])

    def test_distribution_matches_scalar_kernel(self):
        # one 6000-row batch against 6000 one-row calls: identical
        # per-component moments (both draw uniformly from the same
        # simplex slice)
        u, n = 1.3, 4
        batch = randfixedsum(n, u, 6000, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        rows = np.vstack([randfixedsum(n, u, 1, rng) for _ in range(6000)])
        assert np.allclose(batch.mean(0), rows.mean(0), atol=0.02)
        assert np.allclose(batch.std(0), rows.std(0), atol=0.02)

    def test_integer_shelf_boundaries(self):
        # sums sitting exactly on integers exercise the k = floor(u)
        # shelf selection, capped at n - 1 on the top corner
        rng = np.random.default_rng(5)
        for total in (1.0, 2.0, 3.0, 4.0, 0.5, 2.5):
            rows = randfixedsum(4, total, 50, rng)
            assert np.allclose(rows.sum(axis=1), total, atol=1e-9)
            assert rows.min() >= -1e-12
            assert rows.max() <= 1.0 + 1e-12

    def test_validation(self):
        # every rejection comes before the first draw
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match="n must be"):
            randfixedsum(0, 0.5, 2, rng)
        with pytest.raises(ValidationError, match="nsets must be"):
            randfixedsum(3, 0.5, 0, rng)
        with pytest.raises(ValidationError, match="unreachable"):
            randfixedsum(3, 3.5, 2, rng)
        with pytest.raises(ValidationError, match="low < high"):
            randfixedsum(3, 1.0, 2, rng, low=1.0, high=0.5)
        assert rng.bit_generator.state == state

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        nsets=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_sums_and_bounds(self, n, nsets, seed):
        rng = np.random.default_rng(seed)
        total = float(rng.uniform(0.0, n))
        rows = randfixedsum(n, total, nsets, rng)
        assert rows.shape == (nsets, n)
        assert np.allclose(rows.sum(axis=1), total, atol=1e-9)
        assert rows.min() >= -1e-9
        assert rows.max() <= 1.0 + 1e-9


def _vector_route(n, u, rng):
    """What ``_randfixedsum_unit`` does for ``nsets > 1``, run on one
    column: the reference for its single-vector walk."""
    if n == 1:
        return np.full((1, 1), u)
    k, s, t = _simplex_table(n, u)
    rt = rng.uniform(size=(n - 1, 1))
    rs = rng.uniform(size=(n - 1, 1))
    x = _walk_vectors(k, s, t, rt, rs)
    x[:, 0] = x[rng.permutation(n), 0]
    return x.T


class TestSingleVectorWalk:
    """Every task set draws one vector, which the walk on Python floats
    serves; it must be bitwise the vector walk run on one column."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.one_of(
            st.sampled_from([1, 2]), st.integers(min_value=3, max_value=90)
        ),
        corner=st.sampled_from(["zero", "integer", "full", "any"]),
        frac=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bitwise_the_vector_walk(self, n, corner, frac, seed):
        u = {
            "zero": 0.0,
            "integer": float(round(frac * n)),
            "full": float(n),
            "any": frac * n,
        }[corner]
        single_rng = np.random.default_rng(seed)
        vector_rng = np.random.default_rng(seed)
        single = _randfixedsum_unit(n, u, 1, single_rng)
        vector = _vector_route(n, u, vector_rng)
        assert single.shape == vector.shape == (1, n)
        assert single.tobytes() == vector.tobytes()
        # both routes leave the stream at the same place
        assert single_rng.random() == vector_rng.random()


def _columns(n, k, t, rt):
    """The columns of ``t`` that the walk over ``rt`` reads, as
    :func:`_walk_vectors` moves through them."""
    j, columns = k + 1, []
    for i in range(n - 1, 0, -1):
        columns.append(j - 1)
        j -= int(rt[n - i - 1] <= t[i - 1, j - 1])
    return columns


class TestBandWalk:
    """The one-vector walk builds only columns 0..k+1 of Stafford's
    table; every draw must still be bitwise the whole table's."""

    @pytest.mark.parametrize("n", [2, 3, 7, 25])
    @pytest.mark.parametrize("u", [0.0, 0.4, 1.0, 2.5])
    @pytest.mark.parametrize("below", [1, 2])
    def test_zero_decisions_reach_negative_columns(self, n, u, below):
        u = min(u, float(n))
        k, s, t = _simplex_table(n, u)
        rng = np.random.default_rng(n)
        rt = rng.uniform(size=n - 1)
        rs = rng.uniform(size=n - 1)
        # each exact 0.0 moves the walk one column left; the positive
        # decisions after them read column −below
        rt[: k + below] = 0.0
        if n > k + below + 1:
            assert min(_columns(n, k, t, rt)) == -below
        band = np.array(_walk_band(n, u, rt, rs))
        vector = _walk_vectors(k, s, t, rt[:, np.newaxis], rs[:, np.newaxis])
        assert band.tobytes() == vector[:, 0].tobytes()

    def test_every_shelf_up_to_forty_components(self):
        # every integer and half-integer u in [0, n]: every k = ⌊u⌋
        # from 0 to n − 1, with the top corner u = n capped at n − 1
        for n in range(1, 41):
            for twice_u in range(2 * n + 1):
                u = twice_u / 2
                seed = 1000 * n + twice_u
                single = _randfixedsum_unit(
                    n, u, 1, np.random.default_rng(seed)
                )
                vector = _vector_route(n, u, np.random.default_rng(seed))
                assert single.tobytes() == vector.tobytes(), (n, u)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        frac=st.floats(min_value=0.01, max_value=0.99),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_sum_and_bounds_invariant(self, n, frac, seed):
        total = frac * n
        rng = np.random.default_rng(seed)
        x = randfixedsum(n, total, 3, rng)
        assert np.allclose(x.sum(axis=1), total, atol=1e-9)
        assert x.min() >= -1e-9
        assert x.max() <= 1.0 + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=8),
        frac=st.floats(min_value=0.05, max_value=0.95),
        low=st.floats(min_value=0.0, max_value=0.2),
        span=st.floats(min_value=0.1, max_value=0.8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_affine_bounds_invariant(self, n, frac, low, span, seed):
        high = low + span
        total = n * (low + frac * span)
        rng = np.random.default_rng(seed)
        x = randfixedsum(n, total, 2, rng, low=low, high=high)
        assert np.allclose(x.sum(axis=1), total, atol=1e-9)
        assert x.min() >= low - 1e-9
        assert x.max() <= high + 1e-9
