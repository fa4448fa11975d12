"""The row-blocked GP kernel: bit parity with the broadcast oracle, and memory.

``GaussianProcessRegressor`` builds its RBF kernel in row blocks of at most
``_KERNEL_BLOCK_ELEMENTS`` pairwise-difference elements.  Its kernel,
``alpha`` and posterior mean must equal, byte for byte, those of
:class:`oracles.gp.BroadcastGP`, which builds the kernel in one broadcast,
whatever the block structure: one block, a partial last block, a last block
that ends exactly on the boundary, or many blocks.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from oracles.gp import BroadcastGP
from repro.search import gp as gp_module
from repro.search.gp import GaussianProcessRegressor

MIB = 2**20


def _blocks(rows: int, other_rows: int, width: int) -> tuple[int, int]:
    """``(rows per block, rows in the last block)`` of a ``rows`` x
    ``other_rows`` kernel over ``width`` features."""
    per_block = max(1, gp_module._KERNEL_BLOCK_ELEMENTS // (other_rows * width))
    blocks = math.ceil(rows / per_block)
    return per_block, rows - (blocks - 1) * per_block


def _assert_bytes_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _data(n: int, d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d)) * rng.uniform(0.5, 4.0, size=d)
    targets = np.log(1.0 + np.abs(features).sum(axis=1)) \
        + 0.1 * rng.normal(size=n)
    return features, targets


# name: (training points, features, candidates).
CASES = {
    "single_row": (1, 3, 1),
    "one_feature": (200, 1, 7),
    "partial_last_block": (300, 15, 234),
    "exact_block_boundary": (512, 8, 512),
}


class TestBroadcastParity:
    def test_cases_have_the_block_structure_they_name(self):
        assert _blocks(200, 200, 1) == (5242, 200)  # one block
        # The gram and the cross kernel each end in a partial block (the
        # cross kernel's of a single row)...
        assert _blocks(300, 300, 15) == (233, 67)
        assert _blocks(234, 300, 15) == (233, 1)
        # ... or in a full one, two blocks each.
        assert _blocks(512, 512, 8) == (256, 256)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fit_and_predict_match_the_oracle_bytewise(self, case):
        # Hyperparameters that are not powers of two, so that scaling the
        # squared distances in another order would round differently.
        n, d, k = CASES[case]
        self._check(n, d, k, length_scale=1.7, signal_variance=1.3)

    def test_bayesian_sized_fit_spanning_many_blocks(self):
        # The Bayesian baseline's largest fit, with its hyperparameters: 59
        # blocks of 34 rows, the last one 28.  The oracle briefly holds a
        # 480-MB difference tensor.
        assert _blocks(2000, 2000, 15) == (34, 28)
        assert _blocks(100, 2000, 15) == (34, 32)
        self._check(2000, 15, 100, length_scale=2.0, signal_variance=1.0)

    @staticmethod
    def _check(n: int, d: int, k: int, **hyperparameters: float) -> None:
        features, targets = _data(n, d, seed=n)
        candidates, _ = _data(k, d, seed=n + 1)
        gp = GaussianProcessRegressor(noise=1e-2, **hyperparameters)
        gp.fit(features, targets)
        oracle = BroadcastGP(noise=1e-2, **hyperparameters).fit(features, targets)
        _assert_bytes_equal(gp._kernel(gp._train_x, gp._train_x),
                            oracle._kernel(oracle.train_x, oracle.train_x))
        _assert_bytes_equal(gp._alpha, oracle.alpha)
        _assert_bytes_equal(gp.predict(candidates), oracle.predict(candidates))


class TestMemory:
    def test_fit_peak_is_the_gram_plus_a_few_blocks(self):
        # The gram of 2,000 points is 30.5 MiB and one block's difference
        # temporary 8 MiB; the broadcast kernel traced 488.5 MiB here.
        features, targets = _data(2000, 15, seed=0)
        gp = GaussianProcessRegressor(length_scale=2.0, noise=1e-2)
        tracemalloc.start()
        try:
            gp.fit(features, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * MIB, f"traced peak {peak / MIB:.1f} MiB"
