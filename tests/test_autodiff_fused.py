"""Parity of the fused autodiff kernels with the graphs they stand for.

Every fused op of :mod:`repro.autodiff.ops` must reproduce, bit for bit, the
chain of nodes it replaces (``tests/oracles/chains.py``): the loss, every
parameter gradient and every Adam update are compared as ``tobytes()``, so a
``-0.0`` that should be ``0.0`` fails.  Each case runs under a fresh
:meth:`Tensor.backward` per step and under :class:`Tape` replay, across Adam
steps that move the parameters (and so the kernels' masks).
"""

import numpy as np
import pytest

from repro.autodiff import Adam, Tape, Tensor, ops

from oracles.chains import chain_prod, recomputing_reload_product, sliced_gather
from oracles.tail import fold_max

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

STEPS = 4


def _record(build, values, replay):
    """Loss, gradient and update bytes of ``STEPS`` Adam steps on ``build``."""
    params = [Tensor(value.copy(), requires_grad=True) for value in values]
    optimizer = Adam(params, lr=0.2)
    tape = Tape(lambda: build(*params)) if replay else None
    record = []
    for _ in range(STEPS):
        optimizer.zero_grad()
        if replay:
            loss = tape.forward()
            tape.backward()
        else:
            loss = build(*params)
            loss.backward()
        record.append(loss.data.tobytes())
        record += [b"none" if p.grad is None else p.grad.tobytes() for p in params]
        optimizer.step()
        record += [p.data.tobytes() for p in params]
    return record


def assert_parity(fused, chained, values):
    """Fused and chained graphs agree bitwise, re-traced and replayed."""
    reference = _record(chained, values, replay=False)
    assert _record(chained, values, replay=True) == reference
    assert _record(fused, values, replay=False) == reference
    assert _record(fused, values, replay=True) == reference


def _weights(shape, seed=0):
    """Loss weights with exact ``-0.0`` and ``0.0`` entries and both signs."""
    weights = np.random.default_rng(seed).uniform(-1.0, 1.0, shape)
    weights.flat[0] = -0.0
    weights.flat[-1] = 0.0
    return Tensor(weights)


RNG = np.random.default_rng(7)
S, L = 3, 5
GRID = [RNG.uniform(0.5, 2.0, (S, L)) for _ in range(2)]


def _walk_index(level):
    """A reload walk's index: per (start, layer) a seeded permutation of the
    dimension axis, at one ``level`` of an ``(S, L, levels, dims)`` stack
    (``None``: of an ``(S, L, dims)`` one)."""
    rng = np.random.default_rng(9 if level is None else level)
    perm = np.array([[rng.permutation(4) for _ in range(L)] for _ in range(S)])
    rows = (np.arange(S)[:, None, None], np.arange(L)[None, :, None])
    return rows + ((level, perm) if level is not None else (perm,))


class TestGather:
    """``ops.gather``: a slice plus an ``np.add.at`` scatter, as one node."""

    TEMPORAL = np.random.default_rng(3).uniform(-1.0, 1.0, (S, L, 3, 4))
    DRAM = np.random.default_rng(4).uniform(-1.0, 1.0, (S, L, 4))

    def _loss(self, take, x, d):
        # Three temporal levels and two reads of one shared DRAM node, as
        # the reload walks take them.
        dram = d * 2.0
        walk = ops.concat([take(x, _walk_index(0)), take(x, _walk_index(2)),
                           take(dram, _walk_index(None))])
        other = ops.concat([take(x, _walk_index(1)), take(dram, _walk_index(None))])
        return (walk * _weights(walk.shape)).sum() + (other * other).sum()

    def test_matches_slice_and_scatter(self):
        def fused(source, index):
            return ops.gather(source, np.ravel_multi_index(index, source.shape))

        assert_parity(lambda x, d: self._loss(fused, x, d),
                      lambda x, d: self._loss(sliced_gather, x, d),
                      [self.TEMPORAL, self.DRAM])

    def test_negative_zero_gradient_becomes_positive_zero(self):
        x = Tensor(self.TEMPORAL, requires_grad=True)
        index = _walk_index(1)
        out = ops.gather(x, np.ravel_multi_index(index, x.shape))
        assert np.array_equal(out.data, self.TEMPORAL[index])
        seed = np.full(out.shape, -0.0)
        out.backward(seed)
        expected = np.zeros(x.shape)
        np.add.at(expected, index, seed)
        assert x.grad.tobytes() == expected.tobytes()
        assert not np.signbit(x.grad).any()

    def test_rejects_repeated_positions(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with pytest.raises(ValueError, match="distinct"):
            ops.gather(x, np.array([0, 2, 0]))


class TestForwardCachedKernels:
    """Masks and partial products kept by the forward, reused by the backward."""

    def test_reload_product_matches_recomputing_form(self):
        rng = np.random.default_rng(5)
        relevant = rng.random((S, L, 9)) > 0.5
        # Log factors around 0 put walk factors on both sides of the 1 + eps
        # gate, and the Adam steps move them across it.
        logs = rng.uniform(-0.3, 0.3, (S, L, 9))
        w = _weights((S, L))

        def loss(product):
            return lambda x: (product(ops.exp(x), relevant) * w).sum()

        assert_parity(loss(ops.reload_product), loss(recomputing_reload_product),
                      [logs])

    def test_fold_max_matches_chained_maximum(self):
        w = _weights((S, L))

        def candidates(x, y):
            # Three equal x * 1.5 nodes keep exact ties through every step.
            return [x * 1.5, y, x * 1.5, y * 0.5, x * 1.5]

        def chained(x, y):
            out, *rest = candidates(x, y)
            for value in rest:
                out = ops.maximum(out, value)
            return (out * w).sum()

        def fused(x, y):
            stacked = ops.transpose(ops.stack(candidates(x, y)), (1, 2, 0))
            return (fold_max(stacked) * w).sum()

        assert_parity(fused, chained, GRID[:2])

    def test_long_fold_with_tie_runs_and_nan_matches_chained_maximum(self):
        """42 candidates, as many as resnet50's side lengths, in runs of three
        exact ties, and one ``NaN`` entry, which zeroes its column's shares."""
        w = _weights((S, L))
        nan_mask = np.ones((S, L))
        nan_mask[1, 2] = np.nan

        def candidates(x):
            values = [x[k // 3] * 1.0 for k in range(42)]
            values[20] = values[20] * nan_mask
            return values

        def chained(x):
            out, *rest = candidates(x)
            for value in rest:
                out = ops.maximum(out, value)
            return (out * w).sum()

        def fused(x):
            stacked = ops.transpose(ops.stack(candidates(x)), (1, 2, 0))
            return (fold_max(stacked) * w).sum()

        values = np.random.default_rng(17).uniform(0.5, 2.0, (14, S, L))
        assert_parity(fused, chained, [values])


def _first_step_trace(network):
    """Tape nodes, ``Tensor`` indexes and ``np.add.at`` calls of a default
    DOSA search's first step.

    The search runs at its default settings; a budget of one gradient step
    (7 start points x 1 sample) ends it at the first rounding point.  The
    indexes are those recorded while the step's graph is traced; the
    ``np.add.at`` calls are counted over the step's forward and backward.
    """
    from unittest import mock

    import repro
    from repro.core.optimizer import dosa

    indexes = []
    traced = []
    scatters = []
    original = Tensor.__getitem__
    add_at = np.add.at

    def recording_getitem(tensor, index):
        indexes.append(index)
        return original(tensor, index)

    def counting_add_at(*args, **kwargs):
        scatters.append(args[1] if len(args) > 1 else None)
        return add_at(*args, **kwargs)

    class RecordingTape(dosa.Tape):
        def forward(self):
            if traced or self.recorded:
                return super().forward()
            with mock.patch.object(Tensor, "__getitem__", recording_getitem):
                loss = super().forward()
            traced.append(self.num_nodes)
            return loss

    class CountingAdd:
        """``np.add`` with its ``at`` method counted (ufuncs are immutable)."""

        def __getattr__(self, name):
            return counting_add_at if name == "at" else getattr(add_at.__self__, name)

        def __call__(self, *args, **kwargs):
            return add_at.__self__(*args, **kwargs)

    with mock.patch.object(dosa, "Tape", RecordingTape), \
            mock.patch.object(np, "add", CountingAdd()):
        repro.optimize(network, "dosa", seed=0, budget=7)
    return traced[0], indexes, scatters


class TestDefaultStep:
    """The default DOSA step keeps its dense kernels."""

    #: Tape nodes of one default step (57 with a node per operation after the
    #: traffic terms, 184 with the per-column factor grid, 281 with a node per
    #: multiplication, level slice and walk gather).
    MAX_NODES = 29

    @pytest.mark.parametrize("network", ["resnet50", "bert", "gpt2_decoder"])
    def test_tape_nodes_at_most_fused_count(self, network):
        nodes, _, _ = _first_step_trace(network)
        assert nodes <= self.MAX_NODES

    def test_no_advanced_index_scatter(self):
        """No ``np.add.at`` scatter runs in a step, and every ``Tensor`` index
        the step records is basic."""
        _, indexes, scatters = _first_step_trace("resnet50")
        assert scatters == []
        for index in indexes:
            items = index if isinstance(index, tuple) else (index,)
            assert all(item is None or item is Ellipsis
                       or isinstance(item, (int, slice)) for item in items), index


def _grads(build, values):
    """Loss value and parameter gradients of one ``build`` over fresh leaves."""
    params = [Tensor(value.copy(), requires_grad=True) for value in values]
    loss = build(*params)
    loss.backward()
    return loss.data.tobytes(), [p.grad for p in params]


def assert_value_parity(fused, chained, values):
    """Equal loss bytes; gradients equal up to accumulation order."""
    fused_loss, fused_grads = _grads(fused, values)
    chained_loss, chained_grads = _grads(chained, values)
    assert fused_loss == chained_loss
    for fused_grad, chained_grad in zip(fused_grads, chained_grads):
        np.testing.assert_allclose(fused_grad, chained_grad, rtol=1e-12, atol=0.0)


class TestDenseKernels:
    """The dense model's kernels: chain values bit for bit, chain gradients
    up to the order in which they accumulate."""

    FACTORS = np.random.default_rng(11).uniform(0.3, 3.0, (4, 3, S, L))

    def test_cumprod_matches_prefix_chains(self):
        w = _weights((4, 3, S, L))

        def chained(x):
            prefixes = [chain_prod([x[i] for i in range(k + 1)]) for k in range(4)]
            return (ops.stack(prefixes) * w).sum()

        assert_value_parity(lambda x: (ops.cumprod(x) * w).sum(), chained,
                            [self.FACTORS])

    @pytest.mark.parametrize("sequences", [
        [[5, 0, 11, 7]],
        [list(range(12)), [3, 2, 1], [9]],
        [4, 8, 1],
    ], ids=["one-row", "rows", "bare-sequence"])
    def test_sequence_prod_matches_chain(self, sequences):
        rows = [sequences] if np.ndim(sequences[0]) == 0 else sequences
        shape = (S, L) if np.ndim(sequences[0]) == 0 else (len(rows), S, L)
        w = _weights(shape)

        def chained(x):
            flat = x.reshape(12, S, L)
            products = [chain_prod([flat[i] for i in row]) for row in rows]
            out = products[0] if np.ndim(sequences[0]) == 0 else ops.stack(products)
            return (out * w).sum()

        assert_value_parity(
            lambda x: (ops.sequence_prod(x, sequences, slot_ndim=2) * w).sum(),
            chained, [self.FACTORS])

    def test_sequence_sum_matches_chain(self):
        sequences = [[0, 3], [2, 1, 3], [3]]
        w = _weights((3, S, L))
        values = [RNG.uniform(-2.0, 2.0, (4, S, L))]

        def chained(x):
            sums = []
            for row in sequences:
                total = x[row[0]]
                for index in row[1:]:
                    total = total + x[index]
                sums.append(total)
            return (ops.stack(sums) * w).sum()

        assert_value_parity(lambda x: (ops.sequence_sum(x, sequences) * w).sum(),
                            chained, values)

    @pytest.mark.parametrize("sequences", [[4, 0, 2], [[0, 3], [2, 1, 3, 4], [5]]],
                             ids=["one-sequence", "table"])
    def test_sequences_of_scalar_slots_match_chains(self, sequences):
        """On a 1-D tensor every slot is a scalar.  The factors and weights
        are small dyadic numbers, so the chains' products, and each
        product over a factor, are exact: values and gradients match as
        bytes."""
        rows = [sequences] if np.ndim(sequences[0]) == 0 else sequences
        single = np.ndim(sequences[0]) == 0
        w = Tensor(np.array(2.0) if single else np.array([1.0, -2.0, 0.5]))
        factors = np.array([2.0, 3.0, 0.5, 4.0, 1.5, 8.0])

        def chains(fold):
            def build(x):
                values = [fold([x[i] for i in row]) for row in rows]
                return ((values[0] if single else ops.stack(values)) * w).sum()
            return build

        def chain_sum(values):
            total = values[0]
            for value in values[1:]:
                total = total + value
            return total

        for fused, chained in (
                (lambda x: (ops.sequence_prod(x, sequences) * w).sum(), chains(chain_prod)),
                (lambda x: (ops.sequence_sum(x, sequences) * w).sum(), chains(chain_sum))):
            fused_loss, [fused_grad] = _grads(fused, [factors])
            chained_loss, [chained_grad] = _grads(chained, [factors])
            assert fused_loss == chained_loss
            assert fused_grad.tobytes() == chained_grad.tobytes()

    def test_sequences_reject_repeated_slots(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="at most once"):
            ops.sequence_prod(x, [[0, 1, 0]])
        with pytest.raises(ValueError, match="at most once"):
            ops.sequence_sum(x, [0, 0])

    def test_reload_product_walk_suffixes_broadcast(self):
        """One walk against several relevance masks, positions first, equals
        each mask's own walk (the suffix from its first relevant position)."""
        rng = np.random.default_rng(13)
        logs = rng.uniform(-0.4, 0.4, (9, 1, S, L))
        relevant = rng.random((9, 3, S, L)) > 0.5
        relevant[:3, 1] = False   # a walk starting at position 3
        relevant[:6, 2] = False   # one starting at position 6
        w = _weights((3, S, L))

        def separate(x):
            walk = ops.exp(x)
            parts = [ops.reload_product(
                ops.transpose(walk.reshape(9, S, L), (1, 2, 0)),
                np.moveaxis(relevant[:, k], 0, -1)) for k in range(3)]
            return (ops.stack(parts) * w).sum()

        assert_value_parity(
            lambda x: (ops.reload_product(ops.exp(x), relevant, axis=0) * w).sum(),
            separate, [logs])

    @pytest.mark.parametrize("axis, keepdims", [(0, False), (1, True), (-1, True)])
    def test_fold_max_axis_matches_chained_maximum(self, axis, keepdims):
        # Exact ties (repeated rows) through the fold.
        data = np.concatenate([GRID[0][None], GRID[1][None], GRID[0][None]])
        w = _weights(np.max(data, axis=axis, keepdims=keepdims).shape)

        def chained(x):
            moved = ops.transpose(x, [axis % 3] + [a for a in range(3) if a != axis % 3])
            out = moved[0]
            for k in range(1, moved.shape[0]):
                out = ops.maximum(out, moved[k])
            if keepdims:
                out = out.reshape(w.shape)
            return (out * w).sum()

        assert_value_parity(
            lambda x: (fold_max(x, axis=axis, keepdims=keepdims) * w).sum(),
            chained, [data])
