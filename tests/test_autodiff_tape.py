"""Tape replay, fused reductions, and the in-place Adam update.

The compiled tape must be *exactly* re-tracing: every assertion here is
bitwise (``==`` / ``array_equal``), not tolerance-based, because the DOSA
inner loop relies on replayed steps being indistinguishable from re-traced
ones.
"""

import numpy as np
import pytest

from repro.autodiff import Adam, Tape, TapeError, Tensor, ops

from oracles.chains import chain_prod
from oracles.layer_model import total_sum
from oracles.tail import fold_max

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _make_params():
    p = Tensor(np.array([0.4, 1.2, 2.5]), requires_grad=True, name="p")
    q = Tensor(np.array([[1.0, -0.5], [0.25, 2.0]]), requires_grad=True, name="q")
    return p, q


def _loss_fn(p, q):
    a = ops.exp(p) * 2.0 + ops.relu(p - 1.0)
    b = ops.maximum((q * q).sum(), a.sum())
    c = ops.softmax(p).sum() + fold_max(a) + ops.fold_sum(a)
    return b * 0.5 + c


class TestTapeReplay:
    def test_replay_matches_retrace_bitwise_across_steps(self):
        p, q = _make_params()
        tape = Tape(lambda: _loss_fn(p, q))
        optimizer = Adam([p, q], lr=0.1)

        p2 = Tensor(p.data.copy(), requires_grad=True)
        q2 = Tensor(q.data.copy(), requires_grad=True)
        reference_optimizer = Adam([p2, q2], lr=0.1)

        for _ in range(6):
            optimizer.zero_grad()
            loss = tape.forward()
            tape.backward()

            reference_optimizer.zero_grad()
            reference = _loss_fn(p2, q2)
            reference.backward()

            assert float(loss.data) == float(reference.data)
            assert np.array_equal(p.grad, p2.grad)
            assert np.array_equal(q.grad, q2.grad)
            optimizer.step()
            reference_optimizer.step()
            assert np.array_equal(p.data, p2.data)
            assert np.array_equal(q.data, q2.data)

    def test_replay_tracks_mask_flips(self):
        """relu/maximum masks are re-derived, not frozen at trace time."""
        p = Tensor(np.array([2.0]), requires_grad=True)
        tape = Tape(lambda: ops.relu(p - 1.0).sum())
        tape.forward()
        tape.backward()
        assert p.grad[0] == 1.0
        p.data = np.array([0.5])  # flips the relu mask
        p.zero_grad()
        assert float(tape.forward().data) == 0.0
        tape.backward()
        assert p.grad[0] == 0.0

    def test_invalidate_retraces(self):
        p, _ = _make_params()
        structure = [ops.fold_sum(p)]
        tape = Tape(lambda: structure[0])
        assert float(tape.forward().data) == float(np.cumsum(p.data)[-1])
        assert tape.recorded and tape.num_nodes > 0
        structure[0] = fold_max(p)  # new graph structure
        tape.invalidate()
        assert not tape.recorded
        assert float(tape.forward().data) == p.data.max()

    def test_trace_errors(self):
        p, _ = _make_params()
        with pytest.raises(TapeError):
            Tape(lambda: p * 2.0).forward()  # non-scalar loss
        with pytest.raises(TapeError):
            Tape(lambda: Tensor(1.0)).forward()  # no grad path
        with pytest.raises(TapeError):
            Tape(lambda: (p * 2.0).sum()).backward()  # backward before forward


class TestBackwardProgram:
    """The compiled reverse accumulation shared by ``Tensor.backward`` and tapes."""

    def test_self_product_accumulates_both_contributions(self):
        x = Tensor(np.array([0.5, -3.0, 2.0]), requires_grad=True)
        (x * x).backward(np.ones(3))
        assert np.array_equal(x.grad, 2.0 * x.data)
        tape = Tape(lambda: (x * x).sum())
        x.zero_grad()
        tape.forward()
        tape.backward()
        assert np.array_equal(x.grad, 2.0 * x.data)

    def test_constants_receive_no_gradient(self):
        x = Tensor(np.array([1.5, 4.0]), requires_grad=True)
        constants = [Tensor(np.array([2.0, 0.5])) for _ in range(4)]
        c_mul, c_div, c_sub, c_max = constants
        loss = ops.maximum(x * c_mul / c_div - c_sub, c_max).sum()
        tape = Tape(lambda: loss)
        tape.forward()
        tape.backward()
        assert x.grad is not None
        assert all(c.grad is None for c in constants)
        loss.backward()
        assert all(c.grad is None for c in constants)

    @pytest.mark.parametrize("index", [
        (slice(None), 1),
        (0, slice(1, None)),
        (Ellipsis, 2),
        (None, 1, slice(None, None, 2)),
        1,
    ])
    def test_basic_index_scatters_like_add_at(self, index):
        data = np.arange(12.0).reshape(3, 4) - 5.5
        x = Tensor(data, requires_grad=True)
        out = x[index]
        seed = np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape)
        seed.flat[0] = -0.0
        out.backward(seed)
        expected = np.zeros(data.shape)
        np.add.at(expected, index, seed)
        assert x.grad.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("index", [
        (np.array([0, 2, 0]), slice(None)),
        (np.array([[0], [2]]), np.array([1, 1, 3])),
        np.array([True, False, True]),
    ])
    def test_advanced_index_scatters_like_add_at(self, index):
        data = np.arange(12.0).reshape(3, 4) - 5.5
        x = Tensor(data, requires_grad=True)
        out = x[index]
        seed = np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape)
        out.backward(seed)
        expected = np.zeros(data.shape)
        np.add.at(expected, index, seed)
        assert x.grad.tobytes() == expected.tobytes()

    def test_tape_replay_runs_the_program_tensor_backward_runs(self):
        p, q = _make_params()
        tape = Tape(lambda: _loss_fn(p, q))
        tape.forward()
        tape.backward()
        replayed = p.grad.copy(), q.grad.copy()
        p.zero_grad()
        q.zero_grad()
        _loss_fn(p, q).backward()
        assert p.grad.tobytes() == replayed[0].tobytes()
        assert q.grad.tobytes() == replayed[1].tobytes()


class TestFoldReductions:
    def test_fold_sum_matches_total_sum_chain(self):
        values = np.array([1e16, 1.0, -1e16, 3.0, 7.5])
        x = Tensor(values, requires_grad=True)
        chained = total_sum([x[i] for i in range(len(values))])
        folded = ops.fold_sum(x)
        assert float(folded.data) == float(chained.data)
        folded.backward()
        assert np.array_equal(x.grad, np.ones_like(values))

    def test_fold_max_matches_chained_maximum_with_ties(self):
        values = np.array([2.0, 5.0, 5.0, 3.0, 5.0, 1.0])
        x = Tensor(values, requires_grad=True)
        fold_max(x).backward()
        y = Tensor(values.copy(), requires_grad=True)
        chained = y[0]
        for i in range(1, len(values)):
            chained = ops.maximum(chained, y[i])
        chained.backward()
        assert np.array_equal(x.grad, y.grad)

    def test_fold_max_single_element(self):
        x = Tensor(np.array([4.0]), requires_grad=True)
        out = fold_max(x)
        out.backward()
        assert float(out.data) == 4.0 and x.grad[0] == 1.0

    def test_reload_product_matches_gated_chain(self):
        rng = np.random.default_rng(0)
        walk_values = rng.uniform(0.5, 6.0, size=(4, 9))
        relevant = rng.random((4, 9)) > 0.5
        x = Tensor(walk_values, requires_grad=True)
        out = ops.reload_product(x, relevant)
        out.backward(np.ones(4))

        for row in range(4):
            y = Tensor(walk_values[row].copy(), requires_grad=True)
            terms = []
            seen_relevant = False
            for position in range(walk_values.shape[1]):
                if walk_values[row, position] <= 1.0 + 1e-9:
                    continue
                if not seen_relevant and not relevant[row, position]:
                    continue
                terms.append(y[position])
                if relevant[row, position]:
                    seen_relevant = True
            chained = chain_prod(terms)
            assert float(out.data[row]) == float(chained.data)
            chained.backward()
            assert np.allclose(x.grad[row], y.grad, rtol=1e-12, atol=0.0)


def _allocating_adam_steps(data, grads, lr, weight_decay, betas=(0.9, 0.999),
                           eps=1e-8):
    """The textbook Adam formula, allocating a new array per operation."""
    beta1, beta2 = betas
    m = np.zeros_like(data)
    v = np.zeros_like(data)
    for step, grad in enumerate(grads, start=1):
        if weight_decay:
            grad = grad + weight_decay * data
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad**2
        m_hat = m / (1.0 - beta1**step)
        v_hat = v / (1.0 - beta2**step)
        data = data - lr * m_hat / (np.sqrt(v_hat) + eps)
        yield data


class TestFusedAdam:
    """Adam's fused update: in place, through scratch buffers."""

    def test_fused_matches_allocating_formula_bitwise(self):
        for weight_decay in (0.0, 0.01):
            rng = np.random.default_rng(3)
            data = rng.normal(size=(5, 3))
            grads = [rng.normal(size=data.shape) for _ in range(5)]
            a = Tensor(data.copy(), requires_grad=True)
            optimizer = Adam([a], lr=0.07, weight_decay=weight_decay)
            expected = _allocating_adam_steps(data, grads, lr=0.07,
                                              weight_decay=weight_decay)
            for step, (grad, reference) in enumerate(zip(grads, expected)):
                a.grad = grad.copy()
                optimizer.step()
                assert np.array_equal(a.data, reference), (weight_decay, step)

    def test_fused_updates_in_place(self):
        a = Tensor(np.ones(3), requires_grad=True)
        buffer = a.data
        a.grad = np.ones(3)
        Adam([a], lr=0.1).step()
        assert a.data is buffer  # mutated, not replaced

    def test_zero_grad_drops_to_none_and_backward_initializes(self):
        a = Tensor(np.ones(3), requires_grad=True)
        optimizer = Adam([a], lr=0.1)
        (a * 3.0).sum().backward()
        assert a.grad is not None
        optimizer.zero_grad()
        assert a.grad is None  # no zero array is allocated
        (a * 2.0).sum().backward()
        assert np.array_equal(a.grad, np.full(3, 2.0))
        optimizer.step()  # parameters with fresh grads step normally

    def test_grads_are_owned_writable_and_unaliased(self):
        """Initialized grads stay safe for in-place consumers (e.g. clipping)."""
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        (a + b).backward(np.ones(2))
        assert a.grad is not b.grad
        a.grad *= 2.0  # must not touch b.grad nor raise on a read-only view
        assert np.array_equal(b.grad, np.ones(2))
        x = Tensor(np.ones(4), requires_grad=True)
        x.sum().backward()
        x.grad += 1.0  # broadcast-view contributions must be materialized
        assert np.array_equal(x.grad, np.full(4, 2.0))
