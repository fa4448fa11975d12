"""Reverse-mode automatic differentiation over NumPy arrays.

This package is the reproduction's substitute for PyTorch: the DOSA
differentiable performance model (Equations 1-18 of the paper) and the DNN
surrogate model are both built on the :class:`~repro.autodiff.tensor.Tensor`
type defined here.  It provides:

* ``Tensor`` — an array wrapper recording a dynamic computation graph and
  supporting broadcasting-aware reverse-mode backpropagation (arithmetic,
  ``**`` with a float exponent, ``matmul``, ``reshape``, indexing, ``sum``,
  ``mean`` and ``exp``),
* ``ops`` — the functional library, reached as ``ops.<name>``: ``exp``,
  ``relu``, ``maximum``, ``softmax``, ``stack``, ``concat``, ``transpose``,
  and the dense kernels of the DOSA model: prefix products, sequence
  products and sums, gathers, and fold/reload reductions,
* ``optim`` — the Adam optimizer (updates in place),
* ``tape`` — compiled-tape replay of a traced graph (re-trace once per
  structural change instead of once per step),
* ``nn`` — a minimal neural-network layer library (Linear, ReLU MLP, MSE loss,
  feature scaler),
* ``gradcheck`` — finite-difference gradient verification used by the tests.
"""

from repro.autodiff.tensor import Tensor, no_grad
from repro.autodiff import ops
from repro.autodiff.optim import Adam
from repro.autodiff.tape import Tape, TapeError
from repro.autodiff import nn
from repro.autodiff.gradcheck import numeric_gradient, check_gradients

__all__ = [
    "Tensor",
    "no_grad",
    "ops",
    "nn",
    "Adam",
    "Tape",
    "TapeError",
    "numeric_gradient",
    "check_gradients",
]
