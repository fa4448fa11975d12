"""Seven-dimensional layer representation (R, S, P, Q, C, K, N).

A layer is a single tensor contraction: a convolution with R x S kernels over
C input channels producing K output channels on a P x Q output feature map for
a batch of N, or a matrix multiplication expressed as the special case
R = S = 1, P = 1 (or Q = 1).  Strides enter the input-size calculation
(Equation 3 of the paper) and are carried on the layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

# Canonical dimension order used everywhere in the reproduction.
DIMENSIONS: tuple[str, ...] = ("R", "S", "P", "Q", "C", "K", "N")

# Paper Section 4.1.1: dimension subsets relevant to each tensor.
WEIGHT_DIMS: frozenset[str] = frozenset({"R", "S", "C", "K"})
INPUT_DIMS: frozenset[str] = frozenset({"R", "S", "P", "Q", "C", "N"})
OUTPUT_DIMS: frozenset[str] = frozenset({"P", "Q", "K", "N"})

TENSOR_DIMS: dict[str, frozenset[str]] = {
    "W": WEIGHT_DIMS,
    "I": INPUT_DIMS,
    "O": OUTPUT_DIMS,
}

TENSORS: tuple[str, ...] = ("W", "I", "O")


@dataclass(frozen=True)
class LayerDims:
    """Problem dimensions of one DNN layer plus convolution strides.

    Attributes mirror the paper's notation.  ``repeats`` counts how many times
    a layer with identical dimensions appears in the parent network; repeated
    layers share a single mapping whose energy and latency are scaled by the
    repetition count (Section 4.5).
    """

    R: int = 1
    S: int = 1
    P: int = 1
    Q: int = 1
    C: int = 1
    K: int = 1
    N: int = 1
    stride_p: int = 1
    stride_q: int = 1
    name: str = ""
    repeats: int = 1

    def __post_init__(self) -> None:
        for dim in DIMENSIONS:
            value = getattr(self, dim)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"dimension {dim} must be a positive integer, got {value!r}")
        if self.stride_p < 1 or self.stride_q < 1:
            raise ValueError("strides must be positive integers")
        if self.repeats < 1:
            raise ValueError("repeats must be a positive integer")

    # ------------------------------------------------------------------ #
    # Dimension access
    # ------------------------------------------------------------------ #
    def dim(self, name: str) -> int:
        """Size of problem dimension ``name`` (one of R,S,P,Q,C,K,N)."""
        if name not in DIMENSIONS:
            raise KeyError(f"unknown dimension {name!r}")
        return int(getattr(self, name))

    def dims(self) -> dict[str, int]:
        """All seven dimensions as an ordered mapping."""
        return {d: self.dim(d) for d in DIMENSIONS}

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self.dims().items())

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def macs(self) -> int:
        """Total multiply-accumulate operations in the layer."""
        total = 1
        for dim in DIMENSIONS:
            total *= self.dim(dim)
        return total

    def dims_key(self) -> tuple[int, ...]:
        """Hashable key of the problem dimensions and strides (ignores name)."""
        return (
            self.R, self.S, self.P, self.Q, self.C, self.K, self.N,
            self.stride_p, self.stride_q,
        )

    def with_repeats(self, repeats: int) -> "LayerDims":
        """Copy of this layer with a different repetition count."""
        return LayerDims(
            R=self.R, S=self.S, P=self.P, Q=self.Q, C=self.C, K=self.K, N=self.N,
            stride_p=self.stride_p, stride_q=self.stride_q,
            name=self.name, repeats=repeats,
        )

    def __str__(self) -> str:
        label = self.name or "layer"
        dims = " ".join(f"{d}={self.dim(d)}" for d in DIMENSIONS)
        stride = f" stride={self.stride_p}x{self.stride_q}" if (self.stride_p, self.stride_q) != (1, 1) else ""
        reps = f" x{self.repeats}" if self.repeats > 1 else ""
        return f"{label}: {dims}{stride}{reps}"


def conv2d_layer(
    in_channels: int,
    out_channels: int,
    output_size: int | tuple[int, int],
    kernel_size: int | tuple[int, int] = 3,
    stride: int | tuple[int, int] = 1,
    name: str = "",
    repeats: int = 1,
) -> LayerDims:
    """Construct a batch-1 convolution layer from the usual framework-style
    arguments."""
    p, q = output_size if isinstance(output_size, tuple) else (output_size, output_size)
    r, s = kernel_size if isinstance(kernel_size, tuple) else (kernel_size, kernel_size)
    stride_p, stride_q = stride if isinstance(stride, tuple) else (stride, stride)
    return LayerDims(
        R=r, S=s, P=p, Q=q, C=in_channels, K=out_channels, N=1,
        stride_p=stride_p, stride_q=stride_q, name=name, repeats=repeats,
    )


def matmul_layer(
    m: int,
    k: int,
    n: int,
    name: str = "",
    repeats: int = 1,
) -> LayerDims:
    """Construct a matrix multiplication ``(M x K) @ (K x N)`` as a batch-1
    7-dim layer.

    Following the common Timeloop convention for GEMM-as-convolution, the
    reduction dimension maps to C, the output-column dimension to K, and the
    output-row dimension to P (with R = S = Q = 1).
    """
    return LayerDims(
        R=1, S=1, P=m, Q=1, C=k, K=n, N=1, name=name, repeats=repeats,
    )
