"""Small fully-connected networks with hand-written gradients.

A network computes in the dtype of its parameters: :func:`init_params`
makes float32 networks unless asked otherwise, and :func:`forward_trace`
and :func:`backward` cast their input and output gradient to that dtype,
so a float32 network never computes in float64 and a float64 one stays
float64 throughout.  Parameters live in plain numpy arrays inside explicit
containers, so target-network copies, checkpointing (see
``learners.save_learner``) and hashing stay trivial.  Forward is a pure
function of (net, input); backward is a pure function of (net, trace,
output gradient), where the trace is what :func:`forward_trace` returned,
so a gradient never costs a second forward pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


class ShapeMismatch(ValueError):
    pass


@dataclass
class Mlp:
    """Affine layers with rectified-linear hidden units and a linear head."""

    widths: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def dtype(self) -> np.dtype:
        """The dtype the network computes in: that of its parameters."""
        return self.weights[0].dtype

    def params(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def clone(self) -> "Mlp":
        return Mlp(self.widths, [w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def copy_from(self, other: "Mlp") -> None:
        for dst, src in zip(self.params(), other.params()):
            np.copyto(dst, src)


# The dtype of new networks, as PyMARL's learners train in PyTorch's default float32.
DTYPE = np.float32


def init_params(widths: tuple[int, ...] | list[int], seed: int, dtype=DTYPE) -> Mlp:
    """He-style initialisation: N(0, 2/fan_in) weights, zero biases, in ``dtype``.

    The weights are drawn in float64 and then cast, so nets of one seed and
    different dtypes hold the same values up to rounding.
    """
    if len(widths) < 2:
        raise ShapeMismatch("need at least an input and an output width")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_out, fan_in)).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return Mlp(tuple(widths), weights, biases)


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on a single input or a batch of rows."""
    y, _ = forward_trace(net, x)
    return y


def forward_trace(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass that also returns per-layer pre-activations for backward.

    ``x`` is cast to the network's dtype; an input already in it is not copied.
    """
    x = np.asarray(x, dtype=net.dtype)
    squeeze = x.ndim == 1
    a = x[None, :] if squeeze else x
    if a.shape[-1] != net.widths[0]:
        raise ShapeMismatch(f"input width {a.shape[-1]} != {net.widths[0]}")
    trace = [a]
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        trace.append(z)
        a = z if l == last else np.maximum(z, 0.0)
        if l != last:
            trace.append(a)
    y = a[0] if squeeze else a
    return y, trace


def backward(net: Mlp, trace: list[np.ndarray], output_gradient: np.ndarray) -> list[np.ndarray]:
    """Parameter gradients of ``sum(y * output_gradient)``, aligned with ``net.params()``.

    ``trace`` comes from ``forward_trace(net, x)`` and ``y`` is that call's
    output.  Batched inputs accumulate over rows, matching a sum-reduced
    loss.  The pass stops at layer 0's weights: no caller reads the
    gradient with respect to the input, so it is never formed.  The output
    gradient is cast to the network's dtype, and so are the gradients.
    """
    g = np.asarray(output_gradient, dtype=net.dtype)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape[-1] != net.widths[-1]:
        raise ShapeMismatch(f"output gradient width {g.shape[-1]} != {net.widths[-1]}")
    last = len(net.weights) - 1
    grads: list[np.ndarray] = []
    for l in range(last, -1, -1):
        if l != last:
            g = g * (trace[2 * l + 1] > 0.0)
        grads[:0] = [g.T @ trace[2 * l], g.sum(axis=0)]
        if l:
            g = g @ net.weights[l]
    return grads


@dataclass
class OptimState:
    """Adam accumulators for an explicit list of parameter arrays."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float) -> "OptimState":
        return cls(lr=lr, m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: OptimState) -> OptimState:
    """One bias-corrected adaptive-moment update, in place on ``params``."""
    if len(params) != len(state.m):
        raise ShapeMismatch("optimizer state does not match the parameter list")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1**t
    correction2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / correction1
        v_hat = v / correction2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return state


def params_hash(arrays: list[np.ndarray]) -> str:
    """Content hash of a parameter list, independent of file encoding."""
    digest = hashlib.sha256()
    for i, a in enumerate(arrays):
        a = np.ascontiguousarray(a)
        digest.update(f"{i}:{a.dtype.str}:{a.shape}".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()
