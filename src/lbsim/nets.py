"""Minimal differentiable network core with exact analytic gradients.

Dense layers (affine -> optional layer normalization -> optional ReLU), a
streaming input normalizer, tanh-squashed Gaussian sampling with exact
log-probabilities, and an adaptive-moment optimizer.  Everything is plain
float64 numpy; reverse-mode gradients are hand-derived and verified against
central finite differences in the test suite.  A network keeps all its
parameters in one flat vector and their gradients in a second one of the
same layout; layers hold views into both, so the optimizer, the soft update
and checkpointing are single vector operations.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

LN_EPS = 1e-5
SQUASH_EPS = 1e-6
# largest double strictly below 1: float tanh rounds to exactly +-1 for
# |u| > ~19, but squashed samples must stay strictly inside the unit box
_TANH_LIMIT = float(np.nextafter(1.0, 0.0))


class GradientError(RuntimeError):
    """Backward called without a matching cached forward pass."""


class DivergenceError(RuntimeError):
    """Non-finite gradients reached the optimizer."""


class DenseLayer:
    """Affine map with optional layer normalization and ReLU.

    The network that owns the layer makes the parameters ``w``, ``b`` (and
    ``gain``, ``shift``) and their gradients ``dw``, ``db`` (``dgain``,
    ``dshift``) views of its two flat vectors with ``bind``.
    """

    def __init__(self, w: np.ndarray, b: np.ndarray, relu: bool = False,
                 layer_norm: bool = False):
        w = np.asarray(w, dtype=float)
        b = np.asarray(b, dtype=float)
        if w.ndim != 2 or b.shape != (w.shape[1],):
            raise ValueError(f"bad layer shapes w={w.shape} b={b.shape}")
        self.relu = relu
        self.layer_norm = layer_norm
        self.w, self.b = w, b
        if layer_norm:
            self.gain = np.ones(w.shape[1])
            self.shift = np.zeros(w.shape[1])

    @property
    def in_dim(self) -> int:
        return self.w.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w.shape[1]

    def params(self) -> list:
        out = [self.w, self.b]
        if self.layer_norm:
            out += [self.gain, self.shift]
        return out

    def grads(self) -> list:
        out = [self.dw, self.db]
        if self.layer_norm:
            out += [self.dgain, self.dshift]
        return out

    def bind(self, flat: np.ndarray, grad: np.ndarray) -> None:
        """Point the parameters at ``flat`` and the gradients at ``grad``."""
        d_in, d_out = self.w.shape
        cut = d_in * d_out
        self.w, self.dw = flat[:cut].reshape(d_in, d_out), grad[:cut].reshape(d_in, d_out)
        self.b, self.db = flat[cut:cut + d_out], grad[cut:cut + d_out]
        if self.layer_norm:
            cut += d_out
            self.gain, self.dgain = flat[cut:cut + d_out], grad[cut:cut + d_out]
            cut += d_out
            self.shift, self.dshift = flat[cut:cut + d_out], grad[cut:cut + d_out]

    def forward(self, x: np.ndarray):
        # in-place steps below keep the elementwise order of
        # z = x w + b, zhat = (z - mean) / sqrt(var + eps), h = gain zhat + shift
        h = x @ self.w
        h += self.b
        if self.layer_norm:
            d = h.shape[-1]
            h -= np.add.reduce(h, axis=-1, keepdims=True) / d
            var = np.add.reduce(h * h, axis=-1, keepdims=True) / d
            inv = 1.0 / np.sqrt(var + LN_EPS)
            h *= inv
            zhat = h
            h = zhat * self.gain
            h += self.shift
        else:
            zhat = inv = None
        if self.relu:
            # in place: the backward mask h > 0 is the same before and after
            np.maximum(h, 0.0, out=h)
        return h, (x, zhat, inv, h)

    def backward(self, cache, dy: np.ndarray, param_grads: bool = True) -> np.ndarray:
        """Input gradient; the parameter gradients go to the gradient views."""
        x, zhat, inv, h = cache
        dz = dy * (h > 0.0) if self.relu else dy
        if self.layer_norm:
            if param_grads:
                np.add.reduce(dz * zhat, axis=0, out=self.dgain)
                np.add.reduce(dz, axis=0, out=self.dshift)
            dz = dz * self.gain
            d = dz.shape[-1]
            m1 = np.add.reduce(dz, axis=-1, keepdims=True) / d
            m2 = np.add.reduce(dz * zhat, axis=-1, keepdims=True) / d
            # dz = inv * (dzhat - m1 - zhat * m2)
            dz -= m1
            dz -= zhat * m2
            dz *= inv
        if param_grads:
            np.matmul(x.T, dz, out=self.dw)
            np.add.reduce(dz, axis=0, out=self.db)
        return dz @ self.w.T


def pack(parts: Sequence) -> tuple:
    """Move the parameters of ``parts`` (layers or networks, in order) into one
    new flat vector and bind every part to its slice of it and of a zeroed
    gradient vector of the same layout.  Returns (flat, grad)."""
    flat = np.concatenate([p.ravel() for part in parts for p in part.params()])
    grad = np.zeros_like(flat)
    _bind_all(parts, flat, grad)
    return flat, grad


def _bind_all(parts: Sequence, flat: np.ndarray, grad: np.ndarray) -> None:
    start = 0
    for part in parts:
        end = start + sum(p.size for p in part.params())
        part.bind(flat[start:end], grad[start:end])
        start = end


class DenseNet:
    """A stack of dense layers with cached-forward reverse-mode gradients.

    ``flat`` holds every parameter in layer order (weight, bias, then
    layer-norm gain and shift); ``grad`` holds the
    gradients of the last backward pass in the same layout.
    """

    def __init__(self, layers: Sequence[DenseLayer]):
        self.layers = list(layers)
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")
        self._cache = None
        self.flat, self.grad = pack(self.layers)

    @classmethod
    def build(cls, dims: Sequence[int], rng: np.random.Generator,
              layer_norm: bool = True) -> "DenseNet":
        """He-style random init; ReLU and layer norm on hidden layers only."""
        layers = []
        for i in range(len(dims) - 1):
            last = i == len(dims) - 2
            w = rng.normal(0.0, 1.0 / math.sqrt(dims[i]), size=(dims[i], dims[i + 1]))
            b = np.zeros(dims[i + 1])
            layers.append(DenseLayer(w, b, relu=not last, layer_norm=layer_norm and not last))
        return cls(layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    def params(self) -> list:
        return [p for layer in self.layers for p in layer.params()]

    def bind(self, flat: np.ndarray, grad: np.ndarray) -> None:
        """Point the layers at consecutive slices of ``flat`` and ``grad``."""
        self.flat, self.grad = flat, grad
        _bind_all(self.layers, flat, grad)

    def forward(self, x: np.ndarray) -> np.ndarray:
        squeeze = x.ndim == 1
        h = x[None, :] if squeeze else x
        if h.shape[-1] != self.in_dim:
            raise ValueError(f"input dim {h.shape[-1]} != expected {self.in_dim}")
        caches = []
        for layer in self.layers:
            h, cache = layer.forward(h)
            caches.append(cache)
        self._cache = (squeeze, caches)
        return h[0] if squeeze else h

    def release(self) -> None:
        """Drop the forward cache.  Only a backward pass reads it, and
        ``backward`` keeps it, so it lives until the next forward or this."""
        self._cache = None

    def backward(self, upstream: np.ndarray, param_grads: bool = True):
        """Gradients of sum(upstream * output) w.r.t. input and params.

        Returns (input gradient, per-parameter views of ``grad``).  With
        ``param_grads=False`` only the input gradient is computed and the
        second item is None.
        """
        if self._cache is None:
            raise GradientError("backward called before forward")
        squeeze, caches = self._cache
        dy = np.asarray(upstream, dtype=float)
        if squeeze:
            dy = dy[None, :]
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            dy = layer.backward(cache, dy, param_grads)
        dx = dy[0] if squeeze else dy
        if not param_grads:
            return dx, None
        return dx, [g for layer in self.layers for g in layer.grads()]


class InputNormalizer:
    """Streaming per-feature standardization with running statistics.

    Single-sample Welford updates; normalization is (x - mean)/sqrt(var+1e-5)
    applied identically at action and training time.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self._m2 = np.zeros(dim)

    @property
    def var(self) -> np.ndarray:
        if self.count == 0:
            return np.ones(self.dim)
        return self._m2 / self.count

    def update(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=float)
        self.count += 1
        delta = x - self.mean
        self.mean = self.mean + delta / self.count
        self._m2 = self._m2 + delta * (x - self.mean)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / np.sqrt(self.var + LN_EPS)

    def state(self) -> dict:
        return {"count": self.count, "mean": self.mean.tolist(), "m2": self._m2.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "InputNormalizer":
        norm = cls(len(state["mean"]))
        norm.count = int(state["count"])
        norm.mean = np.asarray(state["mean"], dtype=float)
        norm._m2 = np.asarray(state["m2"], dtype=float)
        return norm


def gaussian_head_sample(mean: np.ndarray, log_std: np.ndarray, noise: np.ndarray):
    """Tanh-squashed Gaussian sample and its exact log-probability.

    a = tanh(mean + exp(log_std) * noise); the log-probability includes the
    tanh change-of-variables correction -log(1 - a^2 + 1e-6) per coordinate,
    summed over the last axis.  The actor bounds log_std itself.
    """
    std = np.exp(log_std)
    u = mean + std * noise
    a = np.clip(np.tanh(u), -_TANH_LIMIT, _TANH_LIMIT)
    logp_terms = -0.5 * noise * noise - log_std - 0.5 * math.log(2.0 * math.pi) \
        - np.log(1.0 - a * a + SQUASH_EPS)
    return a, logp_terms.sum(axis=-1)


def gaussian_head_grads(mean: np.ndarray, log_std: np.ndarray, noise: np.ndarray):
    """Partial derivatives used by the reparameterized actor update.

    Returns (a, logp, da_dmean, da_dlogstd, dlogp_dmean, dlogp_dlogstd), with
    a and logp from ``gaussian_head_sample``.
    """
    a, logp = gaussian_head_sample(mean, log_std, noise)
    std = np.exp(log_std)
    one_m_a2 = 1.0 - a * a
    dlogp_da = 2.0 * a / (one_m_a2 + SQUASH_EPS)
    da_dlogstd = one_m_a2 * std * noise
    # not dlogp_da * da_dlogstd: that product associates differently
    dlogp_dlogstd = -1.0 + dlogp_da * one_m_a2 * std * noise
    return a, logp, one_m_a2, da_dlogstd, dlogp_da * one_m_a2, dlogp_dlogstd


class Adam:
    """Adaptive-moment optimizer with bias correction over one flat parameter
    vector, updated in place."""

    def __init__(self, params: np.ndarray, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if not isinstance(params, np.ndarray) or params.ndim != 1:
            raise TypeError("Adam updates one flat parameter vector in place")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._tmp = np.empty_like(params)

    def step(self, grad: np.ndarray) -> None:
        """One update; a non-finite gradient raises before any state changes."""
        if not np.isfinite(grad).all():
            raise DivergenceError("non-finite gradient")
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        m, v, tmp = self.m, self.v, self._tmp
        m *= b1
        m += np.multiply(grad, 1.0 - b1, out=tmp)
        v *= b2
        np.multiply(grad, grad, out=tmp)
        tmp *= 1.0 - b2
        v += tmp
        # params -= lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        update = m / c1
        update *= self.lr
        update /= tmp
        self.params -= update

