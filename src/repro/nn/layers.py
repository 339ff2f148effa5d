"""Layer/module system of the numpy DNN framework.

A deliberately small PyTorch-like module system: every :class:`Module`
implements ``forward`` (caching what backward needs) and ``backward``
(returning the gradient w.r.t. its input and accumulating parameter
gradients).  This is all the paper's evaluation networks (VGG-16,
ResNet-18/34) require, and hand-written backwards are finite-difference
checked in the test suite.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, ShapeError, TrainingError
from . import functional as F


class Parameter:
    """A trainable tensor with its gradient accumulator.

    The accumulator is allocated, as zeros, on first use, so a network
    that is only loaded and run holds no gradient buffer; assigning
    ``None`` frees it.
    """

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self._grad: Optional[np.ndarray] = None
        self.name = name

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self._grad = value

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter({self.name or 'unnamed'}, shape={self.data.shape})"


class Module:
    """Base class: forward/backward plus parameter traversal."""

    training: bool = True

    #: Attributes in which a module keeps what its backward reads.  A
    #: forward fills them only in training mode; in eval mode it clears
    #: them, so an inference pass holds nothing and a backward after it
    #: raises.
    _BACKWARD_STATE = ("_cache", "_mask", "_x")

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def parameters(self) -> Iterator[Parameter]:
        """Yield this module's parameters, including submodules'."""
        for value in vars(self).values():
            if isinstance(value, Parameter):
                yield value
            elif isinstance(value, Module):
                yield from value.parameters()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.parameters()

    def modules(self) -> Iterator["Module"]:
        """Yield self and all submodules depth-first."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def train(self, mode: bool = True) -> "Module":
        """Switch training mode recursively (affects batch-norm)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Switch to inference mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def clear_backward_state(self) -> None:
        """Drop every module's forward cache and every gradient buffer.

        What backward reads (im2col columns, batch-norm statistics, ReLU
        masks, layer inputs) would otherwise stay alive, from the last
        forward on, for as long as the model does.
        """
        for module in self.modules():
            for attr in self._BACKWARD_STATE:
                if hasattr(module, attr):
                    setattr(module, attr, None)
        for p in self.parameters():
            p.grad = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Conv2d(Module):
    """2-D convolution with He-normal initialization.

    ``groups`` splits the channel axes the standard way: input channels
    and output channels are divided into ``groups`` contiguous blocks and
    block ``g`` of the outputs only reads block ``g`` of the inputs
    (``groups == in_channels`` is a depthwise convolution).  The weight
    tensor has shape ``(out_channels, in_channels // groups, Fy, Fx)``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        groups: int = 1,
        rng: Optional[np.random.Generator] = None,
        name: str = "conv",
    ) -> None:
        if min(in_channels, out_channels, kernel_size) < 1:
            raise ConfigurationError("conv dimensions must be >= 1")
        if groups < 1:
            raise ConfigurationError("groups must be >= 1")
        if in_channels % groups or out_channels % groups:
            raise ConfigurationError(
                f"groups={groups} must divide both channel counts "
                f"({in_channels} -> {out_channels})"
            )
        rng = rng or np.random.default_rng()
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        self.weight = Parameter(
            rng.normal(
                0.0,
                scale,
                size=(out_channels, in_channels // groups, kernel_size, kernel_size),
            ),
            name=f"{name}.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name=f"{name}.bias") if bias else None
        self.stride = stride
        self.padding = padding
        self.groups = groups
        self.name = name
        self._cache = None

    def _group_slices(self):
        """Per-group ``(in channels, out channels)`` slices."""
        c_in = self.weight.data.shape[1]
        k = self.weight.data.shape[0] // self.groups
        return [
            (slice(g * c_in, (g + 1) * c_in), slice(g * k, (g + 1) * k))
            for g in range(self.groups)
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        bias = self.bias.data if self.bias is not None else None
        if self.groups == 1:
            out, x_cols = F.conv2d_forward(x, self.weight.data, bias, self.stride, self.padding)
            self._cache = ([x_cols], x.shape) if self.training else None
            return out
        outs, caches = [], []
        for in_sl, out_sl in self._group_slices():
            out_g, cols_g = F.conv2d_forward(
                x[:, in_sl],
                self.weight.data[out_sl],
                bias[out_sl] if bias is not None else None,
                self.stride,
                self.padding,
            )
            outs.append(out_g)
            caches.append(cols_g)
        self._cache = (caches, x.shape) if self.training else None
        return np.concatenate(outs, axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise TrainingError("backward called before forward")
        caches, x_shape = self._cache
        if self.groups == 1:
            grad_x, grad_w, grad_b = F.conv2d_backward(
                grad_out, caches[0], x_shape, self.weight.data, self.stride, self.padding
            )
            self.weight.grad += grad_w
            if self.bias is not None:
                self.bias.grad += grad_b
            return grad_x
        n, _, h, w = x_shape
        c_in = self.weight.data.shape[1]
        grads_x = []
        for g, (in_sl, out_sl) in enumerate(self._group_slices()):
            grad_x_g, grad_w_g, grad_b_g = F.conv2d_backward(
                grad_out[:, out_sl],
                caches[g],
                (n, c_in, h, w),
                self.weight.data[out_sl],
                self.stride,
                self.padding,
            )
            self.weight.grad[out_sl] += grad_w_g
            if self.bias is not None:
                self.bias.grad[out_sl] += grad_b_g
            grads_x.append(grad_x_g)
        return np.concatenate(grads_x, axis=1)


class Linear(Module):
    """Fully connected layer."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        name: str = "fc",
    ) -> None:
        rng = rng or np.random.default_rng()
        scale = np.sqrt(2.0 / in_features)
        self.weight = Parameter(
            rng.normal(0.0, scale, size=(in_features, out_features)), name=f"{name}.weight"
        )
        self.bias = Parameter(np.zeros(out_features), name=f"{name}.bias")
        self.name = name
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ShapeError(f"Linear expects (batch, features), got {x.shape}")
        self._x = x if self.training else None
        return x @ self.weight.data + self.bias.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise TrainingError("backward called before forward")
        self.weight.grad += self._x.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data.T


class ReLU(Module):
    """Rectified linear unit — the source of READ's non-negative inputs."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, mask = F.relu_forward(x)
        self._mask = mask if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise TrainingError("backward called before forward")
        return F.relu_backward(grad_out, self._mask)


class BatchNorm2d(Module):
    """Batch normalization over channels of ``(N, C, H, W)``."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5, name: str = "bn"):
        self.gamma = Parameter(np.ones(channels), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(channels), name=f"{name}.beta")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps
        self.name = name
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, cache = F.batchnorm_forward(
            x,
            self.gamma.data,
            self.beta.data,
            self.running_mean,
            self.running_var,
            self.momentum,
            self.eps,
            self.training,
        )
        self._cache = cache if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise TrainingError("backward called before forward")
        grad_x, grad_gamma, grad_beta = F.batchnorm_backward(grad_out, self._cache)
        self.gamma.grad += grad_gamma
        self.beta.grad += grad_beta
        return grad_x


class MaxPool2d(Module):
    """Max pooling (VGG's down-sampling)."""

    def __init__(self, size: int = 2, stride: Optional[int] = None) -> None:
        self.size = size
        self.stride = stride or size
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, idx = F.maxpool2d_forward(x, self.size, self.stride)
        self._cache = (idx, x.shape) if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise TrainingError("backward called before forward")
        idx, x_shape = self._cache
        return F.maxpool2d_backward(grad_out, idx, x_shape, self.size, self.stride)


class GlobalAvgPool(Module):
    """Global average pooling: ``(N, C, H, W) -> (N, C)`` (ResNet head)."""

    def __init__(self) -> None:
        self._x_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return F.global_avgpool_forward(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise TrainingError("backward called before forward")
        return F.global_avgpool_backward(grad_out, self._x_shape)


class Flatten(Module):
    """``(N, C, H, W) -> (N, C*H*W)`` (VGG head)."""

    def __init__(self) -> None:
        self._x_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise TrainingError("backward called before forward")
        return grad_out.reshape(self._x_shape)


class PatchExtract(Module):
    """``(N, C, H, W) -> (N, T, C*p*p)``: non-overlapping patch tokens.

    The embedding front of the mixer/ViT recipes: each ``p x p`` spatial
    patch becomes one token whose feature vector concatenates the patch
    pixels channel-major.  Pure reshape/transpose — no parameters.
    """

    def __init__(self, patch: int) -> None:
        if patch < 1:
            raise ConfigurationError("patch size must be >= 1")
        self.patch = patch
        self._x_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"PatchExtract expects (N, C, H, W), got {x.shape}")
        n, c, h, w = x.shape
        p = self.patch
        if h % p or w % p:
            raise ShapeError(f"patch {p} must divide spatial dims {h}x{w}")
        self._x_shape = x.shape
        tokens = x.reshape(n, c, h // p, p, w // p, p)
        tokens = tokens.transpose(0, 2, 4, 1, 3, 5)
        return tokens.reshape(n, (h // p) * (w // p), c * p * p)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise TrainingError("backward called before forward")
        n, c, h, w = self._x_shape
        p = self.patch
        grad = grad_out.reshape(n, h // p, w // p, c, p, p)
        grad = grad.transpose(0, 3, 1, 4, 2, 5)
        return grad.reshape(n, c, h, w)


class TokenLinear(Linear):
    """A :class:`Linear` applied per token: ``(N, T, in) -> (N, T, out)``.

    Subclassing keeps every ``isinstance(module, Linear)`` walk (scenario
    layer enumeration, quantized lowering) working unchanged; only the
    batched-token shape handling differs.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ShapeError(f"TokenLinear expects (batch, tokens, features), got {x.shape}")
        self._x = x if self.training else None
        return x @ self.weight.data + self.bias.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise TrainingError("backward called before forward")
        d_in = self.weight.data.shape[0]
        d_out = self.weight.data.shape[1]
        self.weight.grad += self._x.reshape(-1, d_in).T @ grad_out.reshape(-1, d_out)
        self.bias.grad += grad_out.reshape(-1, d_out).sum(axis=0)
        return grad_out @ self.weight.data.T


class LayerNorm(Module):
    """Layer normalization over the last axis (token feature vectors)."""

    def __init__(self, dim: int, eps: float = 1e-5, name: str = "ln") -> None:
        self.gamma = Parameter(np.ones(dim), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(dim), name=f"{name}.beta")
        self.eps = eps
        self.name = name
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv
        self._cache = (xhat, inv) if self.training else None
        return xhat * self.gamma.data + self.beta.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise TrainingError("backward called before forward")
        xhat, inv = self._cache
        dim = self.gamma.data.shape[0]
        g = grad_out * self.gamma.data
        grad_x = (
            g
            - g.mean(axis=-1, keepdims=True)
            - xhat * (g * xhat).mean(axis=-1, keepdims=True)
        ) * inv
        self.gamma.grad += (grad_out * xhat).reshape(-1, dim).sum(axis=0)
        self.beta.grad += grad_out.reshape(-1, dim).sum(axis=0)
        return grad_x


class SelfAttention(Module):
    """Single-head self-attention over token sequences.

    Q/K/V/output projections are :class:`TokenLinear` layers (static-
    weight GEMMs); the two activation-activation products — the scaled
    ``Q @ K^T`` score matrix and the ``softmax @ V`` mix — are the
    dynamic GEMMs the quantized lowering maps onto the systolic array
    under the names in :attr:`dynamic_gemm_names`.
    """

    def __init__(
        self,
        dim: int,
        rng: Optional[np.random.Generator] = None,
        name: str = "attn",
    ) -> None:
        rng = rng or np.random.default_rng()
        self.q = TokenLinear(dim, dim, rng=rng, name=f"{name}.q")
        self.k = TokenLinear(dim, dim, rng=rng, name=f"{name}.k")
        self.v = TokenLinear(dim, dim, rng=rng, name=f"{name}.v")
        self.proj = TokenLinear(dim, dim, rng=rng, name=f"{name}.proj")
        self.scale = 1.0 / np.sqrt(dim)
        self.name = name
        #: Names under which the runtime activation-activation products
        #: appear in the quantized pipeline (scores, attention-mix).
        self.dynamic_gemm_names = (f"{name}.qk", f"{name}.av")
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ShapeError(f"SelfAttention expects (batch, tokens, dim), got {x.shape}")
        q = self.q.forward(x)
        k = self.k.forward(x)
        v = self.v.forward(x)
        scores = q @ k.transpose(0, 2, 1) * self.scale
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        out = p @ v
        self._cache = (q, k, v, p) if self.training else None
        return self.proj.forward(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise TrainingError("backward called before forward")
        q, k, v, p = self._cache
        d_out = self.proj.backward(grad_out)
        dv = p.transpose(0, 2, 1) @ d_out
        dp = d_out @ v.transpose(0, 2, 1)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        dq = ds @ k * self.scale
        dk = ds.transpose(0, 2, 1) @ q * self.scale
        return self.q.backward(dq) + self.k.backward(dk) + self.v.backward(dv)


class EncoderBlock(Module):
    """Pre-norm transformer encoder block: attention + ReLU MLP."""

    def __init__(
        self,
        dim: int,
        hidden: int,
        rng: Optional[np.random.Generator] = None,
        name: str = "block",
    ) -> None:
        rng = rng or np.random.default_rng()
        self.ln1 = LayerNorm(dim, name=f"{name}.ln1")
        self.attn = SelfAttention(dim, rng=rng, name=f"{name}.attn")
        self.ln2 = LayerNorm(dim, name=f"{name}.ln2")
        self.ffn1 = TokenLinear(dim, hidden, rng=rng, name=f"{name}.ffn1")
        self.relu = ReLU()
        self.ffn2 = TokenLinear(hidden, dim, rng=rng, name=f"{name}.ffn2")
        self.name = name

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = x + self.attn.forward(self.ln1.forward(x))
        return h + self.ffn2.forward(self.relu.forward(self.ffn1.forward(self.ln2.forward(h))))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_h = grad_out + self.ln2.backward(
            self.ffn1.backward(self.relu.backward(self.ffn2.backward(grad_out)))
        )
        return grad_h + self.ln1.backward(self.attn.backward(grad_h))


class TokenMean(Module):
    """Mean over the token axis: ``(N, T, D) -> (N, D)`` (sequence head)."""

    def __init__(self) -> None:
        self._x_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ShapeError(f"TokenMean expects (batch, tokens, dim), got {x.shape}")
        self._x_shape = x.shape
        return x.mean(axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise TrainingError("backward called before forward")
        n, t, d = self._x_shape
        return np.broadcast_to(grad_out[:, None, :] / t, (n, t, d)).copy()


class Sequential(Module):
    """Chain of modules executed in order."""

    def __init__(self, layers: Sequence[Module]) -> None:
        self.layers: List[Module] = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class BasicBlock(Module):
    """ResNet basic block: two 3x3 convs with identity/projection shortcut."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
        name: str = "block",
    ) -> None:
        self.conv1 = Conv2d(
            in_channels, out_channels, 3, stride=stride, padding=1, bias=False,
            rng=rng, name=f"{name}.conv1",
        )
        self.bn1 = BatchNorm2d(out_channels, name=f"{name}.bn1")
        self.relu1 = ReLU()
        self.conv2 = Conv2d(
            out_channels, out_channels, 3, stride=1, padding=1, bias=False,
            rng=rng, name=f"{name}.conv2",
        )
        self.bn2 = BatchNorm2d(out_channels, name=f"{name}.bn2")
        self.relu_out = ReLU()
        if stride != 1 or in_channels != out_channels:
            self.shortcut_conv: Optional[Conv2d] = Conv2d(
                in_channels, out_channels, 1, stride=stride, padding=0, bias=False,
                rng=rng, name=f"{name}.shortcut",
            )
            self.shortcut_bn: Optional[BatchNorm2d] = BatchNorm2d(
                out_channels, name=f"{name}.shortcut_bn"
            )
        else:
            self.shortcut_conv = None
            self.shortcut_bn = None
        self.name = name

    def forward(self, x: np.ndarray) -> np.ndarray:
        main = self.bn1.forward(self.conv1.forward(x))
        main = self.relu1.forward(main)
        main = self.bn2.forward(self.conv2.forward(main))
        if self.shortcut_conv is not None:
            residual = self.shortcut_bn.forward(self.shortcut_conv.forward(x))
        else:
            residual = x
        return self.relu_out.forward(main + residual)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_sum = self.relu_out.backward(grad_out)
        # main branch
        grad_main = self.bn2.backward(grad_sum)
        grad_main = self.conv2.backward(grad_main)
        grad_main = self.relu1.backward(grad_main)
        grad_main = self.bn1.backward(grad_main)
        grad_main = self.conv1.backward(grad_main)
        # shortcut branch
        if self.shortcut_conv is not None:
            grad_short = self.shortcut_bn.backward(grad_sum)
            grad_short = self.shortcut_conv.backward(grad_short)
        else:
            grad_short = grad_sum
        return grad_main + grad_short
