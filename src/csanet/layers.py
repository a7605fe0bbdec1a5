"""Parameter containers and the small layer zoo the network is built from.

Layers hold Parameters (trainable) and buffers (running statistics).
Weight init draws from an explicit Generator in construction order:
uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) for conv/linear weights, zeros
for Linear's bias (convs carry none), ones/zeros for batch-norm
gamma/beta. Parameter names are dotted paths assigned by the owning
model and unique within it.
"""

import numpy as np

from .autodiff import Tensor, default_dtype
from .errors import ConfigurationError
from . import ops


class Parameter(Tensor):
    """A trainable tensor with a path-like name."""

    __slots__ = ("name",)

    def __init__(self, data, name=""):
        super().__init__(data, requires_grad=True)
        self.name = name


def _uniform_init(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(default_dtype())


class Layer:
    """Base container: tracks Parameters, buffers, and child layers."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self._params[key] = value
        elif isinstance(value, Layer):
            self._children[key] = value
        elif isinstance(value, LayerList):
            self._children[key] = value
        object.__setattr__(self, key, value)

    def register_buffer(self, key, array):
        self._buffers[key] = array
        object.__setattr__(self, key, array)

    def named_parameters(self, prefix=""):
        for key, p in self._params.items():
            yield (f"{prefix}{key}", p)
        for key, child in self._children.items():
            yield from child.named_parameters(prefix=f"{prefix}{key}.")

    def named_buffers(self, prefix=""):
        for key, b in self._buffers.items():
            yield (f"{prefix}{key}", b)
        for key, child in self._children.items():
            yield from child.named_buffers(prefix=f"{prefix}{key}.")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def assign_parameter_names(self, prefix=""):
        """Stamp every Parameter with its dotted path from this root."""
        names = set()
        for name, p in self.named_parameters(prefix=prefix):
            p.name = name
            if name in names:
                raise ConfigurationError(f"duplicate parameter name {name!r}")
            names.add(name)

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()


class LayerList:
    """Ordered collection of child layers addressed by index."""

    def __init__(self, layers):
        self._layers = list(layers)

    def __iter__(self):
        return iter(self._layers)

    def __getitem__(self, i):
        return self._layers[i]

    def __len__(self):
        return len(self._layers)

    def named_parameters(self, prefix=""):
        for i, layer in enumerate(self._layers):
            yield from layer.named_parameters(prefix=f"{prefix}{i}.")

    def named_buffers(self, prefix=""):
        for i, layer in enumerate(self._layers):
            yield from layer.named_buffers(prefix=f"{prefix}{i}.")


class Conv2d(Layer):
    """A (kh, kw) conv's weight, (out, in/groups, kh, kw). The layer has no
    call: the ops that run the conv (ops.stem_bn_elu_pool, ops.stem_elu_pool,
    conv1d_dilated for spa_conv, ops.conv2d for the PSD report) read the
    weight directly."""

    def __init__(self, in_channels, out_channels, kernel, rng, groups=1):
        super().__init__()
        kh, kw = kernel
        if groups < 1 or in_channels % groups or out_channels % groups:
            raise ConfigurationError(f"groups={groups} must divide channel counts")
        fan_in = (in_channels // groups) * kh * kw
        self.weight = Parameter(_uniform_init(rng, (out_channels, in_channels // groups, kh, kw), fan_in))


class Conv1dDilated(Layer):
    def __init__(self, in_channels, out_channels, kernel, dilation, rng):
        super().__init__()
        self.dilation = dilation
        self.kernel = kernel
        fan_in = in_channels * kernel
        self.weight = Parameter(_uniform_init(rng, (out_channels, in_channels, kernel), fan_in))

    def causal(self, x):
        """Length-preserving causal application (left pad (K-1)*dilation)."""
        return ops.conv1d_dilated(
            x, self.weight, dilation=self.dilation, left_pad=(self.kernel - 1) * self.dilation
        )


class Linear(Layer):
    def __init__(self, in_features, out_features, rng):
        super().__init__()
        self.weight = Parameter(_uniform_init(rng, (out_features, in_features), in_features))
        self.bias = Parameter(np.zeros(out_features, dtype=default_dtype()))

    def __call__(self, x):
        return ops.linear(x, self.weight, self.bias)


class BatchNorm(Layer):
    """Per-channel batch normalization with running statistics, under the
    one policy of ops.BN_MOMENTUM and ops.BN_EPS."""

    def __init__(self, channels):
        super().__init__()
        self.gamma = Parameter(np.ones(channels, dtype=default_dtype()))
        self.beta = Parameter(np.zeros(channels, dtype=default_dtype()))
        self.register_buffer("running_mean", np.zeros(channels, dtype=default_dtype()))
        self.register_buffer("running_var", np.ones(channels, dtype=default_dtype()))

    def __call__(self, x, training):
        return ops.batch_norm(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training,
        )
