"""Parameter containers and the few layers the network is built from.

Layers hold Parameters (trainable), buffers (running statistics) and
child layers; that tree is the model's only description of its
parameters. Every weight draws from an explicit Generator in
construction order by one rule, uniform(-1/sqrt(fan_in), 1/sqrt(fan_in))
with fan_in the product of all but the weight's leading dimension;
Linear's bias starts at zeros (convs carry none), batch-norm gamma/beta
at ones/zeros. Parameter names are dotted paths of attribute names and
LayerList indices from the owning model, so they are unique.
"""

import numpy as np

from .autodiff import Tensor, default_dtype
from . import ops


class Parameter(Tensor):
    """A trainable tensor with a path-like name."""

    __slots__ = ("name",)

    def __init__(self, data, name=""):
        super().__init__(data, requires_grad=True)
        self.name = name


def _uniform_init(rng, shape):
    bound = 1.0 / np.sqrt(float(np.prod(shape[1:])))
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
        object.__setattr__(self, key, value)

    def register_buffer(self, key, array):
        self._buffers[key] = array
        object.__setattr__(self, key, array)

    def _walk(self, table, prefix):
        """(dotted name, entry) for one table (_params or _buffers) of this
        layer, then of each child in registration order."""
        for key, entry in getattr(self, table).items():
            yield (f"{prefix}{key}", entry)
        for key, child in self._children.items():
            yield from child._walk(table, f"{prefix}{key}.")

    def named_parameters(self, prefix=""):
        return self._walk("_params", prefix)

    def named_buffers(self, prefix=""):
        return self._walk("_buffers", prefix)

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def assign_parameter_names(self, prefix=""):
        """Stamp every Parameter with its dotted path from this root."""
        for name, p in self.named_parameters(prefix=prefix):
            p.name = name

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()


class LayerList(Layer):
    """Ordered child layers, named "0", "1", ... in parameter paths."""

    def __init__(self, layers):
        super().__init__()
        for i, layer in enumerate(layers):
            self._children[str(i)] = layer

    def __iter__(self):
        return iter(self._children.values())


class Conv(Layer):
    """A conv's weight, (out, in, *kernel). The layer has no call: the ops
    that run the convs (ops.stem_bn_elu_pool, ops.stem_elu_pool and
    ops.conv1d_dilated, which also runs the PSD report's temporal conv)
    read the weight directly."""

    def __init__(self, shape, rng):
        super().__init__()
        self.weight = Parameter(_uniform_init(rng, shape))


class Linear(Layer):
    def __init__(self, in_features, out_features, rng):
        super().__init__()
        self.weight = Parameter(_uniform_init(rng, (out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features, dtype=default_dtype()))

    def __call__(self, x):
        """ops.linear of a Tensor x; on a raw x, its arithmetic alone."""
        if isinstance(x, Tensor):
            return ops.linear(x, self.weight, self.bias)
        return x @ self.weight.data.T + self.bias.data


class BatchNorm(Layer):
    """Per-channel batch-norm parameters and running statistics, under the
    one policy of ops.BN_MOMENTUM and ops.BN_EPS. The layer has no call:
    the fused ops (ops.stem_bn_elu_pool, ops.bn_elu_pool) and the eval-mode
    map (ops.bn_affine) read its arrays directly."""

    def __init__(self, channels):
        super().__init__()
        self.gamma = Parameter(np.ones(channels, dtype=default_dtype()))
        self.beta = Parameter(np.zeros(channels, dtype=default_dtype()))
        self.register_buffer("running_mean", np.zeros(channels, dtype=default_dtype()))
        self.register_buffer("running_var", np.ones(channels, dtype=default_dtype()))
