"""Minimal reverse-mode autodiff over numpy arrays.

A Tensor wraps one ndarray plus an optional gradient buffer. Ops build a
tape of backward closures. Tensor.backward() walks a tape once, in reverse
topological order, and releases each node as its closure runs, so the
tape's arrays are freed during the walk. Training runs in float32 by
default; a float64 mode (used by the gradient-check and oracle suites) is
switched globally via set_default_dtype / precision.

Threads: forward results are immutable once produced. A tape may be built
and walked on several threads when each thread builds and walks tapes of
its own that share no node, and no leaf that takes a gradient, with
another thread's: the training branch stage builds its four branch tapes
on threads (model.fork_join, which joins every thread it starts before it
returns) and join makes them one node of the outer tape, whose closure
walks them on threads again, each from the gradient the outer walk
brought its root. So no two threads ever add into one grad. A forward
that records no tape (eval, training under no_grad) builds no Tensor: the
model runs the ops' raw-array kernels, on threads too. While threads run,
nothing may switch the dtype or grad globals (set_default_dtype,
precision, no_grad), which every op reads.
"""

from contextlib import contextmanager
from functools import partial

import numpy as np

from .errors import DimensionError, StateError

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True


def set_default_dtype(dtype):
    """Set the dtype used for newly created tensors ("float32"/"float64")."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported default dtype {dtype!r}")
    _DEFAULT_DTYPE = dt.type


def default_dtype():
    return _DEFAULT_DTYPE


@contextmanager
def precision(dtype):
    """Temporarily switch the default dtype (e.g. precision("float64"))."""
    global _DEFAULT_DTYPE
    prev = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        _DEFAULT_DTYPE = prev


@contextmanager
def no_grad():
    """Disable tape construction (inference / evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """N-d float array with an optional gradient buffer.

    data is stored row-major; grad, when present, always matches data's
    shape. Floating arrays and numpy floating scalars (such as the result
    of a full reduction) keep their dtype; bare Python scalars and integer
    inputs are cast to the global default, but add/sub/mul/div give a bare
    operand the dtype of the Tensor it meets (_wrap). np.float64 subclasses
    Python float and is excluded explicitly, or every full reduction of a
    float64 graph would come back as float32.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad=False):
        if type(data) is np.ndarray and data.dtype.kind == "f":
            arr = data  # the common case, an op's float result: kept as is
        elif isinstance(data, (bool, int, float)) and not isinstance(data, np.generic):
            arr = np.asarray(data, dtype=_DEFAULT_DTYPE)
        else:
            arr = np.asarray(data)
            if not np.issubdtype(arr.dtype, np.floating):
                arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._prev = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    # -- autodiff ------------------------------------------------------

    def backward(self, grad=None):
        """Backpropagate from this tensor through the tape, once: each op node
        is released as its closure runs, so only leaves keep their gradients;
        a later walk that reaches a released node raises StateError."""
        if grad is None:
            if self.data.size != 1:
                raise DimensionError("backward() without an explicit gradient needs a scalar")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise DimensionError("seed gradient shape mismatch")
        _accumulate(self, grad)
        order = _reverse_topo(self)
        for i, node in enumerate(order):
            order[i] = None
            if node._backward is not None:
                node._backward(node.grad)
                node._backward, node._prev, node.grad = _walked, (), None

    # -- operators (implemented below as module functions) --------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)


def _wrap(x, like=None):
    """x as a Tensor. A bare x (a scalar, an array) met by a Tensor `like` in
    arithmetic takes like's dtype, as NumPy 2 keeps a 0-d array's dtype."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype) if isinstance(like, Tensor) else x)


def _walked(g):
    raise StateError("this graph was already walked; run the forward again")


def _accumulate(t, g):
    # Gradient buffers are never mutated in place, so aliasing a view is safe.
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _reverse_topo(root):
    """Nodes reachable from root, root first (iterative, no recursion limit)."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._prev:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def _walk(root, grad):
    """Walk root's tape from the gradient grad (None: root was not reached)."""
    if grad is not None:
        root.backward(grad)


def join(roots, run):
    """The outputs roots of separate tapes as one tape node, walked by run.

    Returns, per root that requires a gradient, a handle: a Tensor on the
    root's data whose one parent is the node. The outer walk reaches every
    handle before the node and hands each the gradient it accumulated, the
    same array it would have handed the root. The node's closure then calls
    run(_walk, [(root, grad), ...]), which walks each root's tape from its
    gradient; run(fn, calls) returns [fn(*args) for args in calls], on one
    thread or several (model.fork_join). The roots' tapes must share no
    node, and no leaf that takes a gradient. Roots off the tape come back
    as they are.
    """
    grads = [None] * len(roots)

    def backward(_):
        run(_walk, list(zip(roots, grads)))

    node = Tensor(np.empty(0), requires_grad=True)
    node._backward = backward
    handles = []
    for i, root in enumerate(roots):
        if not root.requires_grad:
            handles.append(root)
            continue
        handle = Tensor(root.data, requires_grad=True)
        handle._prev, handle._backward = (node,), partial(grads.__setitem__, i)
        handles.append(handle)
    return handles


def _make(data, parents, backward):
    """Build an op output, attaching the tape node only when needed."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = backward
    return out


def unbroadcast(grad, shape):
    """Sum a broadcasted gradient back down to `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic ----------------------------------------------


def add(a, b):
    a, b = _wrap(a, b), _wrap(b, a)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def sub(a, b):
    a, b = _wrap(a, b), _wrap(b, a)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b):
    a, b = _wrap(a, b), _wrap(b, a)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def div(a, b):
    a, b = _wrap(a, b), _wrap(b, a)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), backward)


def matmul(a, b):
    """Batched matrix product with numpy's leading-axis broadcasting."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 1 or b.ndim < 2:
        raise DimensionError("matmul needs at least a 1-d lhs and 2-d rhs")
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, unbroadcast(gb, b.data.shape))

    return _make(out_data, (a, b), backward)


# -- reductions and shape ops --------------------------------------------


def tsum(x, axis=None, keepdims=False):
    x = _wrap(x)
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not x.requires_grad:
            return
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _accumulate(x, np.broadcast_to(gg, x.data.shape).copy())

    return _make(out_data, (x,), backward)


def reshape(x, shape):
    x = _wrap(x)
    out_data = x.data.reshape(shape)

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g.reshape(x.data.shape))

    return _make(out_data, (x,), backward)


def transpose(x, axes):
    x = _wrap(x)
    axes = tuple(axes)
    out_data = x.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g.transpose(inverse))

    return _make(out_data, (x,), backward)


def concat(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accumulate(t, g[tuple(idx)])

    return _make(out_data, tuple(tensors), backward)


def narrow(x, axis, start, length):
    """Contiguous slice [start, start+length) along one axis."""
    x = _wrap(x)
    if start < 0 or start + length > x.data.shape[axis]:
        raise DimensionError("narrow out of range")
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out_data = x.data[idx]

    def backward(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[idx] = g
            _accumulate(x, full)

    return _make(out_data, (x,), backward)


def _zero_pad(a, pad_width):
    """np.pad(a, pad_width) with zeros: one np.zeros and a slice assignment.

    pad_width is a (before, after) pair of non-negative ints per axis. The
    result takes np.pad's memory order, F for an input that is
    F-contiguous and not C-contiguous, C otherwise, since layout decides
    the order of later sums. Always a new array.
    """
    shape = tuple(b + n + e for n, (b, e) in zip(a.shape, pad_width))
    out = np.zeros(shape, dtype=a.dtype, order="F" if a.flags.fnc else "C")
    out[tuple(slice(b, b + n) for n, (b, _) in zip(a.shape, pad_width))] = a
    return out


def pad(x, pad_width):
    """Zero-pad; pad_width is a ((before, after), ...) pair per axis."""
    x = _wrap(x)
    pad_width = tuple((int(b), int(a)) for b, a in pad_width)
    if len(pad_width) != x.ndim:
        raise DimensionError("pad_width must list every axis")
    if any(b < 0 or a < 0 for b, a in pad_width):
        raise DimensionError("pad widths must be non-negative")
    out_data = _zero_pad(x.data, pad_width)
    idx = tuple(slice(b, b + n) for (b, _), n in zip(pad_width, x.data.shape))

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g[idx])

    return _make(out_data, (x,), backward)

