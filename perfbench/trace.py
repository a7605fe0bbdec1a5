"""Span tracer for the traced run, installed from outside the program.

Wraps, by rebinding names, the public functions and methods of each csanet
module in every module that calls them, plus each op output's backward
closure, so that backward time is charged to the op that built it. Spans
(name, start, end, parent) are kept in memory; self time is a span minus
its children. Only the traced run imports this module.
"""

import importlib
import sys
import time

import numpy as np

OP_NAMES = ("conv2d", "batch_norm", "avg_pool2d", "conv1d_dilated", "elu", "dropout", "softmax", "masked_fill", "cross_entropy")

# Ops timed forward and backward: (module, function, span name).
OPS = [("ops", op, f"ops.{op}") for op in OP_NAMES] + [
    ("autodiff", "pad", "autodiff.pad"),
    ("autodiff", "matmul", "autodiff.matmul"),
] + [("autodiff", fn, "autodiff.elementwise") for fn in (
    "add", "sub", "mul", "div", "reshape", "transpose", "concat", "narrow", "tsum",
)]

# Calls timed as one span each: (module, function, span name).
CALLS = [
    ("attention", "msca_forward", "attention.msca"),
    ("attention", "topk_softmax", "attention.topk_softmax"),
    ("attention", "multiscale_pool", "attention.multiscale_pool"),
    ("augment", "sr_augment", "augment.sr_augment"),
    ("data", "trials_to_arrays", "data.trials_to_arrays"),
    ("data", "read_eegd", "data.read_eegd"),
    ("optim", "adam_step", "optim.adam_step"),
    ("metrics", "evaluate", "metrics.evaluate"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
]

# Methods timed as one span each: (module, class, method, span name).
METHODS = [
    ("model", "CsanetModel", "__call__", "model.forward"),
    ("model", "Branch", "__call__", "model.stem"),
    ("model", "CsanetModel", "fuse_branches", "model.fusion"),
    ("model", "CsanetModel", "tcn_forward", "model.tcn"),
    ("layers", "Linear", "__call__", "model.classifier"),
]

NAME, START, END, PARENT = range(4)


def _conv2d_macs(args, out):
    """Forward multiply-accumulates of one conv2d call, from its shapes."""
    _, cin_per_group, kh, kw = args[1].shape
    return out.size * cin_per_group * kh * kw


def _owner(a):
    """The object that owns an array's memory (follows view bases)."""
    while getattr(a, "base", None) is not None:
        a = a.base
    return a


def tape_size(root):
    """(nodes, bytes) reachable from root: node data plus every array the
    backward closures keep alive, each buffer counted once."""
    seen, stack, nodes = {id(root)}, [root], 0
    buffers = {}

    def hold(value):
        if hasattr(value, "_prev"):  # a Tensor
            value = value.data
        if isinstance(value, np.ndarray):
            owner = _owner(value)
            buffers[id(owner)] = getattr(owner, "nbytes", None) or len(owner)
        elif isinstance(value, (tuple, list)):
            for v in value:
                if isinstance(v, np.ndarray) or hasattr(v, "_prev"):
                    hold(v)

    while stack:
        node = stack.pop()
        nodes += 1
        hold(node.data)
        fn = node._backward
        fn = getattr(fn, "traced_from", fn)
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                hold(cell.cell_contents)
            except ValueError:  # empty cell
                pass
        for parent in node._prev:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes, sum(buffers.values())


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # [name id, start, end, parent index]
        self.stack = []
        self.makes = {}  # span index -> op outputs created directly inside it
        self.macs = {}  # span index -> forward MACs (conv2d)
        self.tapes = {}  # span index of a backward -> (nodes, bytes)
        self._undo = []

    # -- spans --------------------------------------------------------

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        self.spans.append([nid, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][END] = time.perf_counter()
        self.stack.pop()

    def call(self, fn, name):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        traced.traced_from = fn
        return traced

    def op(self, fn, name):
        fwd, bwd = f"{name}.fwd", f"{name}.bwd"
        macs = _conv2d_macs if name == "ops.conv2d" else None

        def traced(*args, **kwargs):
            index = self.open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if macs is not None:
                self.macs[index] = macs(args, out)
            backward = out._backward
            # An op that hands back a tensor made elsewhere (dropout in
            # eval mode) leaves that tensor's closure to the op that made it.
            if backward is not None and not hasattr(backward, "traced_from"):
                out._backward = self.call(backward, bwd)
            return out

        traced.traced_from = fn
        return traced

    # -- installation ---------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every csanet module-level name bound to original at replacement."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("csanet"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, original))

    def install(self):
        from csanet import autodiff

        def module(name):
            return importlib.import_module(f"csanet.{name}")

        for mod, fn, name in OPS:
            original = getattr(module(mod), fn)
            self._rebind(original, self.op(original, name))
        for mod, fn, name in CALLS:
            original = getattr(module(mod), fn)
            self._rebind(original, self.call(original, name))
        for mod, cls, meth, name in METHODS:
            klass = getattr(module(mod), cls)
            original = klass.__dict__[meth]
            setattr(klass, meth, self.call(original, name))
            self._undo.append((klass, meth, original))

        make = autodiff._make

        def counted_make(data, parents, backward):
            owner = self.stack[-1] if self.stack else -1
            self.makes[owner] = self.makes.get(owner, 0) + 1
            return make(data, parents, backward)

        self._rebind(make, counted_make)

        backward = autodiff.Tensor.backward

        def traced_backward(tensor, grad=None):
            size = tape_size(tensor)
            index = self.open("autodiff.backward")
            self.tapes[index] = size
            try:
                return backward(tensor, grad)
            finally:
                self.close(index)

        autodiff.Tensor.backward = traced_backward
        self._undo.append((autodiff.Tensor, "backward", backward))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def summary(self, exclude_under=None):
        """Per span name: calls, inclusive and self seconds, op outputs made,
        MACs, tape nodes and bytes, over spans not nested in a span named
        exclude_under (that span itself is kept)."""
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        excluded = [False] * n
        skip = self._ids.get(exclude_under, -1)
        for i, (nid, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                excluded[i] = excluded[parent] or spans[parent][NAME] == skip
        out = {}
        for i, (nid, start, end, parent) in enumerate(spans):
            if excluded[i]:
                continue
            row = out.setdefault(self.names[nid], dict(calls=0, incl_s=0.0, self_s=0.0, makes=0, macs=0, tape_nodes=0, tape_bytes=0))
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["makes"] += self.makes.get(i, 0)
            row["macs"] += self.macs.get(i, 0)
            nodes, nbytes = self.tapes.get(i, (0, 0))
            row["tape_nodes"] += nodes
            row["tape_bytes"] += nbytes
        return out

    def write(self, path):
        """Spans as arrays: names[name], start, end (perf_counter s), parent."""
        arr = np.array(self.spans, dtype=np.float64).reshape(-1, 4)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=arr[:, NAME].astype(np.int32),
            start=arr[:, START],
            end=arr[:, END],
            parent=arr[:, PARENT].astype(np.int64),
        )


_EMPTY = dict(calls=0, incl_s=0.0, self_s=0.0, makes=0, macs=0, tape_nodes=0, tape_bytes=0)
MB = float(1 << 20)

# (metric, unit) in print order.
LAYER_METRICS = (
    [(f"ops.{op}.{d}_ms", "ms") for op in OP_NAMES for d in ("fwd", "bwd")]
    + [("ops.conv2d.gmac", "GMAC"), ("ops.calls", "count")]
    + [(f"autodiff.{n}.{d}_ms", "ms") for n in ("pad", "matmul", "elementwise") for d in ("fwd", "bwd")]
    + [("autodiff.backward_ms", "ms"), ("autodiff.tape_nodes", "count"), ("autodiff.tape_mb", "MB")]
    + [(f"model.{n}_ms", "ms") for n in ("forward", "stem", "fusion", "tcn", "classifier")]
    + [(f"attention.{n}_ms", "ms") for n in ("msca", "topk_softmax", "multiscale_pool")]
    + [("augment.sr_augment_ms", "ms"), ("data.trials_to_arrays_ms", "ms"), ("data.read_eegd_ms", "ms")]
    + [("optim.adam_step_ms", "ms"), ("metrics.evaluate_ms", "ms")]
    + [("checkpoint.save_ms", "ms"), ("checkpoint.load_ms", "ms")]
    + [("gradcheck.loss_evals", "count"), ("gradcheck.loss_eval_ms", "ms")]
    + [("proc.user_cpu_s", "s"), ("proc.sys_cpu_s", "s"), ("proc.minor_faults", "count")]
    + [("trace.overhead_pct", "%")]
)


def layer_metrics(summary, traced, plain):
    """Per-layer values from a traced window's span summary.

    Op and autodiff times are self times per unit (step, eval batch or
    loss evaluation); module boundaries are time inside the call per unit;
    read_eegd, checkpoint save/load and loss_eval are per call. proc.*
    comes from the untraced window, and trace.overhead_pct compares the
    time per unit of the two windows.
    """
    units = traced.units

    def row(name):
        return summary.get(name, _EMPTY)

    def per_unit(name, key="incl_s"):
        return 1e3 * row(name)[key] / units

    def per_call(name, key="incl_s", scale=1e3):
        r = row(name)
        return scale * r[key] / r["calls"] if r["calls"] else 0.0

    m = {}
    for op in OP_NAMES:
        m[f"ops.{op}.fwd_ms"] = per_unit(f"ops.{op}.fwd", "self_s")
        m[f"ops.{op}.bwd_ms"] = per_unit(f"ops.{op}.bwd", "self_s")
    m["ops.conv2d.gmac"] = row("ops.conv2d.fwd")["macs"] / units / 1e9
    m["ops.calls"] = sum(r["makes"] for r in summary.values()) / units
    for name in ("pad", "matmul", "elementwise"):
        m[f"autodiff.{name}.fwd_ms"] = per_unit(f"autodiff.{name}.fwd", "self_s")
        m[f"autodiff.{name}.bwd_ms"] = per_unit(f"autodiff.{name}.bwd", "self_s")
    m["autodiff.backward_ms"] = per_unit("autodiff.backward", "self_s")
    m["autodiff.tape_nodes"] = per_call("autodiff.backward", "tape_nodes", 1.0)
    m["autodiff.tape_mb"] = per_call("autodiff.backward", "tape_bytes", 1.0 / MB)
    for name in ("forward", "stem", "fusion", "tcn", "classifier"):
        m[f"model.{name}_ms"] = per_unit(f"model.{name}")
    for name in ("msca", "topk_softmax", "multiscale_pool"):
        m[f"attention.{name}_ms"] = per_unit(f"attention.{name}")
    m["augment.sr_augment_ms"] = per_unit("augment.sr_augment")
    m["data.trials_to_arrays_ms"] = per_unit("data.trials_to_arrays")
    m["data.read_eegd_ms"] = per_call("data.read_eegd")
    m["optim.adam_step_ms"] = per_unit("optim.adam_step")
    m["metrics.evaluate_ms"] = per_unit("metrics.evaluate")
    m["checkpoint.save_ms"] = per_call("checkpoint.save")
    m["checkpoint.load_ms"] = per_call("checkpoint.load")
    m["gradcheck.loss_evals"] = row("gradcheck.loss_eval")["calls"]
    m["gradcheck.loss_eval_ms"] = per_call("gradcheck.loss_eval")
    user, system, faults = plain.rusage / plain.units
    m["proc.user_cpu_s"], m["proc.sys_cpu_s"], m["proc.minor_faults"] = float(user), float(system), float(faults)
    m["trace.overhead_pct"] = 100.0 * ((traced.seconds / traced.units) / (plain.seconds / plain.units) - 1.0)
    return m
