"""Versioned binary model checkpoints.

Layout (all integers little-endian u32, floats little-endian f32):

    magic "CSAN" | version=1 | config_len | config text (flat key=value,
    UTF-8, ModelConfig fields only) | n_blobs | per blob:
    name_len | name UTF-8 | ndim | dims... | values f32

The config text holds no derived value and no run setting; files whose
text carries retired keys load when those agree with the config
(config.RETIRED_KEYS).

Blobs cover every named parameter followed by every named buffer
(batch-norm running statistics), in model iteration order. Reload is
bit-exact at the stored 32-bit precision.
"""

import math
import struct

import numpy as np

from .atomic import write_atomic
from .config import ModelConfig, config_from_text, config_to_text
from .errors import FormatError
from .model import CsanetModel

CHECKPOINT_MAGIC = b"CSAN"
CHECKPOINT_VERSION = 1


def _blob_items(model):
    yield from model.named_parameters()
    yield from model.named_buffers()


def checkpoint_bytes(model) -> bytes:
    cfg_text = config_to_text(model.config).encode("utf-8")
    chunks = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(cfg_text)), cfg_text]
    items = list(_blob_items(model))
    chunks.append(struct.pack("<I", len(items)))
    for name, value in items:
        arr = value if isinstance(value, np.ndarray) else value.data
        arr = np.asarray(arr, dtype="<f4")  # keeps 0-d shapes; tobytes() is C-order
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    return b"".join(chunks)


def save_checkpoint(model, path):
    """Write atomically: a failed save never leaves a partial file."""
    write_atomic(path, checkpoint_bytes(model))


def _text(blob, offset, length, what):
    """UTF-8 text of blob[offset : offset + length]."""
    try:
        return blob[offset : offset + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not UTF-8", offset=offset + exc.start) from exc


def _blob_table(blob, offset):
    """The blob table from offset to the end of blob, checked against the
    file before anything is built: [(name, name offset, dims, dims offset,
    values offset)]. Every length, name, shape and value extent must fit,
    no name may repeat, and nothing may follow the last blob; otherwise
    FormatError."""
    (n_blobs,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    table, names = [], set()
    for _ in range(n_blobs):
        if len(blob) < offset + 4:
            raise FormatError("truncated blob header", offset=len(blob))
        (name_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if len(blob) < offset + name_len + 4:
            raise FormatError("truncated blob name", offset=len(blob))
        name = _text(blob, offset, name_len, "blob name")
        name_at = offset
        if name in names:
            raise FormatError(f"repeated blob name {name!r}", offset=name_at)
        names.add(name)
        offset += name_len
        (ndim,) = struct.unpack_from("<I", blob, offset)
        if len(blob) < offset + 4 + 4 * ndim:
            raise FormatError(f"truncated shape for blob {name!r}", offset=len(blob))
        dims = struct.unpack_from(f"<{ndim}I", blob, offset + 4)
        dims_at = offset
        offset += 4 + 4 * ndim
        nbytes = 4 * math.prod(dims)
        if len(blob) < offset + nbytes:
            raise FormatError(f"truncated values for blob {name!r}", offset=len(blob))
        table.append((name, name_at, dims, dims_at, offset))
        offset += nbytes
    if len(blob) != offset:
        raise FormatError("trailing bytes after final blob", offset=offset)
    return table


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelConfig, CsanetModel).

    A malformed file raises FormatError with the byte offset of the fault;
    a well-formed config that fails validation raises ConfigurationError.
    The whole file is parsed and checked before the model is built; blob
    names and shapes are then checked against the model.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {CHECKPOINT_MAGIC!r}", offset=0)
    if len(blob) < 12:
        raise FormatError("truncated header", offset=len(blob))
    version, cfg_len = struct.unpack_from("<II", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    offset = 12
    if len(blob) < offset + cfg_len + 4:
        raise FormatError("truncated config block", offset=len(blob))
    cfg = config_from_text(_text(blob, offset, cfg_len, "config text"), cls=ModelConfig)
    table = _blob_table(blob, offset + cfg_len)

    model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(0)))
    targets = {name: p.data for name, p in model.named_parameters()}
    targets.update(model.named_buffers())
    for name, name_at, dims, dims_at, values_at in table:
        if name not in targets:
            raise FormatError(f"unknown blob name {name!r}", offset=name_at)
        target = targets[name]
        if dims != target.shape:
            raise FormatError(f"blob {name!r} shape {dims} != expected {target.shape}", offset=dims_at)
        target[...] = np.frombuffer(blob, dtype="<f4", count=math.prod(dims), offset=values_at).reshape(dims)
    missing = set(targets) - {entry[0] for entry in table}
    if missing:
        raise FormatError(f"checkpoint is missing blobs: {sorted(missing)}", offset=len(blob))
    return cfg, model
