"""Corrupted checkpoints: load_checkpoint raises FormatError (with the byte
offset of the fault) or ConfigurationError, nothing else.

The files are derived from a valid model-mini checkpoint built here byte
by byte from the documented layout, so the test does not depend on the
writer. Value bytes are skipped: any four bytes are a valid float32.
"""

import struct

import numpy as np

from csanet.checkpoint import load_checkpoint
from csanet.config import config_to_text
from csanet.errors import ConfigurationError, FormatError
from csanet.model import CsanetModel
from csanet.verification import mini_model_config

FUZZ_BYTES = 2000  # header, config text and the first blob headers
VALUES = (0x00, 0xFF, 0x80)


def valid_checkpoint():
    """The bytes of a model-mini checkpoint and the (start, end) byte spans
    of its fields other than the blob values."""
    model = CsanetModel(mini_model_config(), rng=np.random.Generator(np.random.PCG64(8)))
    cfg_text = config_to_text(model.config).encode("utf-8")
    chunks = [b"CSAN", struct.pack("<II", 1, len(cfg_text)), cfg_text]
    items = list(model.named_parameters()) + list(model.named_buffers())
    chunks.append(struct.pack("<I", len(items)))
    spans = [(0, 16 + len(cfg_text))]  # magic, version, config length, config text, blob count
    offset = spans[0][1]
    for name, value in items:
        arr = np.asarray(getattr(value, "data", value), dtype="<f4")
        encoded = name.encode("utf-8")
        head = struct.pack("<I", len(encoded)) + encoded + struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape)
        chunks += [head, arr.tobytes()]
        spans.append((offset, offset + len(head)))
        offset += len(head) + arr.nbytes
    return b"".join(chunks), spans


def corrupted_blobs(blob, spans):
    config_end = spans[0][1]
    structural = [pos for start, end in spans for pos in range(start, end) if pos < FUZZ_BYTES]
    # Each byte of the header and config text set to 0x00, 0xFF and 0x80;
    # each later structural byte among the first FUZZ_BYTES to one of them in turn.
    for i, pos in enumerate(structural):
        for value in VALUES if pos < config_end else VALUES[i % 3 : i % 3 + 1]:
            if blob[pos] != value:
                out = bytearray(blob)
                out[pos] = value
                yield bytes(out)
    # Each blob's name length and last header word (its last dim, or ndim
    # for a scalar) set to 0 or 2**32 - 1, alternately.
    for i, (start, end) in enumerate(spans[1:]):
        for pos, value in ((start, 0), (end - 4, 2**32 - 1)) if i % 2 else ((start, 2**32 - 1), (end - 4, 0)):
            out = bytearray(blob)
            struct.pack_into("<I", out, pos, value)
            yield bytes(out)
    # Truncation at the start and end of every field span.
    for start, end in spans:
        yield blob[:start]
        yield blob[: end - 1]


def test_valid_base_loads(tmp_path):
    blob, _ = valid_checkpoint()
    path = tmp_path / "base.csan"
    path.write_bytes(blob)
    cfg, model = load_checkpoint(path)
    assert cfg == mini_model_config()
    assert len(list(model.named_parameters())) > 50


def test_corrupted_checkpoints_raise_only_format_or_config_errors(tmp_path):
    blob, spans = valid_checkpoint()
    path = tmp_path / "corrupt.csan"
    count = format_errors = 0
    for count, bad in enumerate(corrupted_blobs(blob, spans), start=1):
        path.write_bytes(bad)
        try:
            load_checkpoint(path)
        except FormatError as exc:
            format_errors += 1
            assert exc.offset is not None and 0 <= exc.offset <= len(bad), f"file {count}: {exc}"
        except ConfigurationError:
            pass
        except Exception as exc:  # pragma: no cover - the failure message
            raise AssertionError(f"file {count}: {type(exc).__name__}: {exc}") from exc
    assert count >= 2500 and format_errors >= count // 2
