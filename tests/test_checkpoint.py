"""Checkpoint container: bit-exact round-trips and malformed inputs."""

import math
import struct
from pathlib import Path

import numpy as np
import pytest

from csanet import checkpoint
from csanet.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from csanet.errors import FormatError
from csanet.model import CsanetModel
from csanet.verification import mini_model_config


def make_model(seed=0):
    return CsanetModel(mini_model_config(), rng=np.random.Generator(np.random.PCG64(seed)))


def test_save_load_roundtrip_bit_exact(tmp_path):
    model = make_model(seed=3)
    path = tmp_path / "model.csan"
    save_checkpoint(model, path)
    cfg, loaded = load_checkpoint(path)
    assert cfg == model.config
    for (n1, p1), (n2, p2) in zip(model.named_parameters(), loaded.named_parameters()):
        assert n1 == n2
        assert p1.data.tobytes() == p2.data.tobytes()
    for (n1, b1), (n2, b2) in zip(model.named_buffers(), loaded.named_buffers()):
        assert n1 == n2
        np.testing.assert_array_equal(b1, b2)
    # Write -> read -> write reproduces the byte stream exactly.
    save_checkpoint(loaded, tmp_path / "again.csan")
    assert (tmp_path / "model.csan").read_bytes() == (tmp_path / "again.csan").read_bytes()


def test_loaded_model_predicts_identically(tmp_path):
    model = make_model(seed=4)
    x = np.random.default_rng(0).standard_normal((2, 1, 3, 64)).astype(np.float32)
    save_checkpoint(model, tmp_path / "m.csan")
    _, loaded = load_checkpoint(tmp_path / "m.csan")
    from csanet.autodiff import no_grad

    with no_grad():
        a = model(x).data
        b = loaded(x).data
    assert a.tobytes() == b.tobytes()


def test_bad_magic_reports_offset_zero(tmp_path):
    path = tmp_path / "bad.csan"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.offset == 0


def test_truncated_payload_is_format_error(tmp_path):
    model = make_model()
    blob = checkpoint_bytes(model)
    path = tmp_path / "trunc.csan"
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("cut", ["values", "header", "trailing"])
def test_malformed_blob_table_fails_before_the_model_is_built(tmp_path, monkeypatch, cut):
    blob = checkpoint_bytes(make_model())
    bad = {"values": blob[:-1], "header": blob[: len(blob) // 2], "trailing": blob + b"junk"}[cut]
    path = tmp_path / "bad.csan"
    path.write_bytes(bad)
    built = []

    def spy(*args, **kwargs):
        built.append(args)
        return CsanetModel(*args, **kwargs)

    monkeypatch.setattr(checkpoint, "CsanetModel", spy)
    with pytest.raises(FormatError):
        load_checkpoint(path)
    assert built == []
    path.write_bytes(blob)
    load_checkpoint(path)
    assert len(built) == 1


def test_trailing_garbage_is_format_error(tmp_path):
    model = make_model()
    path = tmp_path / "trail.csan"
    path.write_bytes(checkpoint_bytes(model) + b"junk")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_version_mismatch_is_format_error(tmp_path):
    blob = bytearray(checkpoint_bytes(make_model()))
    blob[4] = 9  # version field
    path = tmp_path / "ver.csan"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_checkpoint(path)


V1_MINI = Path(__file__).parent / "data" / "v1_mini.csan"


def test_repeated_blob_name_fails_before_the_model_is_built(tmp_path, monkeypatch):
    # v1_mini.csan plus a second copy of one blob, its values moved by 1.0:
    # the later copy must not silently win.
    blob = V1_MINI.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", blob, 8)
    table_at = 12 + cfg_len
    table = checkpoint._blob_table(blob, table_at)
    index = [entry[0] for entry in table].index("branch1.temporal_conv.weight")
    _, name_at, dims, _, values_at = table[index]
    values = np.frombuffer(blob, dtype="<f4", count=math.prod(dims), offset=values_at) + np.float32(1.0)
    extra = blob[name_at - 4 : values_at] + values.astype("<f4").tobytes()  # name_len .. dims, then values
    bad = blob[:table_at] + struct.pack("<I", len(table) + 1) + blob[table_at + 4 :] + extra
    path = tmp_path / "repeated.csan"
    path.write_bytes(bad)
    built = []
    monkeypatch.setattr(checkpoint, "CsanetModel", lambda *a, **k: built.append(a))
    with pytest.raises(FormatError, match="repeated blob name 'branch1.temporal_conv.weight'") as info:
        load_checkpoint(path)
    assert info.value.offset == len(blob) + 4 and built == []

