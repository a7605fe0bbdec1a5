"""Corrupted EEGD files: read_eegd raises FormatError or DataError, nothing else.

The files are derived from valid ones built here byte by byte from the
documented layout, so the test does not depend on the writer.
"""

import itertools
import struct

import numpy as np

from csanet.data import read_eegd
from csanet.errors import DataError, FormatError

U32_MAX = 2**32 - 1
HEADER_FIELDS = (4, 8, 12, 16, 20)  # version, n_trials, C, T, n_classes


def valid_blob(rng, n, c, t, n_classes=3):
    chunks = [b"EEGD", struct.pack("<IIIII", 1, n, c, t, n_classes)]
    for _ in range(n):
        chunks.append(struct.pack("<III", int(rng.integers(0, n_classes)), int(rng.integers(0, 4)), int(rng.integers(0, 3))))
        chunks.append(rng.standard_normal((c, t)).astype("<f4").tobytes())
    return b"".join(chunks)


def with_header(blob, values):
    out = bytearray(blob)
    for offset, value in values.items():
        struct.pack_into("<I", out, offset, value)
    return bytes(out)


def corrupted_blobs():
    rng = np.random.Generator(np.random.PCG64(4040))
    shapes = [(1, 2, 3), (2, 3, 5), (3, 1, 7), (4, 4, 4)]
    bases = [valid_blob(rng, *shape) for shape in shapes]

    # Byte flips anywhere: one to four positions, each xored with a nonzero byte.
    for i in range(2000):
        out = bytearray(bases[i % len(bases)])
        for pos in rng.integers(0, len(out), size=int(rng.integers(1, 5))):
            out[pos] ^= int(rng.integers(1, 256))
        yield bytes(out)

    # Truncation at every length inside the header and the first record.
    for (n, c, t), blob in zip(shapes, bases):
        for length in range(24 + 12 + 4 * c * t):
            yield blob[:length]

    # Every header field left as is, set to 0 or set to 2**32 - 1.
    for blob in bases:
        for choice in itertools.product((None, 0, U32_MAX), repeat=len(HEADER_FIELDS)):
            values = {off: v for off, v in zip(HEADER_FIELDS, choice) if v is not None}
            if values:
                yield with_header(blob, values)

    # A C x T too large for a numpy record dtype, with 0 and 1 trials,
    # on the header alone and on a header followed by a short record.
    for c, t in ((U32_MAX, U32_MAX), (2**16, 2**16), (2**16, 2**15), (2**29, 1), (1, 2**29), (U32_MAX, 0)):
        for n in (0, 1):
            header = b"EEGD" + struct.pack("<IIIII", 1, n, c, t, 2)
            yield header
            yield header + struct.pack("<III", 0, 0, 0) + b"\x00" * 64


def test_corrupted_files_raise_only_format_or_data_errors(tmp_path):
    path = tmp_path / "corrupt.eegd"
    count = 0
    for count, blob in enumerate(corrupted_blobs(), start=1):
        path.write_bytes(blob)
        try:
            read_eegd(path)
        except (FormatError, DataError):
            pass
        except Exception as exc:  # pragma: no cover - the failure message
            raise AssertionError(f"file {count} ({blob[:24].hex()}...): {type(exc).__name__}: {exc}") from exc
    assert count >= 3000
