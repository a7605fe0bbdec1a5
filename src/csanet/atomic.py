"""Atomic whole-file writes: the bytes go to a temporary file beside the
target, which os.replace renames over it, so a failed write leaves an
existing target as it was and never a partial one."""

import os


def write_atomic(path, *chunks):
    """Write the chunks (bytes-like, or str as UTF-8) to path atomically."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
