"""The paper-scale seeded steps keep every bit: scripts/bitwise_steps.py's
dump of the tree under test matches tests/data/bitwise_digest.txt, one
line per array (name, dtype, shape, SHA-256 of its bytes).

The digest is re-derived only by a change that moves bits on purpose and
says so, from the repository root:

    PYTHONPATH=src python scripts/bitwise_steps.py dump steps.npz && python scripts/bitwise_steps.py digest steps.npz > tests/data/bitwise_digest.txt
"""

import os
from pathlib import Path

import numpy as np

from test_cli import run_bitwise_steps

DIGEST = Path(__file__).parent / "data" / "bitwise_digest.txt"


def blas_build():
    """numpy's BLAS as its build recorded it: name, version, configuration."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return " ".join(str(blas.get(k, "?")) for k in ("name", "version", "openblas configuration"))


def test_seeded_steps_match_the_committed_digest(tmp_path):
    """The dump runs in a fresh interpreter with one BLAS thread, as the
    digest was derived, so the default config's steps run their branch
    stage and eval blocks on threads (a worker per core, which the dump
    reports). Any two dumps that match the digest match each other; compare
    reads this one against itself for its count line."""
    out = str(tmp_path / "steps.npz")
    done = run_bitwise_steps("dump", out)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("1736 arrays")
    assert f"(workers: {len(os.sched_getaffinity(0))})" in done.stdout
    done = run_bitwise_steps("compare", out, out)
    assert done.returncode == 0 and done.stdout.strip() == "1736 arrays compared, 0 differ"
    done = run_bitwise_steps("digest", out)
    assert done.returncode == 0, done.stderr
    want = {line.split(" ", 1)[0]: line for line in DIGEST.read_text().splitlines()}
    got = {line.split(" ", 1)[0]: line for line in done.stdout.splitlines()}
    moved = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    only = [f"{k}: only in the {'digest' if k in want else 'dump'}" for k in sorted(want.keys() ^ got.keys())]
    assert not moved and not only, (
        f"{len(moved)} of {len(want)} arrays moved, {len(only)} in only one of dump and digest "
        f"(numpy {np.__version__}, BLAS {blas_build()}):\n" + "\n".join(moved + only)
    )
