"""Complete-or-absent file writes shared by the store and the service.

One durable-write idiom, used everywhere a file must never be observed
half-written: write to a sibling temporary file, flush + fsync it, atomically
rename it over the target, then fsync the directory so the rename itself is
durable.  Readers therefore see either the previous complete content or the
new complete content, never a partial file — the property the campaign
store's manifest/segment writes and the service's job records rely on for
crash-safe restart.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any


def write_atomic(path: str | Path, text: str) -> Path:
    """Atomically replace ``path`` with ``text`` (temp + fsync + rename).

    The temporary sibling gets a unique name (``mkstemp``), so concurrent
    writers of the same target cannot trip over each other's temp file —
    the two renames serialize and the last complete write wins, which is
    exactly the semantics readers of an atomically-replaced file expect.
    """
    path = Path(path)
    fd, temp = tempfile.mkstemp(dir=path.parent,
                                prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.chmod(temp, 0o644)  # mkstemp defaults to 0600
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
    directory_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)
    return path


def write_json_atomic(path: str | Path, payload: Any) -> Path:
    """Atomically write ``payload`` as JSON indented by 2 (trailing newline
    included)."""
    return write_atomic(path, json.dumps(payload, indent=2) + "\n")
