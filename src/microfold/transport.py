"""Reading files from a location that is either a directory or an HTTP base.

Channels, substitute caches, and source archives all share the same trivial
transport: a file tree addressed by relative path, reachable either on the
local filesystem or via HTTP GET.  `get` is the one HTTP GET.
"""

from __future__ import annotations

from pathlib import Path

# Seconds a network read may stall (connect, or between received bytes).
TIMEOUT_S = 30


def is_url(location: str) -> bool:
    return str(location).startswith(("http://", "https://"))


def get(url: str) -> bytes | None:
    """HTTP GET; None on 404.  Other failures, timeouts included, raise OSError."""
    import urllib.error  # imported here: most commands never touch HTTP
    import urllib.request
    try:
        with urllib.request.urlopen(url, timeout=TIMEOUT_S) as resp:
            return resp.read()
    except urllib.error.HTTPError as e:
        if e.code == 404:
            return None
        raise


def read_bytes(location, relpath: str) -> bytes | None:
    """Fetch location/relpath; None when the entry does not exist."""
    if is_url(str(location)):
        return get(str(location).rstrip("/") + "/" + relpath)
    path = Path(location) / relpath
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None
