"""Reading files from a location that is either a directory or an HTTP base.

Channels, substitute caches, and source archives all share the same trivial
transport: a file tree addressed by relative path, on the local filesystem
or behind HTTP.  `stream` yields an entry in blocks, so a large one is never
held whole.  `_get` is the one HTTP GET: HTTP/1.0, TLS for https://, no proxy.
"""

from __future__ import annotations

import os
from urllib.parse import urljoin, urlsplit

# Seconds a network read may stall (connect, or between received bytes).
TIMEOUT_S = 30
# Bytes read from a socket or a file at a time.
_BLOCK = 1 << 20
_MAX_LINE = 1 << 16
_MAX_REDIRECTS = 5


class BrokenFetch(OSError):
    """A stream broke off: a read failed or timed out, or the body did not
    have its Content-Length."""


def is_url(location: str) -> bool:
    return str(location).startswith(("http://", "https://"))


def _blocks(f, length=None):
    """f's bytes in blocks of at most _BLOCK, to its end or, given length,
    to length bytes; a failed read, or fewer bytes, raises BrokenFetch.
    Returned started, so that running out, closing it or dropping it
    closes f."""
    def gen(left):
        with f:
            yield
            while left:
                try:
                    block = f.read(min(_BLOCK, left))
                except OSError as e:
                    raise BrokenFetch(str(e)) from e
                if not block:
                    break
                left -= len(block)
                yield block
            if left and length is not None:
                raise BrokenFetch(f"body ends {left} bytes short of its length")

    it = gen(1 << 62 if length is None else length)
    next(it)
    return it


def _get(url: str):
    """GET url: the body as a stream of blocks, or None on 404.  Redirects
    are followed; other statuses and malformed responses raise OSError."""
    for _ in range(_MAX_REDIRECTS + 1):
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname \
                or any(c <= " " for c in url):
            raise OSError(f"cannot fetch {url!r}")
        https = parts.scheme == "https"
        import socket  # imported here, as most commands never fetch
        sock = socket.create_connection(
            (parts.hostname, parts.port or (443 if https else 80)), TIMEOUT_S)
        try:
            if https:
                import ssl
                sock = ssl.create_default_context().wrap_socket(
                    sock, server_hostname=parts.hostname)
            target = (parts.path or "/") + ("?" + parts.query if parts.query else "")
            sock.sendall(f"GET {target} HTTP/1.0\r\n"
                         f"Host: {parts.netloc.rpartition('@')[2]}\r\n\r\n".encode())
            f = sock.makefile("rb")
        finally:
            sock.close()  # f, once made, holds the connection until closed
        try:
            version, status, *_ = f.readline(_MAX_LINE).split(None, 2) + [b""] * 2
            if not version.startswith(b"HTTP/") or not status.isdigit():
                raise OSError(f"{url}: malformed status line")
            headers = {}
            while (line := f.readline(_MAX_LINE)).strip():
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            if status == b"200":
                length = headers.get("content-length", "")
                if length and not length.isdigit():
                    raise OSError(f"{url}: bad Content-Length {length!r}")
                return _blocks(f, int(length) if length else None)
        except BaseException:
            f.close()
            raise
        f.close()
        if status == b"404":
            return None
        if status not in (b"301", b"302", b"303", b"307", b"308") \
                or "location" not in headers:
            raise OSError(f"{url}: HTTP {status.decode()}")
        url = urljoin(url, headers["location"])
    raise OSError(f"{url}: more than {_MAX_REDIRECTS} redirects")


def stream(location, relpath: str = ""):
    """location/relpath (location itself if relpath is empty) as a stream of
    blocks of at most _BLOCK bytes, or None if it does not exist.  A
    location is an http(s):// base, a file:// URL or a directory.  Opening
    raises OSError, reading BrokenFetch; closing or dropping the stream
    releases its socket or file."""
    location = str(location).removeprefix("file://")
    if is_url(location):
        return _get(location.rstrip("/") + "/" + relpath if relpath else location)
    try:
        return _blocks(open(os.path.join(location, relpath), "rb", buffering=0))
    except FileNotFoundError:
        return None


def read_bytes(location, relpath: str = "") -> bytes | None:
    """Fetch location/relpath whole; None when the entry does not exist."""
    blocks = stream(location, relpath)
    return None if blocks is None else b"".join(blocks)
