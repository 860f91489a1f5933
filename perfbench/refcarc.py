"""An independent CARC encoder, used to check every hash the program records.

Written from the archive grammar in PAPER.md and the carc.py docstring,
without importing microfold:

    archive := "carc1\\n" node
    node    := ("f\\n" | "x\\n") <size> "\\n" <bytes>     regular file (x = exec)
             | "l\\n" <size> "\\n" <target-bytes>         symlink
             | "d\\n" <count> "\\n" entry*                directory
    entry   := <name-length> "\\n" <name-bytes> node

Entries sort by raw name bytes.  The encoder streams file contents in 1 MiB
blocks into the digest, so checking a large item costs no more memory than
one block.  SHA-256 is the standard library's, which is independent of the
program's ContentHash.
"""

from __future__ import annotations

import hashlib
import os
import stat

MAGIC = b"carc1\n"
_BLOCK = 1 << 20


def _encode(path: bytes, write):
    st = os.lstat(path)
    if stat.S_ISLNK(st.st_mode):
        target = os.readlink(path)
        write(b"l\n%d\n" % len(target) + target)
    elif stat.S_ISREG(st.st_mode):
        tag = b"x\n" if st.st_mode & stat.S_IXUSR else b"f\n"
        write(tag + b"%d\n" % st.st_size)
        with open(path, "rb") as f:
            while block := f.read(_BLOCK):
                write(block)
    elif stat.S_ISDIR(st.st_mode):
        names = sorted(os.listdir(path))
        write(b"d\n%d\n" % len(names))
        for name in names:
            write(b"%d\n" % len(name) + name)
            _encode(os.path.join(path, name), write)
    else:
        raise ValueError(f"{path!r}: not a file, directory or symlink")


def encode(path) -> bytes:
    """The whole archive of a filesystem tree, for tests and small items."""
    out = [MAGIC]
    _encode(os.fsencode(path), out.append)
    return b"".join(out)


def digest(path) -> tuple[str, int]:
    """(SHA-256 hex, archive length) of the tree at path, streamed."""
    h = hashlib.sha256(MAGIC)
    size = len(MAGIC)

    def write(chunk):
        nonlocal size
        h.update(chunk)
        size += len(chunk)

    _encode(os.fsencode(path), write)
    return h.hexdigest(), size


def read_fields(path) -> dict:
    """Parse a "key: value" record (store record or cache info file)."""
    fields = {}
    with open(path, encoding="utf-8") as f:
        for line in f.read().splitlines():
            key, _, value = line.partition(": ")
            fields[key] = value
    return fields
