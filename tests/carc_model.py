"""Test helpers over carc's in-memory tree model: reading a tree from disk
into it, hashing, parsing and writing it, and reading a whole archive.  The
program itself streams trees (carc.dump, copy, restore) and never needs
these."""

import os
import stat
from pathlib import Path

from microfold import carc
from microfold.carc import Dir, File, Symlink
from microfold.errors import ParseError, UnsupportedNode
from microfold.hashing import ContentHash


def load_tree(path):
    """Read a filesystem tree into the in-memory model."""
    p = Path(path)
    mode = p.lstat().st_mode
    if stat.S_ISLNK(mode):
        return Symlink(os.readlink(p))
    if stat.S_ISREG(mode):
        return File(p.read_bytes(), executable=bool(mode & stat.S_IXUSR))
    if stat.S_ISDIR(mode):
        d = Dir()
        for child in p.iterdir():
            carc._check_name(child.name.encode())
            d.entries[child.name] = load_tree(child)
        return d
    raise UnsupportedNode(f"{p}: unsupported file type")


def hash_tree(node) -> ContentHash:
    return ContentHash.of_bytes(carc.serialize_tree(node))


def _parse_node(s):
    tag = s.take(2)
    if tag in (b"f\n", b"x\n"):
        return File(s.take(s.number()), executable=tag == b"x\n")
    if tag == b"l\n":
        return Symlink(carc._target(s).decode())
    if tag == b"d\n":
        return Dir({name.decode(): _parse_node(s) for name in carc._names(s)})
    raise ParseError(f"unknown node tag {tag!r}", position=s.position)


def parse(data: bytes):
    """Parse CARC bytes back into the in-memory tree model, with the
    grammar checks restore makes."""
    s = carc._Source([data])
    carc._open(s)
    node = _parse_node(s)
    s.finish()
    return node


def write_tree(node, dest):
    """Materialize an in-memory tree at dest (which must not exist)."""
    carc.restore([carc.serialize_tree(node)], dest)


def serialize_path(path) -> bytes:
    """The whole archive of a filesystem tree."""
    out = []
    carc.dump(path, out.append)
    return b"".join(out)
