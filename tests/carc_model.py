"""The reference model of CARC: trees held in memory (File, Symlink, Dir),
their encoder and parser, and the helpers that move them to and from disk.

The program has one encoder, carc's streaming walk over trees on disk.  This
model is written from the grammar in carc's docstring and shares no code
with it, so the tests can compare the two: the golden vectors and the
generated trees are encoded here and by carc.dump of the same tree written
to disk (write_tree), and the bytes must agree."""

import os
import stat
from pathlib import Path

from microfold import carc
from microfold.errors import MicrofoldError, ParseError
from microfold.hashing import ContentHash

MAGIC = b"carc1\n"


class InvalidName(ValueError):
    """A tree entry name is empty, ".", ".." or holds "/" or NUL."""


class File:
    def __init__(self, data: bytes, executable: bool = False):
        self.data, self.executable = data, executable

    def __eq__(self, other):
        return type(other) is File and vars(self) == vars(other)


class Symlink:
    def __init__(self, target: str):
        self.target = target

    def __eq__(self, other):
        return type(other) is Symlink and self.target == other.target


class Dir:
    def __init__(self, entries: dict | None = None):
        self.entries = {} if entries is None else entries  # name -> node

    def __eq__(self, other):
        return type(other) is Dir and self.entries == other.entries


def check_name(name: bytes):
    if not name or b"/" in name or b"\x00" in name or name in (b".", b".."):
        raise InvalidName(f"bad entry name: {name!r}")


def _serialize_node(node) -> bytes:
    if isinstance(node, File):
        tag = b"x\n" if node.executable else b"f\n"
        return tag + str(len(node.data)).encode() + b"\n" + node.data
    if isinstance(node, Symlink):
        target = node.target.encode()
        return b"l\n" + str(len(target)).encode() + b"\n" + target
    if isinstance(node, Dir):
        out = [b"d\n", str(len(node.entries)).encode(), b"\n"]
        for name in sorted(node.entries, key=lambda n: n.encode()):
            raw = name.encode()
            check_name(raw)
            out.append(str(len(raw)).encode() + b"\n" + raw)
            out.append(_serialize_node(node.entries[name]))
        return b"".join(out)
    raise MicrofoldError(f"not a tree node: {node!r}")


def serialize_tree(node) -> bytes:
    """The archive of an in-memory tree."""
    return MAGIC + _serialize_node(node)


def serialize_bytes(data: bytes, executable: bool = False) -> bytes:
    """The archive of a single file holding data."""
    return serialize_tree(File(data, executable))


def hash_tree(node) -> ContentHash:
    return ContentHash.of_bytes(serialize_tree(node))


class _Reader:
    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ParseError("truncated archive", position=len(self.data))
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def number(self) -> int:
        nl = self.data.find(b"\n", self.pos)
        raw = self.data[self.pos:nl if nl >= 0 else len(self.data)]
        if nl < 0 or not raw.isdigit() or len(raw) > 20:
            raise ParseError(f"expected decimal, got {raw[:20]!r}", position=self.pos)
        self.pos = nl + 1
        return int(raw)


def _parse_node(r: _Reader):
    tag = r.take(2)
    if tag in (b"f\n", b"x\n"):
        return File(r.take(r.number()), executable=tag == b"x\n")
    if tag == b"l\n":
        target = r.take(r.number())
        if not target or b"\x00" in target:
            raise ParseError(f"bad symlink target: {target!r}", position=r.pos)
        return Symlink(target.decode())
    if tag == b"d\n":
        d, prev = Dir(), None
        for _ in range(r.number()):
            name = r.take(r.number())
            try:
                check_name(name)
            except InvalidName as e:
                raise ParseError(str(e), position=r.pos) from None
            if prev is not None and name <= prev:
                raise ParseError(f"entries out of order: {name!r}", position=r.pos)
            prev = name
            d.entries[name.decode()] = _parse_node(r)
        return d
    raise ParseError(f"unknown node tag {tag!r}", position=r.pos)


def parse(data: bytes):
    """Parse CARC bytes back into the in-memory model, with the grammar
    checks that carc.restore makes."""
    r = _Reader(data)
    if r.take(len(MAGIC)) != MAGIC:
        raise ParseError("bad archive magic")
    node = _parse_node(r)
    if r.pos != len(data):
        raise ParseError("trailing garbage after archive", position=r.pos)
    return node


def write_tree(node, dest) -> Path:
    """Write an in-memory tree at dest (which must not exist) with plain os
    calls, with the mode bits carc gives a copy; returns dest as a Path."""
    dest = Path(dest)
    if isinstance(node, File):
        dest.write_bytes(node.data)
        dest.chmod(0o755 if node.executable else 0o644)
    elif isinstance(node, Symlink):
        os.symlink(node.target, dest)
    elif isinstance(node, Dir):
        dest.mkdir()
        dest.chmod(0o755)
        for name, child in node.entries.items():
            check_name(name.encode())
            write_tree(child, dest / name)
    else:
        raise MicrofoldError(f"not a tree node: {node!r}")
    return dest


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
            check_name(child.name.encode())
            d.entries[child.name] = load_tree(child)
        return d
    raise MicrofoldError(f"{p}: unsupported file type")


def serialize_path(path) -> bytes:
    """The whole archive of a filesystem tree, as carc.dump writes it."""
    out = []
    carc.dump(path, out.append)
    return b"".join(out)
