"""CARC: bit-exact canonical serialization of file trees.

The archive is the basis of every output hash.  It captures file contents,
entry names, the executable bit and symlink targets -- and deliberately
nothing else (no timestamps, no ownership, no traversal order).

Grammar:

    archive := "carc1\\n" node
    node    := ("f\\n" | "x\\n") <size> "\\n" <bytes>     regular file (x = exec)
             | "l\\n" <size> "\\n" <target-bytes>         symlink
             | "d\\n" <count> "\\n" entry*                directory
    entry   := <name-length> "\\n" <name-bytes> node

Directory entries are sorted ascending by raw name bytes; sizes and counts
are ASCII decimals.

Trees are streamed, never held in memory: `dump` writes the archive of a
tree on disk to any sink in blocks of at most `_BLOCK` bytes, `copy` copies
a tree while hashing the bytes it copies, and `restore` unpacks an archive,
checking the grammar and hashing the input as it writes; `link` makes a tree
of hard links to another's files.  Trees that these create, and build outputs
(see `dump`'s settle), all carry the same mode bits: 0755 for directories
and executable files, 0644 for the rest.  None of them goes more than
`MAX_DEPTH` levels below the root.  This is the only encoder in the program;
the tests keep an in-memory reference model (tests/carc_model.py).
"""

from __future__ import annotations

import errno
import hashlib
import os
import stat
import tempfile

from .errors import MicrofoldError, ParseError
from .hashing import ContentHash

MAGIC = b"carc1\n"
# Bytes read from a file, or handed to a sink, at a time.
_BLOCK = 1 << 20
# Longest decimal the grammar needs (2**64 has 20 digits).
_MAX_DIGITS = 20
# Most levels an entry may lie below the root: deeper, walk raises
# MicrofoldError and restore ParseError.  walk recurses a frame a level.
MAX_DEPTH = 600


def file_header(size: int, executable=False) -> bytes:
    """The node header of a regular file of size bytes."""
    return (b"x\n%d\n" if executable else b"f\n%d\n") % size


def file_archive(data: bytes) -> bytes:
    """The archive of one regular file that holds data."""
    return MAGIC + file_header(len(data)) + data


# Streaming from disk.

# Files are written (and read) through raw descriptors, never through a
# symlink swapped in for a file or in the place of a new one.
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW


def _mode(st_mode: int) -> int:
    """The mode bits of a tree entry as copy and restore create it."""
    return 0o755 if stat.S_ISDIR(st_mode) or st_mode & stat.S_IXUSR else 0o644


def _write(fd: int, data):
    while data:
        data = data[os.write(fd, data):]


def _mkdir(path: bytes):
    os.mkdir(path)
    os.chmod(path, 0o755)


class _Blocks:
    """A sink that joins small pieces into blocks of at most _BLOCK bytes
    (a larger piece goes alone) before passing them on, and counts the
    bytes it passes."""

    def __init__(self, write):
        self.write = write
        self.pending = []
        self.held = 0
        self.total = 0

    def __call__(self, piece: bytes):
        if self.held + len(piece) > _BLOCK:
            self.flush()
        self.pending.append(piece)
        self.held += len(piece)

    def flush(self):
        if self.pending:
            self.write(b"".join(self.pending))
            self.total += self.held
            self.pending.clear()
            self.held = 0


def walk(src: bytes, dest: bytes | None, emit, links=False, settle=False, depth=0):
    """Emit (to emit, a function given byte strings) the CARC node of the
    tree at src, which lies depth levels below the archive's root; when
    dest is given, also create a copy of it there (with links, of hard
    links to src's files where it can).  With settle, give each entry of
    src the mode bits of a copy.  A caller that emits a node of its own
    (see stream) builds it from this and directory."""
    st = os.lstat(src)
    mode = st.st_mode
    if settle and not stat.S_ISLNK(mode) and stat.S_IMODE(mode) != _mode(mode):
        os.chmod(src, _mode(mode))
    if stat.S_ISREG(mode):
        left = st.st_size
        emit(file_header(left, mode & stat.S_IXUSR))
        fd = os.open(src, os.O_RDONLY | os.O_NOFOLLOW)
        out = None
        try:
            if dest is not None and not (links and _linked(src, dest)):
                out = os.open(dest, _CREATE, _mode(mode))
                os.fchmod(out, _mode(mode))
            while left:
                block = os.read(fd, min(left, _BLOCK))
                if not block:
                    raise MicrofoldError(f"{os.fsdecode(src)}: shrank while read")
                emit(block)
                if out is not None:
                    _write(out, block)
                left -= len(block)
        finally:
            os.close(fd)
            if out is not None:
                os.close(out)
    elif stat.S_ISLNK(mode):
        target = os.readlink(src)
        emit(b"l\n%d\n" % len(target) + target)
        if dest is not None:
            os.symlink(target, dest)
    elif stat.S_ISDIR(mode):
        names = sorted(os.listdir(src))
        if names and depth == MAX_DEPTH:
            raise MicrofoldError(f"{os.fsdecode(src)}: more than {MAX_DEPTH} levels deep")
        for name, sub in directory(names, dest, emit):
            walk(src + b"/" + name, sub, emit, links, settle, depth + 1)
    else:
        raise MicrofoldError(f"{os.fsdecode(src)}: unsupported file type")


def directory(names, dest: bytes | None, emit):
    """Emit the node of a directory with the entries names (sorted), and
    create it at dest when given.  Yields each name with its path under
    dest (or None) once the name is emitted; the caller then emits the
    entry's node before asking for the next."""
    emit(b"d\n%d\n" % len(names))
    if dest is not None:
        _mkdir(dest)
    for name in names:
        emit(b"%d\n" % len(name) + name)
        yield name, None if dest is None else dest + b"/" + name


def stream(node, write) -> int:
    """Stream the archive whose root node node(emit) emits (see walk) into
    write (a hashlib object's update, a file's write, a list's append,
    ...) in blocks of at most _BLOCK bytes; returns the archive's length."""
    sink = _Blocks(write)
    sink(MAGIC)
    node(sink)
    sink.flush()
    return sink.total


def hashed(node) -> tuple[ContentHash, int]:
    """The hash and length of the archive streamed by stream(node, ...)."""
    sha = hashlib.sha256()
    size = stream(node, sha.update)
    return ContentHash(sha.hexdigest()), size


def dump(path: os.PathLike, write, settle: bool = False) -> int:
    """Stream the archive of the tree at path into write (see stream);
    with settle, give each entry the mode bits of a copy (see walk)."""
    return stream(lambda emit: walk(os.fsencode(path), None, emit, False, settle), write)


def copy(src: os.PathLike, dest=None) -> tuple[ContentHash, int]:
    """Copy the tree at src to dest (whose parent must exist), entry by
    entry with canonical mode bits, or only read it.  Returns the hash and
    length of the archive of the bytes read, which are the bytes of the copy."""
    return hashed(lambda emit: walk(os.fsencode(src), dest and os.fsencode(dest), emit))


def hash_path(path: os.PathLike) -> ContentHash:
    return copy(path)[0]


def _linked(src: bytes, dest: bytes) -> bool:
    """Hard-link dest to the file or symlink src; False on EXDEV, EMLINK, EPERM."""
    try:
        os.link(src, dest, follow_symlinks=False)
    except OSError as e:
        if e.errno not in (errno.EXDEV, errno.EMLINK, errno.EPERM):
            raise
        return False
    return True


def link(src: os.PathLike, dest: os.PathLike):
    """Make dest (its parent must exist) a tree like src's: new directories,
    hard links to its files and symlinks (copies where linking fails)."""
    src, dest = os.fsencode(src), os.fsencode(dest)
    if stat.S_ISDIR(os.lstat(src).st_mode):
        with os.scandir(src) as entries:
            entries = list(entries)  # before dest, which may lie in src, is made
        _mkdir(dest)
        for e in entries:
            sub = dest + b"/" + e.name
            if e.is_dir(follow_symlinks=False):
                link(e.path, sub)
            elif not _linked(e.path, sub):
                copy(e.path, sub)
    elif not _linked(src, dest):
        copy(src, dest)


def dump_to_tmp(path: os.PathLike, tmp_dir: os.PathLike,
                copy_to: os.PathLike | None = None
                ) -> tuple[str, ContentHash, int]:
    """Write the archive of the tree at path to a new hidden file in
    tmp_dir, hashing it on the way, and copy the tree to copy_to when
    given, in the same pass.  Returns the file's path, the hash and the
    length; the caller renames the file into place or removes it."""
    dest = None if copy_to is None else os.fsencode(copy_to)
    fd, tmp = tempfile.mkstemp(dir=tmp_dir, prefix=".", suffix=".tmp")
    sha = hashlib.sha256()
    try:
        os.fchmod(fd, 0o644)

        def write(block):
            _write(fd, block)
            sha.update(block)
        size = stream(lambda emit: walk(os.fsencode(path), dest, emit), write)
    except BaseException:
        os.unlink(tmp)
        raise
    finally:
        os.close(fd)
    return tmp, ContentHash(sha.hexdigest()), size


# Parsing, used on archives from caches and the source archive.

class _Source:
    """Archive bytes pulled on demand from an iterable of chunks.  Every
    chunk pulled is hashed, so once the archive has been read to its end
    the hash is that of the bytes consumed."""

    def __init__(self, chunks):
        self.chunks = iter(chunks)
        self.sha = hashlib.sha256()
        self.pulled = 0
        self.buf = b""
        self.pos = 0

    @property
    def position(self) -> int:
        return self.pulled - (len(self.buf) - self.pos)

    def _pull(self):
        for chunk in self.chunks:
            if chunk:
                break
        else:
            raise ParseError("truncated archive", position=self.position)
        self.sha.update(chunk)
        self.pulled += len(chunk)
        self.buf = self.buf[self.pos:] + chunk if self.pos < len(self.buf) else chunk
        self.pos = 0

    def take(self, n: int) -> bytes:
        while len(self.buf) - self.pos < n:
            self._pull()
        chunk = self.buf[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def number(self) -> int:
        while True:
            nl = self.buf.find(b"\n", self.pos, self.pos + _MAX_DIGITS + 1)
            if nl >= 0:
                break
            if len(self.buf) - self.pos > _MAX_DIGITS:
                raise ParseError("expected decimal", position=self.position)
            self._pull()
        raw = self.buf[self.pos:nl]
        if not raw.isdigit():
            raise ParseError(f"expected decimal, got {raw!r}", position=self.position)
        self.pos = nl + 1
        return int(raw)

    def copy(self, n: int, fd: int):
        """Write the next n bytes to the file descriptor fd."""
        while n:
            if self.pos == len(self.buf):
                self._pull()
            k = min(n, len(self.buf) - self.pos)
            _write(fd, memoryview(self.buf)[self.pos:self.pos + k])
            self.pos += k
            n -= k

    def finish(self) -> tuple[ContentHash, int]:
        """Check that nothing follows the archive; its hash and length."""
        if self.pos < len(self.buf) or any(self.chunks):
            raise ParseError("trailing garbage after archive", position=self.position)
        return ContentHash(self.sha.hexdigest()), self.pulled


def _open(s: _Source):
    if s.take(len(MAGIC)) != MAGIC:
        raise ParseError("bad archive magic")


def _names(s: _Source):
    """The names of a directory node's entries, yielded as they are read;
    each is checked, and so is their order."""
    prev = None
    for _ in range(s.number()):
        name = s.take(s.number())
        if not name or b"/" in name or b"\x00" in name or name in (b".", b".."):
            raise ParseError(f"bad entry name: {name!r}", position=s.position)
        if prev is not None and name <= prev:
            raise ParseError(f"entries out of order: {name!r}", position=s.position)
        prev = name
        yield name


def _target(s: _Source) -> bytes:
    """A symlink node's target; no symlink on disk has an empty one or one
    holding NUL."""
    target = s.take(s.number())
    if not target or b"\x00" in target:
        raise ParseError(f"bad symlink target: {target!r}", position=s.position)
    return target


def _restore_node(s: _Source, path: bytes):
    """Write the archive's root node at path, and the nodes below it."""
    stack = []  # (entry names left to read, path) of each open directory
    while True:
        tag = s.take(2)
        if tag in (b"f\n", b"x\n"):
            size = s.number()
            mode = 0o755 if tag == b"x\n" else 0o644
            fd = os.open(path, _CREATE, mode)
            try:
                os.fchmod(fd, mode)
                s.copy(size, fd)
            finally:
                os.close(fd)
        elif tag == b"l\n":
            os.symlink(_target(s), path)
        elif tag == b"d\n":
            _mkdir(path)
            stack.append((_names(s), path))
        else:
            raise ParseError(f"unknown node tag {tag!r}", position=s.position)
        # On to the next entry of the innermost directory that has one.
        while stack and (name := next(stack[-1][0], None)) is None:
            stack.pop()
        if not stack:
            return
        if len(stack) > MAX_DEPTH:
            raise ParseError(f"more than {MAX_DEPTH} levels deep", position=s.position)
        path = stack[-1][1] + b"/" + name


def restore(chunks, dest: os.PathLike) -> tuple[ContentHash, int]:
    """Unpack an archive, given as an iterable of byte chunks (`[data]`
    for bytes in memory), to the filesystem at dest, which must not exist.

    The grammar and MAX_DEPTH are checked as the tree is written, and the
    input is hashed in the same pass: returns the archive's hash and
    length.  On malformed input it raises ParseError and leaves a partial tree at dest for the
    caller to remove.
    """
    s = _Source(chunks)
    _open(s)
    _restore_node(s, os.fsencode(dest))
    return s.finish()
