"""Channels: content-addressed chains of package-definition revisions.

A revision id is the SHA-256 of its canonical serialization (parent id,
message, and the sorted name@version -> definition-hash tree), so a single
64-hex id pins every package definition and, through it, the entire
dependency graph.  Pin files record such ids for exact replay: a package
set is always `pinned_packages` of a pin file, and `pin()` is HEAD's.

Package objects, revisions and pin files are forms written by
`sexpr.unparse` and read by `sexpr.parse_one` and `sexpr.read_fields`
(each field once, none missing or unknown, each of its type).  A package
object, revision, HEAD or URL that does not parse raises CorruptRevision.

Repository layout: <repo>/revisions/<id>, <repo>/objects/<hash>,
<repo>/HEAD (64-hex), <repo>/URL (advisory origin).  Every file is
written through a tmp file and a rename, HEAD last, so a commit or pull that
dies part way leaves HEAD at the old revision.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import NamedTuple

from . import sexpr, transport
from .derivation import SourceRef, _parse_step
from .errors import (CorruptRevision, InvalidHash, InvariantViolation, MicrofoldError,
                     ParseError, UnreachableRemote)
from .hashing import HEX64, ContentHash
from .sexpr import Sym
from .store import decode_state, locked, read_state, write_atomic, write_named


class PackageDef:
    def __init__(self, name: str, version: str, synopsis: str = "",
                 source=None, deps: list | None = None, steps: list | None = None):
        self.name, self.version, self.synopsis = name, version, synopsis
        self.source = source  # SourceRef | bytes | None
        self.deps = [] if deps is None else deps  # "name" or "name@version"
        self.steps = [] if steps is None else steps

    @property
    def key(self) -> str:
        return f"{self.name}@{self.version}"


def serialize_package(pkg: PackageDef) -> bytes:
    if isinstance(pkg.source, SourceRef):
        src = [Sym("fetch"), pkg.source.url, Sym(pkg.source.expected_hash.hex),
               pkg.source.label]
    elif isinstance(pkg.source, bytes):
        src = [Sym("inline"), pkg.source]
    elif pkg.source is None:
        src = Sym("nil")
    else:
        raise ParseError(f"bad package source: {pkg.source!r}")
    return sexpr.encode([
        Sym("package"),
        [Sym("name"), pkg.name],
        [Sym("version"), pkg.version],
        [Sym("synopsis"), pkg.synopsis],
        [Sym("source"), src],
        [Sym("deps"), *pkg.deps],
        [Sym("steps"), *([Sym(s.op), *s.args] for s in pkg.steps)],
    ])


@contextmanager
def _channel_object(what: str):
    """Raise CorruptRevision for channel data that does not parse: its bytes
    hash to their name, so they were served malformed."""
    try:
        yield
    except (ParseError, InvalidHash, InvariantViolation) as e:
        raise CorruptRevision(f"malformed {what}: {e}") from None


_PACKAGE_FIELDS = {"name": str, "version": str, "synopsis": str,
                   "source": (Sym, list), "deps": [str], "steps": [list]}


def parse_package(data: bytes) -> PackageDef:
    with _channel_object("package object"):
        fields = sexpr.read_fields(sexpr.parse_one(data), "package", _PACKAGE_FIELDS)
        src = fields["source"]
        if src == Sym("nil"):
            source = None
        elif src[:1] == [Sym("inline")]:
            source = sexpr.read_items(src, Sym("inline"), str)[1].encode(
                "utf-8", "surrogateescape")
        else:
            _, url, digest, label = sexpr.read_items(src, Sym("fetch"), str, Sym, str)
            source = SourceRef(url, ContentHash(digest.name), label)
        return PackageDef(name=fields["name"], version=fields["version"],
                          synopsis=fields["synopsis"], source=source, deps=fields["deps"],
                          steps=[_parse_step(s) for s in fields["steps"]])


class ChannelRevision(NamedTuple):
    id: ContentHash
    parent: ContentHash | None
    tree: dict  # name@version -> ContentHash of package bytes
    message: str


def serialize_revision(parent, tree: dict, message: str) -> bytes:
    return sexpr.encode([
        Sym("revision"),
        [Sym("parent"), Sym(parent.hex if parent else "nil")],
        [Sym("message"), message],
        [Sym("tree"), *([key, Sym(tree[key].hex)] for key in sorted(tree))],
    ])


_REVISION_FIELDS = {"parent": Sym, "message": str, "tree": [list]}


def parse_revision(data: bytes, rev_id: ContentHash) -> ChannelRevision:
    """The revision in data, whose bytes have been checked to hash to rev_id."""
    with _channel_object("revision"):
        fields = sexpr.read_fields(sexpr.parse_one(data), "revision", _REVISION_FIELDS)
        parent = fields["parent"]
        tree = {key: ContentHash(digest.name)
                for key, digest in sexpr.read_map(fields["tree"], str, Sym).items()}
        return ChannelRevision(
            id=rev_id,
            parent=None if parent == Sym("nil") else ContentHash(parent.name),
            tree=tree, message=fields["message"])


class ChannelPin(NamedTuple):
    name: str
    url: str
    commit: str  # 64-hex revision id


def render_pin(pins) -> str:
    return sexpr.unparse([Sym("channels"), *(
        [Sym("channel"), [Sym("name"), p.name], [Sym("url"), p.url],
         [Sym("commit"), p.commit]] for p in pins)]) + "\n"


_PIN_FIELDS = {"name": str, "url": str, "commit": str}


def parse_pin(text: str) -> list:  # of ChannelPin
    form = sexpr.parse_one(text)
    if not isinstance(form, list) or form[:1] != [Sym("channels")]:
        raise ParseError("expected a (channels ...) form")
    pins = []
    for channel in form[1:]:
        fields = sexpr.read_fields(channel, "channel", _PIN_FIELDS)
        commit = fields["commit"]
        if not HEX64.fullmatch(commit):
            raise ParseError(f"commit must be 64 hex chars, got {commit!r}")
        pins.append(ChannelPin(fields["name"], fields["url"], commit))
    if not pins:
        raise ParseError("pin file declares no channels")
    return pins


def _read_named(location, kind: str, name: ContentHash) -> bytes | None:
    """The bytes of a channel's revision or object (kind) at location, a
    repo root or a remote; None when it has none.  Bytes that do not hash
    to their name raise CorruptRevision."""
    data = transport.read_bytes(location, f"{kind}s/{name.hex}")
    if data is not None and ContentHash.of_bytes(data) != name:
        raise CorruptRevision(f"{kind} {name} bytes do not match its hash")
    return data


def _intact(location, kind: str, name: ContentHash) -> bytes | None:
    """The bytes of the named revision or object (kind) at location; None
    when location lacks it or holds it damaged."""
    try:
        return _read_named(location, kind, name)
    except CorruptRevision:
        return None


class ChannelRepo:
    def __init__(self, root):
        self.root = Path(root)
        if not (self.root / "objects").is_dir():  # made last
            for sub in ("revisions", "objects"):
                (self.root / sub).mkdir(parents=True, exist_ok=True)

    @property
    def url(self) -> str:
        recorded = read_state(self.root / "URL", CorruptRevision, str.strip)
        return recorded or "file://" + str(self.root)

    # -- local access ------------------------------------------------------

    def head(self) -> ContentHash:
        rev_id = read_state(self.root / "HEAD", CorruptRevision, lambda t: ContentHash(t.strip()))
        if rev_id is None:
            raise MicrofoldError(f"no HEAD in {self.root}")
        return rev_id

    def has_revision(self, rev_id: ContentHash) -> bool:
        return (self.root / "revisions" / rev_id.hex).exists()

    def get_revision(self, rev_id: ContentHash) -> ChannelRevision:
        if (data := _read_named(self.root, "revision", rev_id)) is None:
            raise MicrofoldError(f"unknown revision {rev_id.hex}")
        return parse_revision(data, rev_id)

    def get_object(self, obj_hash: ContentHash) -> bytes:
        if (data := _read_named(self.root, "object", obj_hash)) is None:
            raise CorruptRevision(f"missing object {obj_hash}")
        return data

    def ancestry(self, rev_id: ContentHash) -> list:
        """Revision ids from rev_id back to the root, newest first."""
        chain, seen = [], set()
        cur = rev_id
        while cur is not None:
            if cur.hex in seen:
                raise CorruptRevision("parent chain is cyclic")
            seen.add(cur.hex)
            chain.append(cur)
            cur = self.get_revision(cur).parent
        return chain

    # -- commits -----------------------------------------------------------

    def commit_revision(self, packages, parent: ContentHash | None = None,
                        message: str = "") -> ChannelRevision:
        """Append a revision holding the given package definitions."""
        with locked(self.root / "repo.lock"):
            if parent is not None and not self.has_revision(parent):
                raise MicrofoldError(f"unknown parent revision {parent.hex}")
            tree = {}
            blobs = {}
            for pkg in packages:
                if pkg.key in tree:
                    raise MicrofoldError(f"duplicate package {pkg.key}")
                data = serialize_package(pkg)
                obj_hash = ContentHash.of_bytes(data)
                tree[pkg.key] = obj_hash
                blobs[obj_hash.hex] = data
            data = serialize_revision(parent, tree, message)
            rev_id = ContentHash.of_bytes(data)
            for hex_digest, blob in blobs.items():
                write_named(self.root / "objects" / hex_digest, blob)
            write_named(self.root / "revisions" / rev_id.hex, data)
            write_atomic(self.root / "HEAD", f"{rev_id.hex}\n".encode())
            return ChannelRevision(id=rev_id, parent=parent, tree=tree,
                                   message=message)

    # -- checkout ----------------------------------------------------------

    def checkout(self, rev_id: ContentHash) -> dict:
        """Materialize the package set at a revision: key -> PackageDef."""
        rev = self.get_revision(rev_id)
        out = {}
        for key, obj_hash in rev.tree.items():
            pkg = parse_package(self.get_object(obj_hash))
            if pkg.key != key:
                raise CorruptRevision(f"object for {key} declares {pkg.key}")
            out[key] = pkg
        return out

    # -- fetch and pull ----------------------------------------------------

    def fetch(self, remote) -> ContentHash:
        """Copy the verified revisions and objects reachable from the remote
        head; returns that head.  HEAD and URL are left alone; idempotent.
        Revisions are written oldest first, each after its objects.  The
        walk reads every revision to the root once, the local file when it
        hashes to its name; a revision missing or damaged here is fetched,
        and so is any object of the chain's revisions, each checked once."""
        head_bytes = transport.read_bytes(remote, "HEAD")
        if head_bytes is None:
            raise UnreachableRemote(f"unreachable remote {remote}: it serves no HEAD")
        remote_head = decode_state(head_bytes, f"{remote}/HEAD", CorruptRevision,
                                   lambda t: ContentHash(t.strip()))
        with locked(self.root / "repo.lock"):
            chain, cur = [], remote_head  # newest first
            while cur is not None:
                local = _intact(self.root, "revision", cur)
                if (data := local or _read_named(remote, "revision", cur)) is None:
                    raise UnreachableRemote(f"{remote}: missing revision {cur}")
                rev = parse_revision(data, cur)
                chain.append((rev, None if local else data))  # bytes to write
                cur = rev.parent
            checked = set()
            for rev, data in reversed(chain):
                objects = [h for h in rev.tree.values() if h not in checked]
                checked.update(objects)
                for obj_hash in objects:
                    if _intact(self.root, "object", obj_hash) is not None:
                        continue
                    if (blob := _read_named(remote, "object", obj_hash)) is None:
                        raise UnreachableRemote(
                            f"{remote}: missing object {obj_hash}")
                    write_named(self.root / "objects" / obj_hash.hex, blob)
                if data is not None:
                    write_named(self.root / "revisions" / rev.id.hex, data)
        return remote_head

    def pull(self, remote) -> ContentHash:
        """fetch, then point URL at the remote (a directory by its absolute
        path) and HEAD, written last, at the remote head."""
        remote_head = self.fetch(remote)
        if not transport.is_url(str(remote)):
            remote = "file://" + str(Path(str(remote).removeprefix("file://")).resolve())
        with locked(self.root / "repo.lock"):
            write_atomic(self.root / "URL", f"{remote}\n".encode())
            write_atomic(self.root / "HEAD", f"{remote_head.hex}\n".encode())
        return remote_head

    # -- pins and replay ---------------------------------------------------

    def pin(self) -> ChannelPin:
        """The pin of HEAD, the package set of a command run without a pin file."""
        return ChannelPin("microfold", self.url, self.head().hex)

    def ensure_revision(self, pin: ChannelPin):
        rev_id = ContentHash(pin.commit)
        if self.has_revision(rev_id):
            return
        try:
            self.fetch(pin.url)
        except (UnreachableRemote, OSError):
            pass
        if not self.has_revision(rev_id):
            raise MicrofoldError(f"unknown revision {pin.commit}")

    def pinned_packages(self, pins) -> dict:
        """Exactly the package sets of pins (ChannelPins), merged; HEAD is
        never read.  A pinned revision damaged here is fetched from the pin's URL."""
        merged = {}
        for pin in pins:
            self.ensure_revision(pin)
            try:
                packages = self.checkout(ContentHash(pin.commit))
            except CorruptRevision:
                with suppress(UnreachableRemote, OSError):
                    self.fetch(pin.url)
                packages = self.checkout(ContentHash(pin.commit))
            for key, pkg in packages.items():
                if key in merged:
                    raise MicrofoldError(
                        f"duplicate package {key}: defined by more than one pinned channel")
                merged[key] = pkg
        return merged

    def describe_human(self, pins) -> str:
        """Transcript-style description of each pin, its generation the
        length of its commit's ancestry.  The date is display only and never
        feeds any hash."""
        now = time.strftime("%d %b %Y %H:%M:%S")
        return "".join(
            f"Generation {len(self.ancestry(ContentHash(pin.commit)))}  {now}  (current)\n"
            f"  {pin.name} {pin.commit[:7]}\n"
            f"    repository URL: {pin.url}\n"
            f"    commit: {pin.commit}\n" for pin in pins)
