"""Channels: content-addressed chains of package-definition revisions.

A revision id is the SHA-256 of its canonical serialization (parent id,
message, and the sorted name@version -> definition-hash tree), so a single
64-hex id pins every package definition and, through it, the entire
dependency graph.  Pin files record such ids for exact replay.

Repository layout: <repo>/revisions/<id>, <repo>/objects/<hash>,
<repo>/HEAD (64-hex), <repo>/URL (advisory origin).  Every file is
written through a tmp file and a rename, HEAD last, so a commit or pull that
dies part way leaves HEAD at the old revision.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import NamedTuple

from . import sexpr, transport
from .derivation import Step, _parse_step, _qs, _step_bytes
from .errors import (BadCommit, CorruptRevision, DuplicatePackage, NoHead,
                     ParseError, UnknownParent, UnknownRevision,
                     UnreachableRemote)
from .hashing import ContentHash
from .derivation import SourceRef
from .store import locked, write_atomic


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
        src = (b"(fetch " + _qs(pkg.source.url) + b" "
               + pkg.source.expected_hash.hex.encode() + b" "
               + _qs(pkg.source.label) + b")")
    elif isinstance(pkg.source, bytes):
        src = b"(inline " + _qs(pkg.source.decode("utf-8", "surrogateescape")) + b")"
    elif pkg.source is None:
        src = b"nil"
    else:
        raise ParseError(f"bad package source: {pkg.source!r}")
    deps = [_qs(d) for d in pkg.deps]
    steps = [_step_bytes(s) for s in pkg.steps]
    parts = [
        b"(package",
        b"(name " + _qs(pkg.name) + b")",
        b"(version " + _qs(pkg.version) + b")",
        b"(synopsis " + _qs(pkg.synopsis) + b")",
        b"(source " + src + b")",
        b"(deps" + (b" " if deps else b"") + b" ".join(deps) + b")",
        b"(steps" + (b" " if steps else b"") + b" ".join(steps) + b")",
    ]
    return b" ".join(parts) + b")"


def parse_package(data: bytes) -> PackageDef:
    form = sexpr.parse_one(data.decode("utf-8", "surrogateescape"))
    if not isinstance(form, list) or not form or form[0] != sexpr.Sym("package"):
        raise ParseError("not a package form")
    fields = {}
    for entry in form[1:]:
        if not isinstance(entry, list) or not isinstance(entry[0], sexpr.Sym):
            raise ParseError(f"bad package field: {entry!r}")
        fields[entry[0].name] = entry[1:]
    src_form = fields["source"][0]
    if src_form == sexpr.Sym("nil"):
        source = None
    elif isinstance(src_form, list) and src_form[0] == sexpr.Sym("inline"):
        source = src_form[1].encode("utf-8", "surrogateescape")
    elif isinstance(src_form, list) and src_form[0] == sexpr.Sym("fetch"):
        source = SourceRef(url=src_form[1],
                           expected_hash=ContentHash(str(src_form[2])),
                           label=src_form[3])
    else:
        raise ParseError(f"bad source form: {src_form!r}")
    return PackageDef(
        name=fields["name"][0],
        version=fields["version"][0],
        synopsis=fields["synopsis"][0],
        source=source,
        deps=list(fields["deps"]),
        steps=[_parse_step(s) for s in fields["steps"]],
    )


class ChannelRevision(NamedTuple):
    id: ContentHash
    parent: ContentHash | None
    tree: dict  # name@version -> ContentHash of package bytes
    message: str


def serialize_revision(parent, tree: dict, message: str) -> bytes:
    parts = [
        b"(revision",
        b"(parent " + (parent.hex.encode() if parent else b"nil") + b")",
        b"(message " + _qs(message) + b")",
    ]
    entries = [b"(" + _qs(k) + b" " + tree[k].hex.encode() + b")"
               for k in sorted(tree)]
    parts.append(b"(tree" + (b" " if entries else b"") + b" ".join(entries) + b")")
    return b" ".join(parts) + b")"


def parse_revision(data: bytes) -> ChannelRevision:
    form = sexpr.parse_one(data.decode())
    if not isinstance(form, list) or not form or form[0] != sexpr.Sym("revision"):
        raise CorruptRevision("not a revision form")
    fields = {e[0].name: e[1:] for e in form[1:]}
    parent_form = fields["parent"][0]
    parent = None if parent_form == sexpr.Sym("nil") else ContentHash(str(parent_form))
    tree = {}
    for entry in fields["tree"]:
        tree[entry[0]] = ContentHash(str(entry[1]))
    return ChannelRevision(id=ContentHash.of_bytes(data), parent=parent,
                           tree=tree, message=fields["message"][0])


class ChannelPin(NamedTuple):
    name: str
    url: str
    commit: str  # 64-hex revision id


class PinFile(NamedTuple):
    pins: list  # of ChannelPin


def render_pin(pins) -> str:
    inner = " ".join(
        f'(channel (name {sexpr.quote_string(p.name)}) '
        f'(url {sexpr.quote_string(p.url)}) '
        f'(commit {sexpr.quote_string(p.commit)}))'
        for p in pins)
    return f"(channels {inner})\n"


def parse_pin(text: str) -> PinFile:
    form = sexpr.parse_one(text)
    if not isinstance(form, list) or not form or form[0] != sexpr.Sym("channels"):
        raise ParseError("expected a (channels ...) form")
    pins = []
    for ch in form[1:]:
        if not isinstance(ch, list) or not ch or ch[0] != sexpr.Sym("channel"):
            raise ParseError(f"expected a (channel ...) form, got {ch!r}")
        fields = {}
        for entry in ch[1:]:
            if (not isinstance(entry, list) or len(entry) != 2
                    or not isinstance(entry[0], sexpr.Sym)
                    or not isinstance(entry[1], str)):
                raise ParseError(f"bad channel field: {entry!r}")
            key = entry[0].name
            if key not in ("name", "url", "commit"):
                raise ParseError(f"unknown channel key {key!r}")
            if key in fields:
                raise ParseError(f"duplicate channel key {key!r}")
            fields[key] = entry[1]
        for req in ("name", "url", "commit"):
            if req not in fields:
                raise ParseError(f"channel missing key {req!r}")
        commit = fields["commit"]
        if len(commit) != 64 or not all(c in "0123456789abcdef" for c in commit):
            raise BadCommit(f"commit must be 64 hex chars, got {commit!r}")
        pins.append(ChannelPin(fields["name"], fields["url"], commit))
    if not pins:
        raise ParseError("pin file declares no channels")
    return PinFile(pins)


class ChannelRepo:
    def __init__(self, root, url: str | None = None):
        self.root = Path(root)
        (self.root / "revisions").mkdir(parents=True, exist_ok=True)
        (self.root / "objects").mkdir(parents=True, exist_ok=True)
        if url is not None:
            write_atomic(self.root / "URL", f"{url}\n".encode())

    @property
    def url(self) -> str:
        url_file = self.root / "URL"
        if url_file.exists():
            return url_file.read_text().strip()
        return "file://" + str(self.root)

    # -- local access ------------------------------------------------------

    def head(self) -> ContentHash:
        head_file = self.root / "HEAD"
        if not head_file.exists():
            raise NoHead(f"no HEAD in {self.root}")
        return ContentHash(head_file.read_text().strip())

    def has_revision(self, rev_id: ContentHash) -> bool:
        return (self.root / "revisions" / rev_id.hex).exists()

    def get_revision(self, rev_id: ContentHash) -> ChannelRevision:
        path = self.root / "revisions" / rev_id.hex
        if not path.exists():
            raise UnknownRevision(rev_id.hex)
        data = path.read_bytes()
        if ContentHash.of_bytes(data) != rev_id:
            raise CorruptRevision(f"revision {rev_id} bytes do not match id")
        return parse_revision(data)

    def get_object(self, obj_hash: ContentHash) -> bytes:
        path = self.root / "objects" / obj_hash.hex
        if not path.exists():
            raise CorruptRevision(f"missing object {obj_hash}")
        data = path.read_bytes()
        if ContentHash.of_bytes(data) != obj_hash:
            raise CorruptRevision(f"object {obj_hash} bytes do not match hash")
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
                raise UnknownParent(parent.hex)
            tree = {}
            blobs = {}
            for pkg in packages:
                if pkg.key in tree:
                    raise DuplicatePackage(pkg.key)
                data = serialize_package(pkg)
                obj_hash = ContentHash.of_bytes(data)
                tree[pkg.key] = obj_hash
                blobs[obj_hash.hex] = data
            data = serialize_revision(parent, tree, message)
            rev_id = ContentHash.of_bytes(data)
            for hex_digest, blob in blobs.items():
                obj_path = self.root / "objects" / hex_digest
                if not obj_path.exists():
                    write_atomic(obj_path, blob)
            rev_path = self.root / "revisions" / rev_id.hex
            if not rev_path.exists():
                write_atomic(rev_path, data)
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
        head; returns that head.  HEAD and URL are left alone; idempotent."""
        head_bytes = transport.read_bytes(remote, "HEAD")
        if head_bytes is None:
            raise UnreachableRemote(str(remote))
        remote_head = ContentHash(head_bytes.decode().strip())
        with locked(self.root / "repo.lock"):
            cur = remote_head
            while cur is not None and not self.has_revision(cur):
                data = transport.read_bytes(remote, f"revisions/{cur.hex}")
                if data is None:
                    raise UnreachableRemote(f"{remote}: missing revision {cur}")
                if ContentHash.of_bytes(data) != cur:
                    raise CorruptRevision(
                        f"remote revision {cur} bytes do not match id")
                rev = parse_revision(data)
                for key, obj_hash in rev.tree.items():
                    obj_path = self.root / "objects" / obj_hash.hex
                    if obj_path.exists():
                        continue
                    blob = transport.read_bytes(remote, f"objects/{obj_hash.hex}")
                    if blob is None:
                        raise UnreachableRemote(
                            f"{remote}: missing object {obj_hash}")
                    if ContentHash.of_bytes(blob) != obj_hash:
                        raise CorruptRevision(
                            f"remote object {obj_hash} bytes do not match hash")
                    write_atomic(obj_path, blob)
                write_atomic(self.root / "revisions" / cur.hex, data)
                cur = rev.parent
        return remote_head

    def pull(self, remote) -> ContentHash:
        """fetch, then point URL at the remote and HEAD, written last, at
        the remote head."""
        remote_head = self.fetch(remote)
        if not transport.is_url(str(remote)):
            remote = "file://" + str(Path(remote))
        with locked(self.root / "repo.lock"):
            write_atomic(self.root / "URL", f"{remote}\n".encode())
            write_atomic(self.root / "HEAD", f"{remote_head.hex}\n".encode())
        return remote_head

    # -- pins and replay ---------------------------------------------------

    def describe_pin(self, name: str = "microfold") -> str:
        return render_pin([ChannelPin(name, self.url, self.head().hex)])

    def ensure_revision(self, pin: ChannelPin):
        rev_id = ContentHash(pin.commit)
        if self.has_revision(rev_id):
            return
        url = pin.url
        if url.startswith("file://"):
            url = url[len("file://"):]
        try:
            self.fetch(url)
        except (UnreachableRemote, OSError):
            pass
        if not self.has_revision(rev_id):
            raise UnknownRevision(pin.commit)

    def time_machine(self, pin_file: PinFile, action):
        """Run action against exactly the pinned package sets, never HEAD."""
        merged = {}
        for pin in pin_file.pins:
            self.ensure_revision(pin)
            pkgs = self.checkout(ContentHash(pin.commit))
            for key, pkg in pkgs.items():
                if key in merged:
                    raise DuplicatePackage(
                        f"{key} defined by more than one pinned channel")
                merged[key] = pkg
        return action(merged)

    def describe_human(self) -> str:
        """Transcript-style description.  The date line is display only and
        never feeds any hash."""
        head = self.head()
        generation = len(self.ancestry(head))
        now = time.strftime("%d %b %Y %H:%M:%S")
        return (f"Generation {generation}  {now}  (current)\n"
                f"  microfold {head.hex[:7]}\n"
                f"    repository URL: {self.url}\n"
                f"    commit: {head.hex}\n")
