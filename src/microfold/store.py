"""Content-addressed store: immutable items plus their provenance records.

Layout under the store root (a plain user-writable directory):

    items/<digest_prefix>-<label>/...   the item's file tree (or single file)
    db/items/<component>                one record per item, "key: value" lines
    db/seeds/<component>                one empty entry per seed item
    db/drvs/<64-hex>                    canonical derivation bytes by hash
    locks/<digest_prefix>.lock          per-digest advisory write locks
    tmp/                                scratch: build directories, staged trees

Every item enters the store through one door, `register_output`: its tree
is staged under `tmp/` (restored from an archive, copied, or built there)
and hashed from the same bytes that produced it; then, under the item's
lock, the tree is renamed into `items/` and its record written.
`add_fixed` only copies the tree at a path into `tmp/` and passes it on;
nothing takes content held in memory.  The record is the commit point, and
it is refused while an item it references, itself apart, has no record.  So
the closure invariant holds: every item a record references has a record
too, and `closure` lists items each after what it references, an order in
which a store admits them.  An item directory with no record, left by an
insert that crashed before its record landed, is re-hashed by the next
insert: adopted if it matches, removed otherwise.

A profile union is the one `fixed` item named by its members, not by its
content (profile.build_profile); `bootstrap.audit_trust` still reads a fixed
item with references as a union.

`seeds()` reads only the records that `db/seeds` names.  A seed's entry is
made before its record, so every committed seed record is listed; an entry
with no seed record behind it is skipped.

Records are written once and never edited: each is written to a dot-named
tmp file and renamed into place, so a reader sees all of a record or none
of it.  This module also owns the helpers other layers share: the `flock`
lock, that tmp-and-rename write, `write_named`, the one writer of files named
by the hash of their bytes (it rewrites a damaged one), the "key: value"
codec, and `read_state`, the one reader of small state files (a damaged one
is a verification error).

Because records never change, a `Store` memoizes the records it reads for
its life (`derivation.load_derivation` and the instantiator keep parsed
derivations here too).  Only hits are kept, so an item registered later by
anyone is still found.  The write path (`register_output`) does not trust
the memo: under the item's lock it re-reads the record from disk, through
the same reader, so a record whose hash was changed behind the store's back
is still caught, as an OutputCollision.
"""

from __future__ import annotations

import fcntl
import os
import re
import shutil
import tempfile
import threading
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from . import carc
from .errors import (DanglingReference, DependencyCycle, InvalidHash, InvalidLabel,
                     MicrofoldError, OutputCollision, StoreCorruption)
from .hashing import HEX64, PREFIX_LEN, ContentHash

# A name is checked whole (fullmatch): "$" would let a trailing newline in.
LABEL_RE = re.compile(r"[A-Za-z0-9._+-]+")
COMPONENT_RE = re.compile(r"[0-9a-f]{32}-" + LABEL_RE.pattern)


@contextmanager
def locked(lock_path):
    """Hold an exclusive advisory lock on lock_path (created if absent)."""
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def write_atomic(path, data: bytes):
    """Write data to path through a tmp file renamed over it, so readers
    see the old file or the new one, never a part.  The tmp name is unique
    to the writing thread."""
    head, name = os.path.split(path)
    tmp = Path(head, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_named(path, data: bytes):
    """write_atomic of data to path, a file named by the hash of data,
    unless the file already holds data: a damaged file is rewritten, an
    intact one costs one read and no write."""
    try:
        with open(path, "rb") as f:
            if f.read(len(data) + 1) == data:
                return
    except FileNotFoundError:
        pass
    write_atomic(path, data)


def read_state(path, error, parse=str):
    """decode_state of the small state file at path; None when there is none."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        return None
    return decode_state(data, path, error, parse)


def decode_state(data: bytes, name, error, parse=str):
    """parse(text) of data, the bytes of the state file name.  Bytes that are
    not strict UTF-8, or text that parse rejects, raise error naming the file."""
    try:
        return parse(data.decode())
    except (ValueError, MicrofoldError) as e:
        raise error(f"{name}: {e}") from None


def render_fields(fields: dict) -> str:
    """"key: value" lines, keys sorted: store records and cache info files."""
    return "".join(f"{k}: {v}\n" for k, v in sorted(fields.items()))


def parse_fields(text: str) -> dict:
    return dict(line.partition(": ")[::2] for line in text.splitlines())


class StorePath:
    """A store item's location.  Identity is the final path component."""

    def __init__(self, store_root: Path, digest_prefix: str, label: str):
        self.store_root, self.digest_prefix, self.label = (
            store_root, digest_prefix, label)
        self.component = f"{digest_prefix}-{label}"

    @cached_property
    def path(self) -> Path:
        return Path(f"{self.store_root}/items/{self.component}")

    @classmethod
    def from_component(cls, store_root, component: str) -> "StorePath":
        if not COMPONENT_RE.fullmatch(component):
            raise InvalidLabel(f"invalid store path component: {component!r}")
        return cls(store_root, component[:PREFIX_LEN], component[PREFIX_LEN + 1:])

    def __eq__(self, other):
        return isinstance(other, StorePath) and self.component == other.component

    def __hash__(self):
        return hash(self.component)

    def __str__(self):
        return str(self.path)


class StoreItemRecord:
    def __init__(self, path: StorePath, output_hash: ContentHash,
                 references: list, kind: str, deriver: ContentHash | None = None,
                 size: int = 0, description: str = ""):
        self.path, self.output_hash = path, output_hash
        self.references = references  # sorted StorePath list
        self.kind = kind  # fixed | derived | seed
        self.deriver = deriver
        self.size = size  # CARC byte length
        self.description = description  # seeds only

    def __eq__(self, other):
        return type(other) is StoreItemRecord and vars(self) == vars(other)

    def fields(self) -> dict:
        """The record as "key: value" fields (render_fields): the store's
        record file, and without kind and description a cache's info file."""
        out = {"kind": self.kind, "outputhash": self.output_hash.hex,
               "references": " ".join(p.component for p in self.references),
               "size": str(self.size)}
        if self.deriver is not None:
            out["deriver"] = self.deriver.hex
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_fields(cls, path: StorePath, fields: dict) -> "StoreItemRecord":
        """The record of path that fields (parse_fields) describe; its references
        are paths in path's store.  A missing or ill-typed field is StoreCorruption."""
        try:
            refs = [StorePath.from_component(path.store_root, c)
                    for c in fields.get("references", "").split()]
            deriver = ContentHash(fields["deriver"]) if "deriver" in fields else None
            return cls(path, ContentHash(fields["outputhash"]), refs, fields["kind"],
                       deriver, int(fields.get("size", "0")), fields.get("description", ""))
        except (KeyError, ValueError, InvalidHash, InvalidLabel) as e:
            raise StoreCorruption(f"missing or ill-typed record field: {e}") from None


class VerifyReport(NamedTuple):
    status: str  # ok | mismatch | missing
    expected: ContentHash | None = None
    actual: ContentHash | None = None

    @property
    def ok(self):
        return self.status == "ok"


class Staged(NamedTuple):
    """A tree staged under <store>/tmp (see Store.scratch), with the hash
    and CARC length of the bytes that produced it."""

    path: Path
    output_hash: ContentHash
    size: int


def _remove(path: Path):
    if path.is_dir() and not path.is_symlink():
        shutil.rmtree(path)
    else:
        path.unlink()


def postorder(roots, children):
    """Yield each node that roots reach once, after the nodes that
    children(node) lists, in that order: a depth-first walk that keeps its
    own stack, so a graph of any depth.  children is called once per node,
    when the walk enters it.  A node met again while its walk is still open
    raises DependencyCycle, naming the open path from it back to itself."""
    done, path, stack = set(), {}, [iter(roots)]  # path: open nodes, in order
    while stack:
        for node in stack[-1]:
            if node in path:
                chain = list(path)
                raise DependencyCycle(chain[chain.index(node):] + [node])
            if node not in done:
                path[node] = None
                stack.append(iter(children(node)))
                break
        else:  # stack[-1] is spent, so the node that opened it is done
            stack.pop()
            if path:
                node = path.popitem()[0]
                done.add(node)
                yield node


class Store:
    def __init__(self, root, base: "Store | None" = None):
        """A store at root.  A store with a base (a scratch store for
        rebuilds) also sees the base's seed and fixed items and derivations
        in place, never its derived items, and never writes to it."""
        self.root = Path(root)
        self.base = base
        self._seed_dir = self.root / "db" / "seeds"
        if not (self.root / "tmp").is_dir():  # made last: a store with tmp is whole
            for sub in ("items", "db/items", "db/seeds", "db/drvs", "locks", "tmp"):
                (self.root / sub).mkdir(parents=True, exist_ok=True)
        # Memos over write-once data (see the module docstring).
        self._records = {}  # component -> StoreItemRecord
        # drv hash hex -> Derivation, for load_derivation; shared with the
        # base, as derivation files are write-once and checked on first load.
        self.derivations = {} if base is None else base.derivations

    # -- locking ----------------------------------------------------------

    def lock(self, digest_prefix: str):
        return locked(f"{self.root}/locks/{digest_prefix}.lock")

    @contextmanager
    def scratch(self):
        """A fresh directory under <store>/tmp, removed with everything in
        it on exit.  It shares the store's filesystem, so a tree staged
        here enters the store by rename."""
        path = Path(tempfile.mkdtemp(dir=f"{self.root}/tmp"))
        try:
            yield path
        finally:
            shutil.rmtree(path, ignore_errors=True)

    # -- records ----------------------------------------------------------

    def _record_path(self, component: str) -> str:
        return f"{self.root}/db/items/{component}"

    def _write_record(self, rec: StoreItemRecord):
        if rec.kind == "seed":  # its index entry first (module docstring)
            (self._seed_dir / rec.path.component).touch()
        write_atomic(self._record_path(rec.path.component),
                     render_fields(rec.fields()).encode())
        self._records[rec.path.component] = rec

    def _read_record(self, component: str) -> StoreItemRecord | None:
        """Parse the record file of component; None when there is none."""
        return read_state(self._record_path(component), StoreCorruption,
                          lambda text: StoreItemRecord.from_fields(
                              StorePath.from_component(self.root, component),
                              parse_fields(text)))

    def get_record(self, path) -> StoreItemRecord | None:
        component = path.component if isinstance(path, StorePath) else path
        rec = self._records.get(component)
        if rec is None:
            rec = self._read_record(component)
            if rec is None and self.base is not None:
                rec = self.base.get_record(component)
                if rec is not None and rec.kind == "derived":
                    rec = None
            if rec is not None:
                self._records[component] = rec
        return rec

    def components(self) -> list:
        """The components of this store's records, sorted."""
        return [n for n in sorted(os.listdir(self.root / "db" / "items"))
                if COMPONENT_RE.fullmatch(n)]

    def list_records(self) -> list:
        return [self.get_record(n) for n in self.components()]

    def seeds(self) -> list:
        """Seed records (a base's too) by component, read through db/seeds."""
        found = {c: r for c in os.listdir(self._seed_dir)
                 if (r := self.get_record(c)) is not None and r.kind == "seed"}
        if self.base is not None:
            found.update((r.path.component, r) for r in self.base.seeds())
        return [found[c] for c in sorted(found)]

    # -- derivations ------------------------------------------------------

    def _drv_path(self, drv_hash: ContentHash) -> Path:
        return self.root / "db" / "drvs" / drv_hash.hex

    def put_derivation(self, drv_hash: ContentHash, data: bytes):
        write_named(self._drv_path(drv_hash), data)

    def get_derivation_bytes(self, drv_hash: ContentHash) -> bytes | None:
        """The derivation's bytes, from this store or else from its base."""
        path = self._drv_path(drv_hash)
        if self.base is not None and not path.exists():
            path = self.base._drv_path(drv_hash)
        return path.read_bytes() if path.exists() else None

    def list_derivations(self) -> list:
        """The hashes that name this store's derivation files."""
        return [ContentHash(n) for n in sorted(os.listdir(self.root / "db" / "drvs"))
                if HEX64.fullmatch(n)]

    # -- item insertion ---------------------------------------------------

    def register_output(self, staged: Staged, store_path: StorePath, *,
                        kind: str = "derived", deriver: ContentHash | None,
                        references: list, description: str = "") -> StoreItemRecord:
        """Admit the Staged tree, moved in, as store_path: the one way in.  A
        reference, other than the item itself, with no record raises
        DanglingReference before anything is written.  Under the item's lock
        the record is re-read: one with the staged hash is returned as it is,
        one with another raises OutputCollision.  Records are never rewritten."""
        refs = sorted(set(references), key=lambda p: p.component)
        for ref in refs:
            if ref != store_path and self.get_record(ref) is None:
                raise DanglingReference(
                    f"dangling reference {ref.component}: not in the store")
        dest = store_path.path
        with self.lock(store_path.digest_prefix):
            rec = self._read_record(store_path.component)
            if rec is None:
                if os.path.lexists(dest) and carc.hash_path(dest) != staged.output_hash:
                    _remove(dest)  # a crashed insert's; one that matches is adopted
                if not os.path.lexists(dest):
                    os.rename(staged.path, dest)
                rec = StoreItemRecord(store_path, staged.output_hash, refs, kind,
                                      deriver, staged.size, description)
                self._write_record(rec)
        if rec.output_hash != staged.output_hash:
            raise OutputCollision(f"{store_path.component}: recorded output "
                                  f"{rec.output_hash}, new output {staged.output_hash}")
        return rec

    def add_fixed(self, tree, label: str, *, kind: str = "fixed",
                  description: str = "", references: list = ()) -> StorePath:
        """Copy the tree at a path in, content-addressed, by register_output."""
        if not isinstance(tree, (str, os.PathLike)):
            raise TypeError(f"not a path: {tree!r}")
        if not LABEL_RE.fullmatch(label):
            raise InvalidLabel(f"invalid store label: {label!r}")
        with self.scratch() as scratch:
            staged = Staged(scratch / "item", *carc.copy(tree, scratch / "item"))
            return self.register_output(
                staged, StorePath(self.root, staged.output_hash.prefix, label),
                kind=kind, deriver=None, references=references,
                description=description).path

    # -- verification and closure -----------------------------------------

    def verify_item(self, path: StorePath) -> VerifyReport:
        rec = self.get_record(path)
        if rec is None or not os.path.lexists(path.path):
            return VerifyReport("missing")
        actual = carc.hash_path(path.path)
        if actual != rec.output_hash:
            return VerifyReport("mismatch", expected=rec.output_hash, actual=actual)
        return VerifyReport("ok", expected=rec.output_hash, actual=actual)

    def members(self, paths) -> dict:
        """The record of every item that paths reach through references,
        themselves included, by component, in one walk."""
        found, todo = {}, list(paths)
        while todo:
            path = todo.pop()
            if path.component not in found:
                rec = self.get_record(path)
                if rec is None:
                    raise DanglingReference(
                        f"dangling reference {path.component}: not in the store")
                found[path.component] = rec
                todo.extend(rec.references)
        return found

    def closure(self, path: StorePath) -> list:
        """Transitive references closure, each item after the items it
        references, root last: one post-order walk.  A reference cycle,
        which only damaged records make, raises DependencyCycle."""
        graph = self.members([path])
        return [graph[c].path for c in postorder([path.component], lambda c: [
            r.component for r in graph[c].references if r.component != c])]
