"""Content-addressed source archive with upstream-then-archive fetching.

The archive stores canonical archives keyed by content hash; origin URLs
are advisory metadata.  When an upstream URL dies, any source whose hash
was ever ingested remains fetchable forever.

Layout: <root>/carc/<64-hex>, <root>/origins/<64-hex> (one URL per line,
sorted, deduplicated), updated under <root>/origins.lock.
"""

from __future__ import annotations

import os
from contextlib import closing
from pathlib import Path

from . import carc, transport
from .errors import (ArchiveWriteError, HashMismatch, ParseError,
                     SourceUnavailable)
from .hashing import ContentHash
from .store import Staged, StorePath, locked, write_atomic


class Archive:
    def __init__(self, root):
        self.root = Path(root)
        (self.root / "carc").mkdir(parents=True, exist_ok=True)
        (self.root / "origins").mkdir(parents=True, exist_ok=True)

    def ingest(self, content, origin: str | None = None) -> ContentHash:
        """Store content (bytes, path, or carc node) by its CARC hash.  A
        path is streamed into a tmp file, hashed on the way, and renamed."""
        try:
            if isinstance(content, (str, Path)):
                tmp, content_hash, _ = carc.dump_to_tmp(content, self.root / "carc")
                os.replace(tmp, self.root / "carc" / content_hash.hex)
            else:
                node = carc.File(content) if isinstance(content, bytes) else content
                data = carc.serialize_tree(node)
                content_hash = ContentHash.of_bytes(data)
                if not self.has(content_hash):
                    write_atomic(self.root / "carc" / content_hash.hex, data)
            if origin:
                self._add_origin(content_hash, origin)
        except OSError as e:
            raise ArchiveWriteError(str(e)) from e
        return content_hash

    def copy_in(self, src, dest: Path, ref) -> Staged:
        """Copy the tree at src to dest, as carc.copy does, and write its
        archive to a tmp file here in the same pass.  The file joins the
        archive, with origin ref.url, only if it hashes to
        ref.expected_hash."""
        tmp, content_hash, size = carc.dump_to_tmp(src, self.root / "carc", dest)
        if content_hash == ref.expected_hash:
            os.replace(tmp, self.root / "carc" / content_hash.hex)
            self._add_origin(content_hash, ref.url)
        else:
            os.unlink(tmp)
        return Staged(dest, content_hash, size)

    def _add_origin(self, content_hash: ContentHash, origin: str):
        with locked(self.root / "origins.lock"):
            origins = set(self.origins(content_hash))
            if origin not in origins:
                text = "".join(o + "\n" for o in sorted(origins | {origin}))
                write_atomic(self.root / "origins" / content_hash.hex,
                             text.encode())

    def origins(self, content_hash: ContentHash) -> list:
        path = self.root / "origins" / content_hash.hex
        return sorted(set(path.read_text().splitlines())) if path.exists() else []

    def lookup(self, content_hash: ContentHash):
        """The CARC bytes for a hash as a stream of blocks (see
        transport.stream), or None.  Pure function of the hash."""
        return transport.stream(self.root, f"carc/{content_hash.hex}")

    def has(self, content_hash: ContentHash) -> bool:
        return (self.root / "carc" / content_hash.hex).exists()


def _fetch_upstream(ref, dest: Path, archive: Archive | None) -> Staged | None:
    """Materialize ref.url at dest; None when unreachable.  A file:// tree
    is copied, and the copy's own bytes are hashed; given an archive, the
    copy also ingests it there (Archive.copy_in)."""
    url = ref.url
    if url.startswith("archive://"):
        return None  # archive-only source, handled by the second leg
    if url.startswith("file://"):
        path = url[len("file://"):]
        if not os.path.lexists(path):
            return None
        if archive is not None:
            return archive.copy_in(path, dest, ref)
        return Staged(dest, *carc.copy(path, dest))
    if not transport.is_url(url):
        return None
    try:
        data = transport.read_bytes(url)
    except OSError:
        return None  # refused, reset or timed out: the archive leg still runs
    if data is None:
        return None
    return Staged(dest, *carc.restore([carc.serialize_bytes(data)], dest))


def fetch_source(ref, store, archive: Archive | None,
                 *, archive_fallback: bool = True, auto_ingest: bool = True):
    """Fetch a source, verifying its hash: upstream first, then the archive.

    Returns the store path of the fixed item; an item the store already
    has with that hash is returned as it is, fetching nothing.  Every leg
    stages what it fetched under <store>/tmp and hashes the staged bytes;
    bytes that do not match ref.expected_hash never get a record.  With
    auto_ingest, a source the archive lacks is ingested on the way.
    """
    ingest = (auto_ingest and archive is not None
              and not archive.has(ref.expected_hash))
    present = store.get_record(StorePath.from_component(
        store.root, f"{ref.expected_hash.prefix}-{ref.label}"))
    if present is not None and present.output_hash == ref.expected_hash:
        if ingest:
            archive.ingest(present.path.path, origin=ref.url)
        return present.path
    legs = []
    with store.scratch() as scratch:
        staged = _fetch_upstream(ref, scratch / "upstream",
                                 archive if ingest else None)
        if staged is None:
            legs.append(f"upstream {ref.url}: unavailable")
        elif staged.output_hash == ref.expected_hash:
            path = store.add_fixed(staged, ref.label)
            if ingest and not archive.has(ref.expected_hash):
                archive.ingest(path.path, origin=ref.url)
            return path
        else:
            mismatch = HashMismatch("upstream", ref.expected_hash,
                                    staged.output_hash)
            legs.append(f"upstream {ref.url}: {mismatch}")

        if archive_fallback and archive is not None:
            blocks = archive.lookup(ref.expected_hash)
            if blocks is None:
                legs.append("archive: not present")
            else:
                dest = scratch / "archived"
                try:
                    with closing(blocks):
                        staged = Staged(dest, *carc.restore(blocks, dest))
                    actual = staged.output_hash
                except ParseError as e:
                    actual = f"an unreadable archive ({e})"
                if actual == ref.expected_hash:
                    return store.add_fixed(staged, ref.label)
                legs.append(f"archive: {HashMismatch('archive', ref.expected_hash, actual)}")
        elif archive_fallback:
            legs.append("archive: not configured")
        else:
            legs.append("archive: fallback disabled")

    raise SourceUnavailable(legs)
