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
from .derivation import source_path
from .errors import ArchiveWriteError, ParseError, SourceUnavailable, StoreCorruption
from .hashing import ContentHash
from .store import Staged, locked, read_state, write_atomic, write_named


class Archive:
    def __init__(self, root):
        self.root = Path(root)
        if not (self.root / "origins").is_dir():  # made last
            for sub in ("carc", "origins"):
                (self.root / sub).mkdir(parents=True, exist_ok=True)

    def ingest(self, content, origin: str | None = None) -> ContentHash:
        """Store content (the tree at a path, or bytes as a single file) by
        its CARC hash.  A path is streamed into a tmp file, hashed on the
        way, and renamed."""
        try:
            if isinstance(content, bytes):
                data = carc.file_archive(content)
                content_hash = ContentHash.of_bytes(data)
                write_named(self.root / "carc" / content_hash.hex, data)
            else:
                tmp, content_hash, _ = carc.dump_to_tmp(content, self.root / "carc")
                os.replace(tmp, self.root / "carc" / content_hash.hex)
            if origin:
                self._add_origin(content_hash, origin)
        except OSError as e:
            raise ArchiveWriteError(str(e)) from e
        return content_hash

    def _add_origin(self, content_hash: ContentHash, origin: str):
        with locked(self.root / "origins.lock"):
            origins = set(self.origins(content_hash))
            if origin not in origins:
                text = "".join(o + "\n" for o in sorted(origins | {origin}))
                write_atomic(self.root / "origins" / content_hash.hex,
                             text.encode())

    def origins(self, content_hash: ContentHash) -> list:
        return read_state(self.root / "origins" / content_hash.hex, StoreCorruption,
                          lambda text: sorted(set(text.splitlines()))) or []

    def lookup(self, content_hash: ContentHash):
        """The CARC bytes for a hash as a stream of blocks (see
        transport.stream), or None.  Pure function of the hash."""
        return transport.stream(self.root, f"carc/{content_hash.hex}")

    def has(self, content_hash: ContentHash) -> bool:
        return (self.root / "carc" / content_hash.hex).exists()


def _fetch_upstream(ref, dest: Path, archive: Archive | None) -> Staged | None:
    """Materialize ref.url at dest; None when unreachable.  A file:// tree
    is copied and the copy's bytes hashed; an HTTP body is streamed to dest
    and hashed in one read.  With an archive, that pass also writes the
    archive file, which joins the archive only if it has ref's hash."""
    url = ref.url
    if url.startswith("file://"):
        path, copy_to = url[len("file://"):], dest
        if not os.path.lexists(path):
            return None
    elif transport.is_url(url):
        path, copy_to = dest, None
        try:
            blocks = transport.stream(url)
        except OSError:
            return None  # refused or timed out: the archive leg still runs
        if blocks is None:
            return None
        with closing(blocks), open(path, "wb") as f:
            try:
                f.writelines(blocks)
            except transport.BrokenFetch:
                return None  # reset, cut short or stalled
        os.chmod(dest, 0o644)
    else:
        return None  # archive-only (archive://) or unknown: the second leg
    if archive is None:
        return Staged(dest, *carc.copy(path, copy_to))
    tmp, content_hash, size = carc.dump_to_tmp(path, archive.root / "carc", copy_to)
    if content_hash == ref.expected_hash:
        os.replace(tmp, archive.root / "carc" / content_hash.hex)
        archive._add_origin(content_hash, ref.url)
    else:
        os.unlink(tmp)
    return Staged(dest, content_hash, size)


def fetch_source(ref, store, archive: Archive | None):
    """Fetch a source, verifying its hash: upstream first, then the archive.

    Returns the store path of the fixed item; an item the store already
    has with that hash is returned as it is, fetching nothing.  Every leg
    stages what it fetched under <store>/tmp and hashes the staged bytes;
    bytes that do not match ref.expected_hash never get a record.  A source
    fetched from upstream is written into the archive on the way, over a
    damaged entry too; one the store has is ingested if the archive lacks it.
    """
    item = source_path(store, ref)
    present = store.get_record(item)
    if present is not None and present.output_hash == ref.expected_hash:
        if archive is not None and not archive.has(ref.expected_hash):
            archive.ingest(present.path.path, origin=ref.url)
        return present.path
    legs = []
    with store.scratch() as scratch:
        staged = _fetch_upstream(ref, scratch / "upstream", archive)
        if staged is None:
            legs.append(f"upstream {ref.url}: unavailable")
        elif staged.output_hash == ref.expected_hash:
            return store.register_output(staged, item, kind="fixed", deriver=None,
                                         references=[]).path
        else:
            legs.append(f"upstream {ref.url}: expected "
                        f"{ref.expected_hash}, got {staged.output_hash}")

        if archive is not None:
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
                    return store.register_output(staged, item, kind="fixed",
                                                 deriver=None, references=[]).path
                legs.append(f"archive: expected {ref.expected_hash}, got {actual}")
        else:
            legs.append("archive: not configured")

    raise SourceUnavailable(legs)
