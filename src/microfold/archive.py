"""Content-addressed source archive with upstream-then-archive fetching.

The archive stores canonical archives keyed by content hash; origin URLs
are advisory metadata.  When an upstream URL dies, any source whose hash
was ever ingested remains fetchable forever.

Layout: <root>/carc/<64-hex>, <root>/origins/<64-hex> (one URL per line,
sorted, deduplicated).
"""

from __future__ import annotations

import os
from pathlib import Path

from . import carc, transport
from .errors import ArchiveWriteError, HashMismatch, SourceUnavailable
from .hashing import ContentHash


class Archive:
    def __init__(self, root):
        self.root = Path(root)
        (self.root / "carc").mkdir(parents=True, exist_ok=True)
        (self.root / "origins").mkdir(parents=True, exist_ok=True)

    def ingest(self, content, origin: str | None = None) -> ContentHash:
        """Store content (bytes, path, or carc node) by its CARC hash."""
        if isinstance(content, bytes):
            data = carc.serialize_bytes(content)
        elif isinstance(content, (str, Path)):
            data = carc.serialize_path(content)
        else:
            data = carc.serialize_tree(content)
        content_hash = ContentHash.of_bytes(data)
        try:
            target = self.root / "carc" / content_hash.hex
            if not target.exists():
                tmp = target.with_suffix(".tmp")
                tmp.write_bytes(data)
                os.rename(tmp, target)
            if origin:
                self._add_origin(content_hash, origin)
        except OSError as e:
            raise ArchiveWriteError(str(e)) from e
        return content_hash

    def _add_origin(self, content_hash: ContentHash, origin: str):
        path = self.root / "origins" / content_hash.hex
        origins = set(path.read_text().splitlines()) if path.exists() else set()
        origins.add(origin)
        path.write_text("".join(o + "\n" for o in sorted(origins)))

    def origins(self, content_hash: ContentHash) -> list:
        path = self.root / "origins" / content_hash.hex
        return sorted(set(path.read_text().splitlines())) if path.exists() else []

    def lookup(self, content_hash: ContentHash) -> bytes | None:
        """CARC bytes for a hash, or None.  Pure function of the hash."""
        return transport.read_bytes(self.root, f"carc/{content_hash.hex}")

    def has(self, content_hash: ContentHash) -> bool:
        return (self.root / "carc" / content_hash.hex).exists()


def _fetch_upstream(ref):
    """Fetch ref.url; returns a carc node or None when unreachable."""
    url = ref.url
    if url.startswith("archive://"):
        return None  # archive-only source, handled by the second leg
    if url.startswith("file://"):
        path = Path(url[len("file://"):])
        if not path.exists():
            return None
        return carc.load_tree(path)
    data = transport.get(url) if transport.is_url(url) else None
    return None if data is None else carc.File(data)


def fetch_source(ref, store, archive: Archive | None,
                 *, archive_fallback: bool = True, auto_ingest: bool = True):
    """Fetch a source, verifying its hash: upstream first, then the archive.

    Returns the store path of the fixed item.  Every leg re-hashes what it
    fetched; bytes that do not match ref.expected_hash never enter the store.
    """
    legs = []

    node = _fetch_upstream(ref)
    if node is None:
        legs.append(f"upstream {ref.url}: unavailable")
    else:
        actual = carc.hash_tree(node)
        if actual == ref.expected_hash:
            path = store.add_fixed(node, ref.label)
            if auto_ingest and archive is not None:
                archive.ingest(node, origin=ref.url)
            return path
        mismatch = HashMismatch("upstream", ref.expected_hash, actual)
        legs.append(f"upstream {ref.url}: {mismatch}")

    if archive_fallback and archive is not None:
        data = archive.lookup(ref.expected_hash)
        if data is None:
            legs.append("archive: not present")
        else:
            actual = ContentHash.of_bytes(data)
            if actual == ref.expected_hash:
                return store.add_fixed(carc.parse(data), ref.label)
            legs.append(f"archive: {HashMismatch('archive', ref.expected_hash, actual)}")
    elif archive_fallback:
        legs.append("archive: not configured")
    else:
        legs.append("archive: fallback disabled")

    raise SourceUnavailable(legs)
