"""Binary cache: publish, verified fetch, and cross-provider challenge.

There are no signatures anywhere.  Integrity rests on content hashes: every
archive fetched from a cache is re-hashed before registration, and the
challenge operation compares hashes across independent providers (and
optionally a fresh local rebuild) instead of trusting any of them.

Cache layout: <cache>/info/<digest_prefix> ("key: value" lines, keys
sorted) and <cache>/carc/<digest_prefix> (raw CARC bytes).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
from contextlib import closing
from pathlib import Path
from typing import NamedTuple

from . import carc, transport
from .errors import (AllProvidersCorrupt, CacheWriteError, CorruptItem,
                     MicrofoldError, ParseError, SubstituteNotFound)
from .hashing import ContentHash
from .store import (Staged, Store, StorePath, parse_fields, render_fields,
                    write_atomic)


class SubstituteInfo(NamedTuple):
    store_path: str  # final path component
    output_hash: ContentHash
    archive_size: int
    references: list  # sorted components
    deriver: ContentHash | None = None

    def render(self) -> str:
        fields = {
            "outputhash": self.output_hash.hex,
            "references": " ".join(self.references),
            "size": str(self.archive_size),
            "storepath": self.store_path,
        }
        if self.deriver is not None:
            fields["deriver"] = self.deriver.hex
        return render_fields(fields)

    @classmethod
    def parse(cls, text: str) -> "SubstituteInfo":
        fields = parse_fields(text)
        return cls(
            store_path=fields["storepath"],
            output_hash=ContentHash(fields["outputhash"]),
            archive_size=int(fields["size"]),
            references=[c for c in fields.get("references", "").split() if c],
            deriver=ContentHash(fields["deriver"]) if "deriver" in fields else None,
        )


def publish(store: Store, path: StorePath, cache) -> SubstituteInfo:
    """Write a verified store item into a local cache directory.

    The item's archive is streamed into a tmp file and hashed on the way;
    it is renamed into the cache only if it matches the item's record.
    """
    rec = store.get_record(path)
    if rec is None or not os.path.lexists(path.path):
        raise CorruptItem(f"{path.component}: missing")
    try:
        cache = Path(cache)
        (cache / "info").mkdir(parents=True, exist_ok=True)
        (cache / "carc").mkdir(parents=True, exist_ok=True)
        tmp, actual, size = carc.dump_to_tmp(path.path, cache / "carc")
        if actual != rec.output_hash:
            os.unlink(tmp)
            raise CorruptItem(f"{path.component}: mismatch")
        os.replace(tmp, cache / "carc" / path.digest_prefix)
        info = SubstituteInfo(
            store_path=path.component,
            output_hash=rec.output_hash,
            archive_size=size,
            references=[r.component for r in rec.references],
            deriver=rec.deriver,
        )
        write_atomic(cache / "info" / path.digest_prefix, info.render().encode())
    except OSError as e:
        raise CacheWriteError(str(e)) from e
    return info


def _provider_lookup(cache, digest_prefix: str):
    """(info, archive) from one provider, the archive as an open stream of
    blocks; either may be None.

    A provider that cannot be reached (refused, reset, timed out, not
    speaking HTTP) or serves an unreadable info file has nothing to offer.
    """
    try:
        info_text = transport.read_bytes(cache, f"info/{digest_prefix}")
        info = SubstituteInfo.parse(info_text.decode()) if info_text else None
        blocks = transport.stream(cache, f"carc/{digest_prefix}")
    except (OSError, ValueError, KeyError, MicrofoldError):
        return None, None
    return info, blocks


def fetch_substitute(path: StorePath, caches, store: Store,
                     *, _seen=None) -> StorePath:
    """Install a pre-built item from the first cache that serves it honestly.

    The served archive is restored under <store>/tmp and hashed in the same
    pass, before registration; a mismatching or malformed
    provider is skipped with a warning and the next one is tried.  The
    item's references are fetched first so the store never dangles.
    """
    if store.get_record(path) is not None:
        return path
    _seen = _seen if _seen is not None else set()
    if path.component in _seen:
        raise SubstituteNotFound(f"reference cycle at {path.component}")
    _seen.add(path.component)

    found = corrupt = False
    for cache in caches:
        info, blocks = _provider_lookup(cache, path.digest_prefix)
        if info is None or blocks is None:
            continue  # a stream left unread closes when dropped
        found = True
        with store.scratch() as scratch:
            try:
                with closing(blocks):
                    staged = Staged(scratch / "item",
                                    *carc.restore(blocks, scratch / "item"))
                actual = staged.output_hash
            except (ParseError, transport.BrokenFetch) as e:
                actual = f"an unreadable archive ({e})"
            if actual != info.output_hash or info.store_path != path.component:
                print(f"cache {cache} serves corrupt archive for {path.component} "
                      f"(expected {info.output_hash}, got {actual}); skipping",
                      file=sys.stderr)
                corrupt = True
                continue
            try:
                refs = []
                for comp in info.references:
                    if comp == path.component:
                        continue
                    ref_path = StorePath.from_component(store.root, comp)
                    if store.get_record(ref_path) is None:
                        fetch_substitute(ref_path, caches, store, _seen=_seen)
                    refs.append(ref_path)
            except MicrofoldError as e:
                print(f"cache {cache}: reference of {path.component} "
                      f"unavailable ({e}); skipping", file=sys.stderr)
                continue
            store.register_output(staged, path, deriver=info.deriver,
                                  references=refs,
                                  kind="fixed" if info.deriver is None else "derived")
        return path

    if found and corrupt:
        raise AllProvidersCorrupt(path.component)
    raise SubstituteNotFound(path.component)


class ChallengeEntry(NamedTuple):
    verdict: str  # agree | disagree | unknown
    values: list  # (provider, hash-hex) pairs, provider order preserved

    @property
    def distinct(self):
        return sorted({h for _, h in self.values})


class ChallengeReport(NamedTuple):
    entries: dict  # component -> ChallengeEntry

    @property
    def ok(self):
        return all(e.verdict != "disagree" for e in self.entries.values())

    def render(self) -> str:
        lines = []
        for comp in sorted(self.entries):
            entry = self.entries[comp]
            lines.append(f"{comp}: {entry.verdict}")
            for provider, h in entry.values:
                lines.append(f"  {provider}: {h}")
            if entry.verdict == "disagree":
                lines.append(f"  {len(entry.distinct)} distinct hashes")
        return "\n".join(lines) + "\n"


def challenge(paths, caches, store: Store, *, rebuild: bool = False,
              derivations=None, archive=None) -> ChallengeReport:
    """Compare output hashes across providers without installing anything.

    Providers are the local store record, every cache (archives re-hashed,
    so a tampered archive shows up as a divergent value), and optionally a
    fresh rebuild in a scratch store.  Unreachable providers simply do not
    contribute a value.
    """
    from .builder import build

    entries = {}
    for path in paths:
        values = []
        rec = store.get_record(path)
        if rec is not None:
            values.append(("local", rec.output_hash.hex))
        for cache in caches:
            info, blocks = _provider_lookup(cache, path.digest_prefix)
            if blocks is not None:
                sha = hashlib.sha256()
                try:
                    for block in blocks:
                        sha.update(block)
                except transport.BrokenFetch:
                    continue  # no value
                values.append((str(cache), sha.hexdigest()))
            elif info is not None:
                values.append((str(cache), info.output_hash.hex))
        if rebuild and derivations and path.component in derivations:
            scratch_root = tempfile.mkdtemp(prefix="microfold-challenge-")
            try:
                scratch = Store(scratch_root, base=store)
                built = build(derivations[path.component], scratch,
                              archive=archive)
                values.append(("rebuild",
                               scratch.get_record(built).output_hash.hex))
            finally:
                shutil.rmtree(scratch_root, ignore_errors=True)
        distinct = {h for _, h in values}
        if len(values) >= 2 and len(distinct) == 1:
            verdict = "agree"
        elif len(distinct) > 1:
            verdict = "disagree"
        else:
            verdict = "unknown"
        entries[path.component] = ChallengeEntry(verdict, values)
    return ChallengeReport(entries)
