"""Binary cache: publish, verified fetch, and cross-provider challenge.

There are no signatures anywhere.  Integrity rests on content hashes: every
archive fetched from a cache is re-hashed before registration, and the
challenge operation compares hashes across independent providers (and
optionally a fresh local rebuild, from a derivation hash the store holds)
instead of trusting any of them.

Cache layout: <cache>/info/<digest_prefix> ("key: value" lines, keys
sorted) and <cache>/carc/<digest_prefix> (raw CARC bytes).
"""

from __future__ import annotations

import hashlib
import os
import sys
from contextlib import closing
from pathlib import Path
from typing import NamedTuple

from . import carc, transport
from .errors import (AllProvidersCorrupt, CacheWriteError, CorruptItem,
                     DependencyCycle, MicrofoldError, ParseError,
                     SubstituteNotFound)
from .hashing import ContentHash
from .store import (Staged, Store, StorePath, parse_fields, postorder,
                    render_fields, write_atomic)


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


def _provider_info(cache, digest_prefix: str):
    """One provider's info for an item, or None: the provider has none,
    cannot be reached (refused, reset, timed out, not speaking HTTP) or
    serves an unreadable one."""
    try:
        info_text = transport.read_bytes(cache, f"info/{digest_prefix}")
        return SubstituteInfo.parse(info_text.decode()) if info_text else None
    except (OSError, ValueError, KeyError, MicrofoldError):
        return None


def _provider_archive(cache, digest_prefix: str):
    """One provider's archive of an item as an open stream of blocks, or
    None: the provider has none or cannot be reached."""
    try:
        return transport.stream(cache, f"carc/{digest_prefix}")
    except (OSError, ValueError):
        return None


def _restore(path: StorePath, caches, scratch: Path):
    """path's info and its archive restored under scratch, as a Staged
    tree, from the first cache that serves it honestly.  A mismatching or
    malformed provider is skipped with a warning and the next one tried."""
    found = corrupt = False
    for n, cache in enumerate(caches):
        info = _provider_info(cache, path.digest_prefix)
        blocks = (None if info is None
                  else _provider_archive(cache, path.digest_prefix))
        if blocks is None:
            continue
        found, dest = True, scratch / f"{path.component}.{n}"
        try:
            with closing(blocks):
                staged = Staged(dest, *carc.restore(blocks, dest))
            actual = staged.output_hash
        except (ParseError, transport.BrokenFetch) as e:
            actual = f"an unreadable archive ({e})"
        if actual == info.output_hash and info.store_path == path.component:
            return info, staged
        print(f"cache {cache} serves corrupt archive for {path.component} "
              f"(expected {info.output_hash}, got {actual}); skipping",
              file=sys.stderr)
        corrupt = True
    if found and corrupt:
        raise AllProvidersCorrupt(path.component)
    raise SubstituteNotFound(path.component)


def fetch_substitute(path: StorePath, caches, store: Store) -> StorePath:
    """Install a pre-built item, and the references the store lacks, each
    from the first cache that serves it honestly.

    One post-order walk over references (store.postorder) restores each
    served archive under one scratch directory of <store>/tmp, hashing it
    in the same pass, and registers each item after its references, so the
    store never dangles.  A reference that no cache serves fails the whole
    fetch, naming it (SubstituteNotFound or AllProvidersCorrupt), and so
    does a reference cycle; either way nothing of the cycle is registered.
    """
    if store.get_record(path) is not None:
        return path
    fetched = {}  # StorePath -> (info, Staged tree, references)
    with store.scratch() as scratch:
        def missing_references(item):
            info, staged = _restore(item, caches, scratch)
            refs = [StorePath.from_component(store.root, c)
                    for c in info.references if c != item.component]
            fetched[item] = info, staged, refs
            return [r for r in refs if store.get_record(r) is None]

        try:
            for item in postorder([path], missing_references):
                info, staged, refs = fetched.pop(item)
                store.register_output(
                    staged, item, deriver=info.deriver, references=refs,
                    kind="fixed" if info.deriver is None else "derived")
        except DependencyCycle as e:
            raise SubstituteNotFound("reference cycle " + " -> ".join(
                p.component for p in e.chain)) from None
    return path


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
    fresh rebuild in a scratch store of the derivation whose hash
    derivations maps a path's component to.  Unreachable providers simply
    do not contribute a value.
    """
    from .builder import rebuild_output_hash

    entries = {}
    for path in paths:
        values = []
        rec = store.get_record(path)
        if rec is not None:
            values.append(("local", rec.output_hash.hex))
        for cache in caches:
            blocks = _provider_archive(cache, path.digest_prefix)
            if blocks is not None:
                sha = hashlib.sha256()
                try:
                    for block in blocks:
                        sha.update(block)
                except transport.BrokenFetch:
                    continue  # no value
                values.append((str(cache), sha.hexdigest()))
            elif (info := _provider_info(cache, path.digest_prefix)) is not None:
                values.append((str(cache), info.output_hash.hex))
        if rebuild and derivations and path.component in derivations:
            values.append(("rebuild", rebuild_output_hash(
                derivations[path.component], store, archive=archive)))
        distinct = {h for _, h in values}
        if len(values) >= 2 and len(distinct) == 1:
            verdict = "agree"
        elif len(distinct) > 1:
            verdict = "disagree"
        else:
            verdict = "unknown"
        entries[path.component] = ChallengeEntry(verdict, values)
    return ChallengeReport(entries)
