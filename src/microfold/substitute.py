"""Binary cache: publish, verified fetch, and cross-provider challenge.

There are no signatures anywhere.  Integrity rests on content hashes: every
archive fetched from a cache is re-hashed before registration, and the
challenge operation compares hashes across independent providers (and
optionally a fresh local rebuild, from a derivation hash the store holds)
instead of trusting any of them.

Cache layout: <cache>/info/<digest_prefix>, the item's store record
(StoreItemRecord.fields) without kind and description, plus storepath;
its reader sets the kind (derived when it names a deriver, else fixed:
a cache never installs a seed); <cache>/carc/<digest_prefix>, raw CARC.
"""

from __future__ import annotations

import os
import sys
from contextlib import closing
from pathlib import Path
from typing import NamedTuple

from . import carc, transport
from .errors import (AllProvidersCorrupt, CacheWriteError, CorruptItem, DependencyCycle,
                     MicrofoldError, ParseError, StoreCorruption, SubstituteNotFound)
from .hashing import ContentHash
from .store import (Staged, Store, StoreItemRecord, StorePath, decode_state, parse_fields,
                    postorder, render_fields, write_atomic)


def publish(store: Store, path: StorePath, cache) -> StoreItemRecord:
    """Write a verified store item into a local cache directory; its record.

    An entry that holds publish's info bytes and re-hashes to the record is
    kept without reading the item.  Otherwise the item's archive is streamed
    to a tmp file, hashed on the way and renamed in only if it matches the
    record: publish verifies what it writes, and repairs a damaged entry.
    """
    rec = store.get_record(path)
    if rec is None or not os.path.lexists(path.path):
        raise CorruptItem(f"{path.component}: missing")
    info = {k: v for k, v in rec.fields().items() if k not in ("kind", "description")}
    info = render_fields(info | {"storepath": path.component}).encode()
    try:
        cache = Path(cache)
        held = transport.read_bytes(cache, f"info/{path.digest_prefix}") == info
        blocks = _provider_archive(cache, path.digest_prefix) if held else None
        if blocks is not None and ContentHash.of_blocks(blocks) == rec.output_hash:
            return rec
        (cache / "info").mkdir(parents=True, exist_ok=True)
        (cache / "carc").mkdir(parents=True, exist_ok=True)
        tmp, actual, _ = carc.dump_to_tmp(path.path, cache / "carc")
        if actual != rec.output_hash:
            os.unlink(tmp)
            raise CorruptItem(f"{path.component}: mismatch")
        os.replace(tmp, cache / "carc" / path.digest_prefix)
        write_atomic(cache / "info" / path.digest_prefix, info)
    except OSError as e:
        raise CacheWriteError(str(e)) from e
    return rec


def _provider_info(cache, path: StorePath) -> StoreItemRecord | None:
    """One provider's record of path's item, named by its storepath, or
    None: the provider has none, cannot be reached (refused, reset, timed
    out, not speaking HTTP) or serves an unreadable one."""
    try:
        info_text = transport.read_bytes(cache, f"info/{path.digest_prefix}")
        if info_text is None:
            return None
        info = decode_state(info_text, f"info/{path.digest_prefix}", StoreCorruption, parse_fields)
        info["kind"] = "derived" if "deriver" in info else "fixed"
        return StoreItemRecord.from_fields(
            StorePath.from_component(path.store_root, info.get("storepath", "")), info)
    except (OSError, MicrofoldError):
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
    corrupt = False
    for n, cache in enumerate(caches):
        info = _provider_info(cache, path)
        blocks = (None if info is None
                  else _provider_archive(cache, path.digest_prefix))
        if blocks is None:
            continue
        dest = scratch / f"{path.component}.{n}"
        try:
            with closing(blocks):
                staged = Staged(dest, *carc.restore(blocks, dest))
            actual = staged.output_hash
        except (ParseError, transport.BrokenFetch) as e:
            actual = f"an unreadable archive ({e})"
        if actual == info.output_hash and info.path == path:
            return info, staged
        print(f"cache {cache} serves corrupt archive for {path.component} "
              f"(expected {info.output_hash}, got {actual}); skipping",
              file=sys.stderr)
        corrupt = True
    if corrupt:
        raise AllProvidersCorrupt(f"every cache serves a corrupt archive of {path.component}")
    raise SubstituteNotFound(f"no cache serves {path.component}")


def fetch_substitute(path: StorePath, caches, store: Store,
                     refused: set | None = None) -> StorePath:
    """Install a pre-built item, and the references the store lacks, each
    from the first cache that serves it honestly.

    One post-order walk over references (store.postorder) restores each
    served archive under one scratch directory of <store>/tmp, hashing it
    in the same pass, and registers each item after its references, so the
    store never dangles.  A reference that no cache serves fails the whole
    fetch, naming it (SubstituteNotFound or AllProvidersCorrupt), and so
    does a reference cycle; either way nothing of the cycle is registered.
    A failed fetch adds the items left open in its walk to refused, and a
    fetch given the same set fails at once on meeting one of them.
    """
    if store.get_record(path) is not None:
        return path
    refused = set() if refused is None else refused
    fetched = {}  # StorePath -> (record, Staged tree, references)
    with store.scratch() as scratch:
        def missing_references(item):
            if item in refused:
                raise SubstituteNotFound(f"{item.component}: needs an unserved item")
            info, staged = _restore(item, caches, scratch)
            refs = [r for r in info.references if r != item]
            fetched[item] = info, staged, refs
            return [r for r in refs if store.get_record(r) is None]

        try:
            for item in postorder([path], missing_references):
                info, staged, refs = fetched.pop(item)
                store.register_output(staged, item, deriver=info.deriver,
                                      references=refs, kind=info.kind)
        except DependencyCycle as e:
            raise SubstituteNotFound("reference cycle " + " -> ".join(
                p.component for p in e.chain)) from None
        finally:
            refused.update(fetched)  # empty unless the fetch failed
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


def challenge(paths, caches, store: Store, *, derivations=None,
              archive=None) -> ChallengeReport:
    """Compare output hashes across providers without installing anything.

    Providers are the local store record, every cache (archives re-hashed,
    so a tampered archive shows up as a divergent value), and optionally a
    fresh rebuild in a scratch store of the derivation whose hash
    derivations, when given, maps a path's component to.  Unreachable
    providers simply do not contribute a value.
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
                try:
                    values.append((str(cache), ContentHash.of_blocks(blocks).hex))
                except transport.BrokenFetch:
                    continue  # no value
            elif (info := _provider_info(cache, path)) is not None:
                values.append((str(cache), info.output_hash.hex))
        if derivations and path.component in derivations:
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
