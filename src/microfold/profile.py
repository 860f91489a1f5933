"""Profiles: materialized unions of built packages, with generations.

A generation is an append-only snapshot: the union tree (a store item named
by the member outputs it references, so shared across profiles) plus enough
provenance (pin text, manifest text, resolved hashes) to replay it exactly.
Its members are built from derivation hashes whose bytes the store holds
(`Builder.build`).  The union's files are hard links to its members' files,
and a generation's `tree` is hard links to the union's (copies where linking
fails, see carc.link), so an edit made there edits the items, and `verify`
reports them.  The active generation is a mutable pointer; rollback just
moves it.

On disk: <profile>/generations/<n>/{tree, channels.scm, manifest.scm,
hashes.txt, store-path, created.txt}, <profile>/current (the active number).
"""

from __future__ import annotations

import os
import shutil
import stat
import time
from pathlib import Path
from typing import NamedTuple

from . import carc
from .builder import BuildOptions, Builder
from .errors import MicrofoldError, ProfileCollision, StoreCorruption
from .hashing import ContentHash
from .store import Staged, Store, StorePath, locked, read_state, write_atomic


class Generation(NamedTuple):
    number: int
    profile_tree: StorePath
    pin_text: str
    manifest_text: str
    drv_hashes: list  # (label, drvhash, outhash)
    created_at: str  # display only, excluded from all hashes


def _same(a: bytes, b: bytes) -> bool:
    """Two non-directory entries merge silently when they are the same
    file (exec bit, then size, then bytes) or the same symlink."""
    sa, sb = os.lstat(a), os.lstat(b)
    if stat.S_ISREG(sa.st_mode) and stat.S_ISREG(sb.st_mode):
        import filecmp  # only a clash between two files needs it
        return (not (sa.st_mode ^ sb.st_mode) & stat.S_IXUSR
                and filecmp.cmp(a, b, shallow=False))
    if stat.S_ISLNK(sa.st_mode) and stat.S_ISLNK(sb.st_mode):
        return os.readlink(a) == os.readlink(b)
    return False


def _is_dir(path) -> bool:
    return stat.S_ISDIR(os.lstat(path).st_mode)


def _add_entries(children: dict, tree: bytes, provider: str):
    for name in os.listdir(tree):
        children.setdefault(name, []).append((tree + b"/" + name, provider))


def _merge(children: dict, dest: bytes, rel: str, emit):
    """Emit, and create at dest, a directory with an entry for each name
    of children: the union of children[name], the (path, provider) pairs
    at rel + name in member order.  The first provider owns an entry; a
    later one may only add to its directory or repeat its file.  One frame
    per level, so a union may be as deep as carc.MAX_DEPTH."""
    for name, sub in carc.directory(sorted(children), dest, emit):
        entries, path_rel = children[name], rel + os.fsdecode(name)
        first, owner = entries[0]
        if len(entries) > 1 and _is_dir(first):
            below = {}
            for path, provider in entries:
                if not _is_dir(path):
                    raise ProfileCollision(path_rel, owner, provider)
                _add_entries(below, path, provider)
            _merge(below, sub, path_rel + "/", emit)
            continue
        for path, provider in entries[1:]:
            if not _same(first, path):
                raise ProfileCollision(path_rel, owner, provider)
        carc.walk(first, sub, emit, links=True)


def union_tree(outputs, dest) -> tuple[ContentHash, int]:
    """Materialize at dest the union of output trees read from disk, as
    hard links to their files, and return the hash and length of its CARC,
    streamed in the same pass (one read of each file);
    outputs is a list of (StorePath, tree path) pairs.  Identical files and
    symlinks collapse; any other clash raises ProfileCollision.  A
    non-directory output occupies an entry named after its label."""
    top = {}
    for sp, tree in outputs:
        tree = os.fsencode(tree)
        if _is_dir(tree):
            _add_entries(top, tree, sp.component)
        else:
            top.setdefault(sp.label.encode(), []).append((tree, sp.component))
    return carc.hashed(lambda emit: _merge(top, os.fsencode(dest), "", emit))


class Profile:
    def __init__(self, root):
        self.root = Path(root)
        if not (self.root / "generations").is_dir():
            (self.root / "generations").mkdir(parents=True, exist_ok=True)

    def generation_numbers(self) -> list:
        return sorted(int(n) for n in os.listdir(self.root / "generations") if n.isdigit())

    def current(self) -> int | None:
        return read_state(self.root / "current", StoreCorruption, int)

    def generation_dir(self, number: int) -> Path:
        return self.root / "generations" / str(number)

    def generation_store_component(self, number: int) -> str | None:
        return read_state(self.generation_dir(number) / "store-path", StoreCorruption, str.strip)

    def rollback(self, number: int) -> int:
        with locked(self.root / "lock"):
            if number not in self.generation_numbers():
                raise MicrofoldError(f"unknown generation {number}")
            write_atomic(self.root / "current", b"%d\n" % number)
            return number


def build_profile(drv_hashes, store: Store, profile: Profile, *,
                  archive=None, options: BuildOptions | None = None,
                  pin_text: str = "", manifest_text: str = "") -> Generation:
    """Build every derivation that drv_hashes name, whose bytes the store
    holds, in one schedule; materialize the union, append a generation.

    The union is named by its members, as a build output by its derivation:
    the SHA-256 of the sorted, distinct member components, one per line.  So
    a later build of the same members (in any order, into any profile) finds
    it with one record read.  The profile lock guards only the generation.
    """
    member_paths = Builder(store, archive=archive, options=options).build(drv_hashes)
    hashes = [(sp.label, drv_hash.hex, store.get_record(sp).output_hash.hex)
              for drv_hash, sp in zip(drv_hashes, member_paths)]

    members = sorted({sp.component for sp in member_paths})
    key = ContentHash.of_bytes("".join(c + "\n" for c in members).encode())
    union_path = StorePath(store.root, key.prefix, "profile")
    if store.get_record(union_path) is None:
        with store.scratch() as scratch:
            staged = Staged(scratch / "union", *union_tree(
                [(sp, sp.path) for sp in member_paths], scratch / "union"))
            store.register_output(staged, union_path, deriver=None,
                                  references=member_paths, kind="fixed")
    with locked(profile.root / "lock"):
        numbers = profile.generation_numbers()
        number = (numbers[-1] + 1) if numbers else 1
        gen_dir = profile.generation_dir(number)
        tmp = gen_dir.with_suffix(".tmp")
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        try:
            carc.link(union_path.path, tmp / "tree")
            (tmp / "channels.scm").write_text(pin_text)
            (tmp / "manifest.scm").write_text(manifest_text)
            (tmp / "hashes.txt").write_text("".join(
                f"{label} {drv_hex} {out_hex}\n"
                for label, drv_hex, out_hex in sorted(hashes)))
            (tmp / "store-path").write_text(union_path.component + "\n")
            created = time.strftime("%Y-%m-%dT%H:%M:%S")
            (tmp / "created.txt").write_text(created + "\n")
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        os.rename(tmp, gen_dir)
        write_atomic(profile.root / "current", b"%d\n" % number)

    return Generation(number=number, profile_tree=union_path,
                      pin_text=pin_text, manifest_text=manifest_text,
                      drv_hashes=hashes, created_at=created)
