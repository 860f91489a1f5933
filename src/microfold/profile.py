"""Profiles: materialized unions of built packages, with generations.

A generation is an append-only snapshot: the union tree (registered as a
store item whose references are the member outputs) plus enough provenance
(pin text, manifest text, resolved hashes) to replay it bit-for-bit.  The
active generation is a mutable pointer; rollback just moves the pointer.

On disk: <profile>/generations/<n>/{tree, channels.scm, manifest.scm,
hashes.txt, created.txt}, <profile>/current (the active number).
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
from .errors import ProfileCollision, UnknownGeneration
from .hashing import ContentHash
from .store import Store, StorePath, locked, write_atomic


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


def _merge_dir(children: dict, dest: bytes, rel: str, emit):
    for name, sub in carc.directory(sorted(children), dest, emit):
        _merge(children[name], sub, rel + os.fsdecode(name), emit)


def _merge(entries: list, dest: bytes, rel: str, emit):
    """Emit, and create at dest, the union of entries, the (path, provider)
    pairs at rel in member order.  The first provider owns the entry; a
    later one may only add to its directory or repeat its file."""
    first, owner = entries[0]
    if len(entries) > 1 and _is_dir(first):
        children = {}
        for path, provider in entries:
            if not _is_dir(path):
                raise ProfileCollision(rel, owner, provider)
            _add_entries(children, path, provider)
        _merge_dir(children, dest, rel + "/", emit)
        return
    for path, provider in entries[1:]:
        if not _same(first, path):
            raise ProfileCollision(rel, owner, provider)
    carc.walk(first, dest, emit)


def union_tree(outputs, dest) -> ContentHash:
    """Materialize at dest the union of output trees read from disk, and
    return its CARC hash, streamed in the same pass; outputs is a list of
    (StorePath, tree path) pairs.  Identical files and symlinks collapse;
    any other clash raises ProfileCollision.  A non-directory output
    occupies an entry named after its label."""
    top = {}
    for sp, tree in outputs:
        tree = os.fsencode(tree)
        if _is_dir(tree):
            _add_entries(top, tree, sp.component)
        else:
            top.setdefault(sp.label.encode(), []).append((tree, sp.component))
    union_hash, _ = carc.hashed(
        lambda emit: _merge_dir(top, os.fsencode(dest), "", emit))
    return union_hash


class Profile:
    def __init__(self, root):
        self.root = Path(root)
        (self.root / "generations").mkdir(parents=True, exist_ok=True)

    def generation_numbers(self) -> list:
        out = []
        for entry in (self.root / "generations").iterdir():
            if entry.name.isdigit():
                out.append(int(entry.name))
        return sorted(out)

    def current(self) -> int | None:
        cur = self.root / "current"
        if not cur.exists():
            return None
        return int(cur.read_text().strip())

    def generation_dir(self, number: int) -> Path:
        return self.root / "generations" / str(number)

    def generation_store_component(self, number: int) -> str:
        return (self.generation_dir(number) / "store-path").read_text().strip()

    def rollback(self, number: int) -> int:
        with locked(self.root / "lock"):
            if number not in self.generation_numbers():
                raise UnknownGeneration(str(number))
            write_atomic(self.root / "current", b"%d\n" % number)
            return number


def build_profile(derivations, store: Store, profile: Profile, *,
                  archive=None, options: BuildOptions | None = None,
                  pin_text: str = "", manifest_text: str = "") -> Generation:
    """Build every derivation, given as (drv, drv_hash) pairs whose bytes
    the store holds, materialize the union, append a generation.

    The union is written once, into the new generation, and hashed in the
    same pass; it is copied into the store only when the store does not
    have it yet.
    """
    builder = Builder(store, archive=archive, options=options)
    hashes = []
    member_paths = []
    for drv, drv_hash in derivations:
        sp = builder.build(drv, drv_hash)
        member_paths.append(sp)
        rec = store.get_record(sp)
        hashes.append((drv.label, drv_hash.hex, rec.output_hash.hex))

    with locked(profile.root / "lock"):
        numbers = profile.generation_numbers()
        number = (numbers[-1] + 1) if numbers else 1
        gen_dir = profile.generation_dir(number)
        tmp = gen_dir.with_suffix(".tmp")
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        try:
            tree = tmp / "tree"
            union_hash = union_tree([(sp, sp.path) for sp in member_paths], tree)
            union_path = StorePath(store.root, union_hash.prefix, "profile")
            rec = store.get_record(union_path)
            if rec is None or rec.output_hash != union_hash:
                union_path = store.add_fixed(tree, "profile",
                                             references=member_paths)
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
