"""Profiles: materialized unions of built packages, with generations.

A generation is an append-only snapshot: the union tree (registered as a
store item whose references are the member outputs) plus enough provenance
(pin text, manifest text, resolved hashes) to replay it bit-for-bit.  The
active generation is a mutable pointer; rollback just moves the pointer.

On disk: <profile>/generations/<n>/{tree, channels.scm, manifest.scm,
hashes.txt, created.txt}, <profile>/current (the active number).
"""

from __future__ import annotations

import datetime
import filecmp
import os
import shutil
import stat
from dataclasses import dataclass, field
from pathlib import Path

from . import carc
from .builder import BuildOptions, Builder
from .derivation import derivation_hash
from .errors import ProfileCollision, UnknownGeneration
from .store import Store, StorePath, locked


@dataclass
class Generation:
    number: int
    profile_tree: StorePath
    pin_text: str = ""
    manifest_text: str = ""
    drv_hashes: list = field(default_factory=list)  # (label, drvhash, outhash)
    created_at: str = ""  # display only, excluded from all hashes


def _same(a: str, b: str) -> bool:
    """Two non-directory entries merge silently when they are the same
    file (exec bit, then size, then bytes) or the same symlink."""
    sa, sb = os.lstat(a), os.lstat(b)
    if stat.S_ISREG(sa.st_mode) and stat.S_ISREG(sb.st_mode):
        return (not (sa.st_mode ^ sb.st_mode) & stat.S_IXUSR
                and filecmp.cmp(a, b, shallow=False))
    if stat.S_ISLNK(sa.st_mode) and stat.S_ISLNK(sb.st_mode):
        return os.readlink(a) == os.readlink(b)
    return False


def _is_dir(path: str) -> bool:
    return stat.S_ISDIR(os.lstat(path).st_mode)


def _owner(providers: dict, rel: str) -> str:
    """The provider of the entry at rel: recorded for rel or, for an entry
    that came in with a directory, for that directory."""
    parts = rel.split("/")
    for i in range(len(parts), 0, -1):
        owner = providers.get("/".join(parts[:i]))
        if owner is not None:
            return owner
    return "?"


def _merge(src: str, dest: str, rel: str, provider: str, providers: dict):
    if not os.path.lexists(dest):
        carc.copy(src, dest)
        providers[rel] = provider
    elif _is_dir(dest) and _is_dir(src):
        for name in sorted(os.listdir(src)):
            _merge(os.path.join(src, name), os.path.join(dest, name),
                   f"{rel}/{name}", provider, providers)
    elif not _same(dest, src):
        raise ProfileCollision(rel, _owner(providers, rel), provider)


def union_tree(outputs, dest):
    """Materialize at dest the union of output trees read from disk;
    outputs is a list of (StorePath, tree path) pairs.  Identical files
    and symlinks collapse; any other clash raises ProfileCollision.  A
    non-directory output occupies an entry named after its label."""
    os.mkdir(dest)
    os.chmod(dest, 0o755)
    providers = {}
    for sp, tree in outputs:
        tree = os.fspath(tree)
        if _is_dir(tree):
            entries = [(os.path.join(tree, n), n) for n in sorted(os.listdir(tree))]
        else:
            entries = [(tree, sp.label)]
        for src, name in entries:
            _merge(src, os.path.join(dest, name), name, sp.component, providers)


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
            (self.root / "current").write_text(str(number) + "\n")
            return number


def build_profile(derivations, store: Store, profile: Profile, *,
                  archive=None, options: BuildOptions | None = None,
                  pin_text: str = "", manifest_text: str = "") -> Generation:
    """Build every derivation, materialize the union, append a generation.

    The union is written once, into the new generation; it is copied into
    the store only when the store does not have it yet.
    """
    builder = Builder(store, archive=archive, options=options)
    hashes = []
    member_paths = []
    for drv in derivations:
        sp = builder.build(drv)
        member_paths.append(sp)
        rec = store.get_record(sp)
        hashes.append((drv.label, derivation_hash(drv).hex, rec.output_hash.hex))

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
            union_tree([(sp, sp.path) for sp in member_paths], tree)
            union_hash = carc.hash_path(tree)
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
            created = datetime.datetime.now().isoformat(timespec="seconds")
            (tmp / "created.txt").write_text(created + "\n")
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        os.rename(tmp, gen_dir)
        (profile.root / "current").write_text(str(number) + "\n")

    return Generation(number=number, profile_tree=union_path,
                      pin_text=pin_text, manifest_text=manifest_text,
                      drv_hashes=hashes, created_at=created)
