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
import os
import shutil
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


def _merge(union: carc.Dir, node: carc.Dir, provider: str,
           providers: dict, prefix: str = ""):
    for name, child in node.entries.items():
        path = f"{prefix}{name}"
        if name not in union.entries:
            union.entries[name] = child
            providers[path] = provider
            if isinstance(child, carc.Dir):
                # Nested entries inherit the provider for diagnostics.
                for sub in _walk_paths(child, path + "/"):
                    providers[sub] = provider
            continue
        existing = union.entries[name]
        if isinstance(existing, carc.Dir) and isinstance(child, carc.Dir):
            _merge(existing, child, provider, providers, path + "/")
        elif existing == child:
            pass  # byte-identical files merge silently
        else:
            raise ProfileCollision(path, providers.get(path, "?"), provider)


def _walk_paths(node: carc.Dir, prefix: str):
    for name, child in node.entries.items():
        yield prefix + name
        if isinstance(child, carc.Dir):
            yield from _walk_paths(child, prefix + name + "/")


def union_tree(outputs) -> carc.Dir:
    """Merge output trees; identical files collapse, conflicts are fatal."""
    union = carc.Dir()
    providers = {}
    for sp, node in outputs:
        if not isinstance(node, carc.Dir):
            # A single-file output occupies an entry named after the package.
            node = carc.Dir({sp.label: node})
        _merge(union, node, sp.component, providers)
    return union


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
    """Build every derivation, materialize the union, append a generation."""
    builder = Builder(store, archive=archive, options=options)
    outputs = []
    hashes = []
    member_paths = []
    for drv in derivations:
        sp = builder.build(drv)
        member_paths.append(sp)
        rec = store.get_record(sp)
        outputs.append((sp, carc.load_tree(sp.path)))
        hashes.append((drv.label, derivation_hash(drv).hex, rec.output_hash.hex))

    union = union_tree(outputs)
    union_path = store.add_fixed(union, "profile", references=member_paths)

    with locked(profile.root / "lock"):
        numbers = profile.generation_numbers()
        number = (numbers[-1] + 1) if numbers else 1
        gen_dir = profile.generation_dir(number)
        tmp = gen_dir.with_suffix(".tmp")
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        carc.write_tree(union, tmp / "tree")
        (tmp / "channels.scm").write_text(pin_text)
        (tmp / "manifest.scm").write_text(manifest_text)
        (tmp / "hashes.txt").write_text("".join(
            f"{label} {drv_hex} {out_hex}\n"
            for label, drv_hex, out_hex in sorted(hashes)))
        (tmp / "store-path").write_text(union_path.component + "\n")
        created = datetime.datetime.now().isoformat(timespec="seconds")
        (tmp / "created.txt").write_text(created + "\n")
        os.rename(tmp, gen_dir)
        (profile.root / "current").write_text(str(number) + "\n")

    return Generation(number=number, profile_tree=union_path,
                      pin_text=pin_text, manifest_text=manifest_text,
                      drv_hashes=hashes, created_at=created)
