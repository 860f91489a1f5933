"""Hermetic execution of derivations.

Each build runs in a fresh scratch directory with a scrubbed environment:
exactly PATH (input bin dirs, input order), SOURCE_DATE_EPOCH=1, TZ=UTC,
LC_ALL=C and HOME pointing into the scratch, plus the derivation's own
declared env.  Steps only see the output tree under construction, the
fetched sources, and store items addressed by digest-prefixed component.

Isolation is contractual, not kernel-enforced: the step language cannot
escape the scratch directory, and exec is restricted to programs resolved
through the store.
"""

from __future__ import annotations

import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

from . import carc
from .archive import fetch_source
from .derivation import (Derivation, canonical_serialize, derivation_hash,
                         load_derivation)
from .errors import EscapedClosure, MicrofoldError, StepFailure
from .store import Store, StorePath

OUT_PLACEHOLDER = "@out@"


@dataclass
class BuildOptions:
    use_substitutes: bool = False
    archive_fallback: bool = True
    caches: list = field(default_factory=list)
    workers: int = 1


@dataclass
class RoundResult:
    round: int
    output_hash: str


@dataclass
class RebuildReport:
    rounds: list  # RoundResult per round
    deterministic: bool

    @property
    def distinct_hashes(self):
        return sorted({r.output_hash for r in self.rounds})


class Builder:
    def __init__(self, store: Store, archive=None, options: BuildOptions | None = None):
        self.store = store
        self.archive = archive
        self.options = options or BuildOptions()
        self._memo_lock = threading.Lock()
        self._drv_locks = {}
        self._exec_slots = threading.BoundedSemaphore(max(1, self.options.workers))

    # -- input resolution --------------------------------------------------

    def _drv_lock(self, hex_digest: str) -> threading.Lock:
        with self._memo_lock:
            return self._drv_locks.setdefault(hex_digest, threading.Lock())

    # -- public entry ------------------------------------------------------

    def build(self, drv: Derivation) -> StorePath:
        drv_hash = derivation_hash(drv)
        self.store.put_derivation(drv_hash, canonical_serialize(drv))
        target = StorePath(self.store.root, drv_hash.prefix, drv.label)

        with self._drv_lock(drv_hash.hex):
            if self.store.get_record(target) is not None:
                return target

            if self.options.use_substitutes and self.options.caches:
                from .substitute import fetch_substitute
                try:
                    return fetch_substitute(target, self.options.caches,
                                            self.store)
                except MicrofoldError:
                    pass  # fall back to building from source

            self._ensure_inputs(drv)
            source_paths = [
                fetch_source(src, self.store, self.archive,
                             archive_fallback=self.options.archive_fallback)
                for src in drv.sources
            ]
            return self._run(drv, drv_hash, target, source_paths)

    def _ensure_inputs(self, drv: Derivation):
        input_drvs = [load_derivation(self.store, i.derivation_hash)
                      for i in drv.inputs]
        if self.options.workers > 1 and len(input_drvs) > 1:
            threads = [threading.Thread(target=self.build, args=(d,))
                       for d in input_drvs]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # Re-run serially to surface any error from the threads.
        for d in input_drvs:
            self.build(d)

    # -- step execution ----------------------------------------------------

    def _roots(self, drv: Derivation, source_paths) -> dict:
        """Map first-path-component names to store directories."""
        roots = {}
        for src, sp in zip(drv.sources, source_paths):
            roots[src.label] = sp.path
        for inp in drv.inputs:
            idrv = load_derivation(self.store, inp.derivation_hash)
            isp = StorePath(self.store.root, inp.derivation_hash.prefix,
                            idrv.label)
            for member in self.store.closure(isp):
                roots[member.component] = member.path
        for seed in self.store.seeds():
            roots[seed.path.component] = seed.path.path
        return roots

    def _resolve(self, roots: dict, out: Path, path: str) -> Path:
        comp, _, rest = path.partition("/")
        if comp == "out":
            return out / rest if rest else out
        if comp in roots:
            return roots[comp] / rest if rest else roots[comp]
        # Last resort: a digest-prefixed component of any registered store
        # item.  Content is still pinned by the digest; the trust audit is
        # responsible for flagging items of unknown provenance.
        rec = self.store.get_record(comp) if "-" in comp else None
        if rec is not None:
            return rec.path.path / rest if rest else rec.path.path
        raise EscapedClosure(f"{path!r} does not resolve inside the build closure")

    def _run(self, drv: Derivation, drv_hash, target: StorePath,
             source_paths) -> StorePath:
        roots = self._roots(drv, source_paths)
        with self._exec_slots:
            scratch = Path(tempfile.mkdtemp(prefix="microfold-build-"))
            try:
                out = scratch / "out"
                out.mkdir()
                (scratch / "homeless").mkdir()
                # Expose the roots as symlinks so exec'd tools can reach
                # sources and inputs through cwd-relative paths.
                for root_name, root_dir in roots.items():
                    link = scratch / root_name
                    if not link.exists() and not link.is_symlink():
                        link.symlink_to(root_dir)
                env = self._env(drv, scratch)
                for index, step in enumerate(drv.steps):
                    try:
                        self._step(step, roots, out, scratch, env)
                    except EscapedClosure:
                        raise
                    except (MicrofoldError, OSError,
                            subprocess.SubprocessError) as e:
                        raise StepFailure(index, str(e)) from e
                node = carc.load_tree(out)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)

        references = self._scan_references(node, roots, source_paths)
        self.store.register_output(node, target, deriver=drv_hash,
                                   references=references)
        return target

    def _env(self, drv: Derivation, scratch: Path) -> dict:
        bin_dirs = []
        for inp in drv.inputs:
            idrv = load_derivation(self.store, inp.derivation_hash)
            isp = StorePath(self.store.root, inp.derivation_hash.prefix,
                            idrv.label)
            bin_dirs.append(str(isp.path / "bin"))
        env = {
            "PATH": ":".join(bin_dirs),
            "SOURCE_DATE_EPOCH": "1",
            "TZ": "UTC",
            "LC_ALL": "C",
            "HOME": str(scratch / "homeless"),
        }
        env.update(drv.env)
        return env

    def _step(self, step, roots, out: Path, scratch: Path, env: dict):
        """Run one step; _run turns its errors into StepFailure(index)."""
        op, args = step.op, step.args
        if op == "write":
            dest = out / args[0]
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(args[1])
        elif op == "mkdir":
            (out / args[0]).mkdir(parents=True, exist_ok=True)
        elif op == "copy":
            src = self._resolve(roots, out, args[0])
            if not src.exists() and not src.is_symlink():
                raise MicrofoldError(f"copy source missing: {args[0]}")
            dest = out / args[1]
            dest.parent.mkdir(parents=True, exist_ok=True)
            carc.write_tree(carc.load_tree(src), dest)
        elif op == "concat":
            parts = []
            for src in args[1:]:
                parts.append(self._resolve(roots, out, src).read_bytes())
            dest = out / args[0]
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(b"".join(parts))
        elif op == "substitute":
            path = out / args[0]
            path.write_bytes(path.read_bytes().replace(args[1], args[2]))
        elif op == "set-exec":
            path = out / args[0]
            path.chmod(path.stat().st_mode | 0o111)
        elif op == "exec":
            program = self._resolve(roots, out, args[0])
            if not program.exists():
                raise EscapedClosure(f"exec program missing: {args[0]}")
            argv = [str(program)]
            for a in args[1:]:
                argv.append(a.replace(OUT_PLACEHOLDER, str(out)))
            proc = subprocess.run(argv, cwd=scratch, env=env,
                                  capture_output=True)
            if proc.returncode != 0:
                raise MicrofoldError(
                    f"exec {args[0]} exited {proc.returncode}: "
                    f"{proc.stderr.decode(errors='replace')[:500]}")
        else:  # pragma: no cover - Step rejects unknown ops at construction
            raise MicrofoldError(f"unknown op {op}")

    def _scan_references(self, node, roots, source_paths) -> list:
        """Store paths whose digest prefix appears in the output bytes."""
        blobs = []

        def collect(n):
            if isinstance(n, carc.File):
                blobs.append(n.data)
            elif isinstance(n, carc.Symlink):
                blobs.append(n.target.encode())
            elif isinstance(n, carc.Dir):
                for child in n.entries.values():
                    collect(child)

        collect(node)
        haystack = b"\x00".join(blobs)
        candidates = {}
        for comp in roots:
            if "-" in comp and self.store.get_record(comp) is not None:
                candidates[comp] = comp.split("-", 1)[0].encode()
        for sp in source_paths:
            candidates[sp.component] = sp.digest_prefix.encode()
        refs = []
        for comp, prefix in sorted(candidates.items()):
            if prefix in haystack:
                refs.append(StorePath.from_component(self.store.root, comp))
        return refs


def build(drv: Derivation, store: Store, *, archive=None,
          options: BuildOptions | None = None) -> StorePath:
    return Builder(store, archive=archive, options=options).build(drv)


def _clone_trust_roots(src_store: Store, dst_store: Store):
    """Copy seeds and derivation bytes so scratch builds can run."""
    for rec in src_store.seeds():
        dst_store.add_fixed(carc.load_tree(rec.path.path), rec.path.label,
                            kind="seed", description=rec.description)
    drv_dir = src_store.root / "db" / "drvs"
    for entry in drv_dir.iterdir():
        (dst_store.root / "db" / "drvs" / entry.name).write_bytes(
            entry.read_bytes())


def check_rebuild(drv: Derivation, store: Store, rounds: int = 2, *,
                  archive=None, options: BuildOptions | None = None) -> RebuildReport:
    """Build `rounds` times into isolated scratch stores and compare hashes.

    The main store is never written to, so a nondeterministic derivation
    cannot pollute it.
    """
    if rounds < 2:
        raise ValueError("rounds must be >= 2")
    # Register the derivation bytes (metadata only) so clones can see it.
    store.put_derivation(derivation_hash(drv), canonical_serialize(drv))
    results = []
    for rnd in range(1, rounds + 1):
        scratch_root = tempfile.mkdtemp(prefix="microfold-check-")
        try:
            scratch_store = Store(scratch_root)
            _clone_trust_roots(store, scratch_store)
            path = build(drv, scratch_store, archive=archive, options=options)
            rec = scratch_store.get_record(path)
            results.append(RoundResult(rnd, rec.output_hash.hex))
        finally:
            shutil.rmtree(scratch_root, ignore_errors=True)
    deterministic = len({r.output_hash for r in results}) == 1
    return RebuildReport(rounds=results, deterministic=deterministic)
