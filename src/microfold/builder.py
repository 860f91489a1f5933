"""Hermetic execution of derivations.

Each build runs in a fresh scratch directory under <store>/tmp with a
scrubbed environment:
exactly PATH (input bin dirs, input order), SOURCE_DATE_EPOCH=1, TZ=UTC,
LC_ALL=C and HOME pointing into the scratch, plus the derivation's own
declared env.  Steps only see the output tree under construction, the
fetched sources, and store items addressed by digest-prefixed component.

Isolation is contractual, not kernel-enforced: the step language cannot
escape the scratch directory, and exec is restricted to programs resolved
through the store.

When the steps are done, the output directory is given canonical mode bits,
then hashed in one streaming pass that also scans it for references, and
renamed into the store.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import tempfile
import threading
from pathlib import Path
from typing import NamedTuple

from . import carc
from .archive import fetch_source
from .derivation import Derivation, canonical_serialize, load_derivation
from .errors import EscapedClosure, MicrofoldError, StepFailure
from .hashing import PREFIX_LEN, ContentHash
from .store import Staged, Store, StorePath

OUT_PLACEHOLDER = "@out@"


def __getattr__(name):
    """`subprocess`, imported on first use: most builds run no exec step."""
    if name != "subprocess":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import subprocess
    globals()["subprocess"] = subprocess
    return subprocess


class BuildOptions(NamedTuple):
    use_substitutes: bool = False
    archive_fallback: bool = True
    caches: tuple = ()  # substitute cache locations, tried in order
    workers: int = 1


class RoundResult(NamedTuple):
    round: int
    output_hash: str


class RebuildReport(NamedTuple):
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

    def build(self, drv: Derivation, drv_hash=None) -> StorePath:
        """Build drv; drv_hash, if given, names the bytes the store holds
        for it, else they are serialized and registered here."""
        if drv_hash is None:
            data = canonical_serialize(drv)
            drv_hash = ContentHash.of_bytes(data)
            self.store.put_derivation(drv_hash, data)
        return self._build(drv, drv_hash)

    def _build(self, drv: Derivation, drv_hash) -> StorePath:
        """Build drv, whose bytes are registered under drv_hash."""
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

            input_paths = self._ensure_inputs(drv)
            source_paths = [
                fetch_source(src, self.store, self.archive,
                             archive_fallback=self.options.archive_fallback)
                for src in drv.sources
            ]
            return self._run(drv, drv_hash, target, source_paths, input_paths)

    def _ensure_inputs(self, drv: Derivation) -> list:
        """Build every input; their store paths, in input order."""
        inputs = [(load_derivation(self.store, i.derivation_hash),
                   i.derivation_hash) for i in drv.inputs]
        if self.options.workers > 1 and len(inputs) > 1:
            threads = [threading.Thread(target=self._build, args=i)
                       for i in inputs]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # Re-run serially to surface any error from the threads.
        return [self._build(d, h) for d, h in inputs]

    # -- step execution ----------------------------------------------------

    def _roots(self, drv: Derivation, source_paths, input_paths):
        """Map first-path-component names to store directories.  Also
        returns the store items among the roots (the inputs' closures and
        the seeds), by component."""
        items = {}
        for isp in input_paths:
            for member in self.store.closure(isp):
                items[member.component] = member
        for seed in self.store.seeds():
            items[seed.path.component] = seed.path
        roots = {src.label: sp.path
                 for src, sp in zip(drv.sources, source_paths)}
        roots.update((c, p.path) for c, p in items.items())
        return roots, items

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
             source_paths, input_paths) -> StorePath:
        roots, items = self._roots(drv, source_paths, input_paths)
        with self._exec_slots, self.store.scratch() as scratch:
            out = scratch / "out"
            out.mkdir()
            (scratch / "homeless").mkdir()
            # Expose the roots as symlinks so exec'd tools can reach
            # sources and inputs through cwd-relative paths.  The other
            # steps resolve paths through `roots` and never read them.
            if any(step.op == "exec" for step in drv.steps):
                for root_name, root_dir in roots.items():
                    link = scratch / root_name
                    if not link.exists() and not link.is_symlink():
                        link.symlink_to(root_dir)
            env = self._env(drv, scratch, input_paths)
            for index, step in enumerate(drv.steps):
                try:
                    self._step(step, roots, out, scratch, env)
                except EscapedClosure:
                    raise
                except (MicrofoldError, OSError) as e:
                    raise StepFailure(index, drv.label, str(e)) from e
            carc.set_modes(out)
            candidates = dict(items)
            candidates.update((sp.component, sp) for sp in source_paths)
            output, references = _hash_and_scan(out, candidates)
            self.store.register_output(output, target, deriver=drv_hash,
                                       references=references)
        return target

    def _env(self, drv: Derivation, scratch: Path, input_paths) -> dict:
        env = {
            "PATH": ":".join(str(isp.path / "bin") for isp in input_paths),
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
            carc.copy(src, dest)
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
            # Read through the module, so that a tracer which replaces
            # `builder.subprocess` sees every exec.
            subprocess = sys.modules[__name__].subprocess
            try:
                proc = subprocess.run(argv, cwd=scratch, env=env,
                                      capture_output=True)
            except subprocess.SubprocessError as e:
                raise MicrofoldError(str(e)) from e
            if proc.returncode != 0:
                raise MicrofoldError(
                    f"exec {args[0]} exited {proc.returncode}: "
                    f"{proc.stderr.decode(errors='replace')[:500]}")
        else:  # pragma: no cover - Step rejects unknown ops at construction
            raise MicrofoldError(f"unknown op {op}")


def _hash_and_scan(out: Path, candidates: dict) -> tuple[Staged, list]:
    """Hash the output tree and find the candidate store paths (by
    component) whose digest prefix appears in its archive, in one pass.
    Each block is searched for every prefix not yet found, together with
    the last PREFIX_LEN - 1 bytes of the block before it."""
    by_prefix = {}
    for sp in candidates.values():
        by_prefix.setdefault(sp.digest_prefix.encode(), []).append(sp)
    found = []
    sha = hashlib.sha256()
    tail = b""

    def write(block):
        nonlocal tail
        sha.update(block)
        window = tail + block
        for prefix in [p for p in by_prefix if p in window]:
            found.extend(by_prefix.pop(prefix))
        tail = window[-(PREFIX_LEN - 1):]

    size = carc.dump(out, write)
    references = sorted(found, key=lambda sp: sp.component)
    return Staged(out, ContentHash(sha.hexdigest()), size), references


def build(drv: Derivation, store: Store, *, archive=None,
          options: BuildOptions | None = None) -> StorePath:
    return Builder(store, archive=archive, options=options).build(drv)


def check_rebuild(drv: Derivation, store: Store, rounds: int = 2, *,
                  archive=None, options: BuildOptions | None = None) -> RebuildReport:
    """Build `rounds` times into isolated scratch stores and compare hashes.

    Each scratch store reads the main store's seeds, sources and
    derivations in place but rebuilds every derived item; the main store
    is never written to, so a nondeterministic derivation cannot pollute
    it.
    """
    if rounds < 2:
        raise ValueError("rounds must be >= 2")
    results = []
    for rnd in range(1, rounds + 1):
        scratch_root = tempfile.mkdtemp(prefix="microfold-check-")
        try:
            scratch_store = Store(scratch_root, base=store)
            path = build(drv, scratch_store, archive=archive, options=options)
            rec = scratch_store.get_record(path)
            results.append(RoundResult(rnd, rec.output_hash.hex))
        finally:
            shutil.rmtree(scratch_root, ignore_errors=True)
    deterministic = len({r.output_hash for r in results}) == 1
    return RebuildReport(rounds=results, deterministic=deterministic)
