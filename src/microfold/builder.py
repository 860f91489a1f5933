"""Hermetic execution of derivations.

A derivation is built by its hash, whose bytes the store holds
(`Builder.build`); only the helper `build` takes a `Derivation`, and it
registers it first.

Each build runs in a fresh scratch directory under <store>/tmp.  Its exec
steps get a scrubbed environment: exactly PATH (the inputs' bin dirs, in
the canonical order of the derivation's inputs, by hash), SOURCE_DATE_EPOCH=1,
TZ=UTC, LC_ALL=C and HOME pointing into the scratch, plus the derivation's
own declared env.  Steps only see the output tree under construction, the
fetched sources, and store items addressed by digest-prefixed component.

Isolation is contractual, not kernel-enforced: the step language cannot
escape the scratch directory (nor read through a symlink out of the output
and the store, nor write through one out of the output), and exec is
restricted to programs resolved through the store.
Without exec steps, whose tools may write into a file in place, `copy`
links trees (carc.link): no other step writes through a file it replaces.

When the steps are done, one streaming walk of the output gives it canonical
mode bits, hashes it and scans it for references; then it is renamed into
the store.
"""

from __future__ import annotations

import heapq
import os
import stat
import sys
import threading
from pathlib import Path
from typing import NamedTuple

from . import carc
from .archive import fetch_source
from .derivation import Derivation, load_derivation, output_path, register_derivation
from .errors import EscapedClosure, MicrofoldError, StepFailure
from .hashing import PREFIX_LEN, ContentHash
from .store import Staged, Store, StorePath, postorder

OUT_PLACEHOLDER = "@out@"


def __getattr__(name):
    """`subprocess`, imported on first use: most builds run no exec step."""
    if name != "subprocess":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import subprocess
    globals()["subprocess"] = subprocess
    return subprocess


class BuildOptions(NamedTuple):
    caches: tuple = ()  # substitute cache locations, tried in order
    workers: int = 1


class RoundResult(NamedTuple):
    round: int
    output_hash: str


class RebuildReport(NamedTuple):
    rounds: list  # RoundResult per round
    deterministic: bool


class Builder:
    def __init__(self, store: Store, archive=None, options: BuildOptions | None = None):
        self.store = store
        self.archive = archive
        self.options = options or BuildOptions()

    # -- public entry ------------------------------------------------------

    def build(self, drv_hashes) -> list:
        """Build each derivation that drv_hashes name, whose bytes the store
        holds, and the inputs the store lacks, in one schedule: planned by
        one walk of the graph on this thread (_plan), then run (_schedule).
        Their store paths, in order."""
        paths, todo = self._plan(drv_hashes)
        if todo:
            self._schedule(todo)
        return [paths[drv_hash] for drv_hash in drv_hashes]

    # -- scheduling --------------------------------------------------------

    def _plan(self, drv_hashes):
        """The store path of every derivation that drv_hashes reach, and
        what to build, as drv_hash -> the arguments of _run: each derivation
        the store lacks and no cache installs, after its inputs, in the
        order of one post-order walk of drv.inputs (store.postorder).  The
        inputs of a derivation that is not built are not walked."""
        paths, needed, todo = {}, {}, {}
        refused = set()  # items that no fetch of this plan can install

        def inputs(drv_hash):
            target = paths[drv_hash] = output_path(self.store, drv_hash)
            if self.store.get_record(target) is not None:
                return ()
            if self.options.caches:
                from .substitute import fetch_substitute
                try:
                    fetch_substitute(target, self.options.caches, self.store,
                                     refused)
                    return ()
                except MicrofoldError:
                    pass  # fall back to building from source
            drv = needed[drv_hash] = load_derivation(self.store, drv_hash)
            return [i.derivation_hash for i in drv.inputs]

        for drv_hash in postorder(drv_hashes, inputs):
            if (drv := needed.get(drv_hash)) is not None:
                todo[drv_hash] = (drv, drv_hash, paths[drv_hash],
                                  [paths[i.derivation_hash] for i in drv.inputs])
        return paths, todo

    def _schedule(self, todo: dict):
        """Run each node of todo once its inputs in todo are built, the
        earliest planned first, on min(workers, len(todo)) threads.  After
        the first failure no node starts; it is raised once the running
        ones end."""
        order = {h: n for n, h in enumerate(todo)}
        nodes = list(todo.values())
        waiting = [0] * len(nodes)
        dependents = [[] for _ in nodes]
        for n, (drv, *_) in enumerate(nodes):
            for i in {order.get(r.derivation_hash) for r in drv.inputs} - {None}:
                waiting[n] += 1
                dependents[i].append(n)
        ready = [n for n, count in enumerate(waiting) if not count]  # a heap
        changed = threading.Condition()
        failure, running = None, 0

        def work():
            nonlocal failure, running
            while True:
                with changed:
                    changed.wait_for(lambda: failure or ready or not running)
                    if failure or not ready:
                        return
                    n = heapq.heappop(ready)
                    running += 1
                error = None
                try:
                    self._run(*nodes[n])
                except BaseException as e:  # raised by the calling thread
                    error = e
                with changed:
                    running -= 1
                    failure = failure or error
                    for m in dependents[n]:
                        waiting[m] -= 1
                        if not waiting[m]:
                            heapq.heappush(ready, m)
                    changed.notify_all()

        threads = [threading.Thread(target=work, daemon=True)  # so ^C exits
                   for _ in range(min(self.options.workers, len(nodes)))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if failure:
            raise failure

    # -- step execution ----------------------------------------------------

    def _roots(self, sources, source_paths, input_paths):
        """Map first-path-component names to store directories.  Also
        returns the store items among the roots (the inputs' closures,
        collected in one walk, and the seeds), by component."""
        items = {c: rec.path for c, rec in self.store.members(input_paths).items()}
        for seed in self.store.seeds():
            items[seed.path.component] = seed.path
        roots = {src.label: sp.path for src, sp in zip(sources, source_paths)}
        roots.update((c, p.path) for c, p in items.items())
        return roots, items

    def _resolve(self, roots: dict, out: Path, path: str, last=True) -> Path:
        """The file a step's path names.  A symlink on the way to it (or
        it, with last) must not lead out of out and the store's items."""
        comp, _, rest = path.partition("/")
        top = out if comp == "out" else roots.get(comp)
        if top is None:
            # Last resort: a digest-prefixed component of any registered
            # store item.  Content is still pinned by the digest; the trust
            # audit is responsible for flagging items of unknown provenance.
            rec = self.store.get_record(comp) if "-" in comp else None
            if rec is None:
                raise EscapedClosure(f"{path!r} does not resolve inside the build closure")
            top = rec.path.path
        parts = rest.split("/") if rest else []
        if parts or last:  # else it is a whole item, copied as it is
            _within(path, top, parts if last else parts[:-1], out,
                    *(f"{s.root}/items" for s in (self.store, self.store.base) if s))
        return top.joinpath(*parts)

    def _run(self, drv: Derivation, drv_hash, target: StorePath,
             input_paths) -> StorePath:
        source_paths = [fetch_source(src, self.store, self.archive)
                        for src in drv.sources]
        roots, items = self._roots(drv.sources, source_paths, input_paths)
        with self.store.scratch() as scratch:
            out = scratch / "out"
            out.mkdir()
            execs = any(step.op == "exec" for step in drv.steps)
            env = None
            if execs:
                (scratch / "homeless").mkdir()
                # Expose the roots as symlinks so exec'd tools can reach
                # sources and inputs through cwd-relative paths.  The other
                # steps resolve paths through `roots` and never read them.
                for root_name, root_dir in roots.items():
                    link = scratch / root_name
                    if not link.exists() and not link.is_symlink():
                        link.symlink_to(root_dir)
                env = {"PATH": ":".join(str(isp.path / "bin") for isp in input_paths),
                       "SOURCE_DATE_EPOCH": "1", "TZ": "UTC", "LC_ALL": "C",
                       "HOME": str(scratch / "homeless")} | drv.env
            for index, step in enumerate(drv.steps):
                try:
                    self._step(step, roots, out, scratch, env, not execs)
                except EscapedClosure:
                    raise
                except (MicrofoldError, OSError) as e:
                    raise StepFailure(index, drv.label, str(e)) from e
            output, references = _hash_and_scan(
                out, items | {sp.component: sp for sp in source_paths})
            self.store.register_output(output, target, deriver=drv_hash,
                                       references=references)
        return target

    def _step(self, step, roots, out: Path, scratch: Path, env, link: bool):
        """Run one step (copy links with link); _run turns its errors into
        StepFailure(index)."""
        op, args = step.op, step.args
        if op == "write":
            _replace(_dest(out, args[0]), args[1])
        elif op == "mkdir":
            _dest(out, args[0]).mkdir(exist_ok=True)
        elif op == "copy":
            src = self._resolve(roots, out, args[0], last=False)
            if not os.path.lexists(src):
                raise MicrofoldError(f"copy source missing: {args[0]}")
            dest = _dest(out, args[1])
            dest.unlink(missing_ok=True)  # a directory stays, and fails
            (carc.link if link else carc.copy)(src, dest)
        elif op == "concat":
            data = b"".join(self._resolve(roots, out, src).read_bytes()
                            for src in args[1:])
            _replace(_dest(out, args[0]), data)
        elif op == "substitute":
            data = self._resolve(roots, out, "out/" + args[0]).read_bytes()
            _replace(_dest(out, args[0]), data.replace(args[1], args[2]))
        elif op == "set-exec":
            path = _dest(out, args[0])
            st = os.lstat(path)
            if stat.S_ISLNK(st.st_mode):
                raise MicrofoldError(f"set-exec on a symlink: {args[0]}")
            if stat.S_ISREG(st.st_mode) and st.st_nlink > 1:  # shared
                carc.copy(path, scratch / "~fresh")
                os.replace(scratch / "~fresh", path)
            path.chmod(st.st_mode | 0o111)
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


def _dest(out: Path, rel: str) -> Path:
    """out/rel, for a step to create or replace, with its parent made.  A
    symlink on the way, copied into out, must not resolve outside it."""
    _within(rel, out, rel.split("/")[:-1], out)
    dest = out / rel
    dest.parent.mkdir(parents=True, exist_ok=True)
    return dest


def _within(name: str, top: Path, parts: list, *tops):
    """Raise EscapedClosure unless top/parts, symlinks resolved, lies in one
    of tops (resolved too).  Only a symlink on the way costs a realpath."""
    if any(os.path.islink(os.path.join(top, *parts[:i])) for i in range(len(parts) + 1)):
        real = os.path.realpath(os.path.join(top, *parts))
        if not any(os.path.commonpath([real, t]) == t for t in map(os.path.realpath, tops)):
            raise EscapedClosure(f"{name!r} leads out of the build through a symlink")


def _replace(path: Path, data: bytes):
    """Write data to path as a new file, not through the file there (which
    may share its inode with a store item; its mode is kept) or symlink."""
    mode = os.lstat(path).st_mode if os.path.lexists(path) else 0
    if mode:
        os.unlink(path)
    path.write_bytes(data)
    if stat.S_ISREG(mode):
        path.chmod(stat.S_IMODE(mode))


def _hash_and_scan(out: Path, candidates: dict) -> tuple[Staged, list]:
    """Give the output tree canonical modes, hash it and find the candidate
    store paths (by component) whose digest prefix is in its archive, in one
    walk: carc.dump hashes the archive, and the reference scan is the only
    consumer of its blocks.  Each block is searched for every prefix not
    yet found, together with the last PREFIX_LEN - 1 bytes of the block
    before it."""
    by_prefix = {}
    for sp in candidates.values():
        by_prefix.setdefault(sp.digest_prefix.encode(), []).append(sp)
    found = []
    tail = b""

    def scan(block):
        nonlocal tail
        window = tail + block
        for prefix in [p for p in by_prefix if p in window]:
            found.extend(by_prefix.pop(prefix))
        tail = window[-(PREFIX_LEN - 1):]

    staged = Staged(out, *carc.dump(out, scan, settle=True))
    return staged, sorted(found, key=lambda sp: sp.component)


def build(drv: Derivation, store: Store, *, archive=None,
          options: BuildOptions | None = None) -> StorePath:
    """Register drv in the store (register_derivation), then build it."""
    return Builder(store, archive=archive, options=options).build(
        [register_derivation(store, drv)])[0]


def rebuild_output_hash(drv_hash: ContentHash, store: Store, *, archive=None,
                        workers: int = 1) -> str:
    """The output hash (hex) of the derivation that drv_hash names, from a
    build into a scratch store, removed afterwards.  It reads the main
    store's seeds, sources and derivations in place but rebuilds every
    derived item; the main store's items and records are never written to,
    so a nondeterministic derivation cannot pollute it.  The scratch store
    lies under <store>/tmp (Store.scratch), on the main store's filesystem,
    so its copy steps can link files rather than copy them.  It never
    substitutes: a rebuild that downloaded would compare downloads."""
    with store.scratch() as scratch_root:
        scratch_store = Store(scratch_root, base=store)
        [path] = Builder(scratch_store, archive=archive,
                         options=BuildOptions(workers=workers)).build([drv_hash])
        return scratch_store.get_record(path).output_hash.hex


def check_rebuild(drv_hash: ContentHash, store: Store, rounds: int = 2, *,
                  archive=None, workers: int = 1) -> RebuildReport:
    """Rebuild the derivation that drv_hash names `rounds` times, each in a
    fresh scratch store, and compare the output hashes."""
    if rounds < 2:
        raise ValueError("rounds must be >= 2")
    results = [RoundResult(rnd, rebuild_output_hash(drv_hash, store, archive=archive,
                                                    workers=workers))
               for rnd in range(1, rounds + 1)]
    deterministic = len({r.output_hash for r in results}) == 1
    return RebuildReport(rounds=results, deterministic=deterministic)
