"""microfold benchmark: one workload, one seed, whole rounds of user operations.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 38 --trace 0

Every round sets up fresh inputs and state, then runs the same operations,
each in a fresh child process the way a user runs the CLI: cold `package -m`,
warm `package -m`, publish to a binary cache, substitute over HTTP into an
empty store, upgrade to channel revision r2, `time-machine` replay of the r1
pin, and `build --check 2`.  Rounds repeat while another one fits in
--seconds.  Every operation's outputs are checked against bytes and hashes
the benchmark computes itself (workloads.py, refcarc.py).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics, the medians over the run.  --trace 0 gives the end-to-end metrics
of BENCHMARK.json; --trace 1 runs every operation under spans.py and gives
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import refcarc
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PREFIX = "perfbench-"
OP_TIMEOUT_S = 150
MIB = 1 << 20


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def state_parent() -> Path:
    """Where run state lives: the machine's memory-backed /dev/shm when it is
    writable, else a directory inside the checkout.  On a disk file system
    the program's many small file operations make timings unsteady."""
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK | os.X_OK):
        return shm
    parent = ROOT / ".perfbench-state"
    parent.mkdir(exist_ok=True)
    return parent


def sweep_stale_roots(parent: Path):
    """Remove state roots left by benchmark processes that no longer run."""
    for entry in parent.iterdir():
        m = re.fullmatch(PREFIX + r"(\d+)-.*", entry.name)
        if not m:
            continue
        try:
            os.kill(int(m.group(1)), 0)
        except ProcessLookupError:
            shutil.rmtree(entry, ignore_errors=True)
        except PermissionError:
            pass


def reference_figures() -> str:
    """Machine speed, measured apart from the program: raw SHA-256 and a
    fixed pure-Python loop."""
    buf = bytes(4 * MIB)
    t = time.perf_counter()
    h = hashlib.sha256()
    for _ in range(16):
        h.update(buf)
    sha_mib_s = 64 / (time.perf_counter() - t)
    t = time.perf_counter()
    sum(i * i for i in range(1_000_000))
    loop_s = time.perf_counter() - t
    return f"reference: sha256_mib_s={sha_mib_s:.1f} pyloop_s={loop_s:.4f}"


def file_sha256(path) -> tuple[str, int]:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest(), os.fstat(f.fileno()).st_size


def tree_files(root: Path) -> dict:
    """Relative path -> bytes of every regular file under root."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = Path(dirpath) / name
            out[path.relative_to(root).as_posix()] = path.read_bytes()
    return out


def apparent_size(root: Path) -> int:
    total = 0
    for dirpath, _, files in os.walk(root):
        for name in files:
            total += os.lstat(os.path.join(dirpath, name)).st_size
    return total


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


class Round:
    """One set-up plus one pass over the operation sequence, in a fresh root."""

    def __init__(self, wl, trace: bool, parent: Path):
        self.wl, self.trace = wl, trace
        self.root = Path(tempfile.mkdtemp(prefix=f"{PREFIX}{os.getpid():08d}-",
                                          dir=parent))
        r = self.root
        self.inputs, self.state, self.logs = r / "inputs", r / "state", r / "logs"
        for d in (self.inputs, self.state, self.logs, r / "tmp", r / "home"):
            d.mkdir()
        s = self.state
        self.store, self.profile = s / "store", s / "profile"
        self.channel, self.archive, self.cache = s / "channel", s / "archive", s / "cache"
        self.subs = [(s / f"store-sub{i}", s / f"profile-sub{i}")
                     for i in range(wl.repeats["substitute"])]
        self.manifest, self.pin = self.inputs / "manifest.scm", self.inputs / "r1.scm"
        self.seed_dir = self.inputs / "seed"
        self.env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                    "HOME": str(r / "home"), "TMPDIR": str(r / "tmp"),
                    "PYTHONPATH": str(SRC), "LC_ALL": "C.UTF-8"}
        self.workers = ["--workers", str(wl.workers)] if wl.workers > 1 else []
        self.server = None
        self.seq = 0
        self.samples = defaultdict(list)   # metric -> seconds per operation
        self.layers = defaultdict(list)    # operation -> trace summaries
        self.attempted = self.failed = 0
        self.correct = True
        self.peak_rss_kib = 0
        self.verified = defaultdict(set)   # store root -> components re-hashed
        self.generation = 0
        self.gen1, self.after = None, {}   # set by the cold and upgrade checks

    # -- processes ---------------------------------------------------------

    def child(self, argv, label, traced=False):
        """Run op.py in a fresh process.

        Returns seconds, exit code, stdout, peak RSS in KiB and trace file."""
        self.seq += 1
        stem = self.logs / f"{self.seq:03d}-{label}"
        env = dict(self.env)
        trace_file = None
        if traced and self.trace:
            trace_file = stem.with_suffix(".trace.json")
            env.update(PERFBENCH_TRACE=str(trace_file), PERFBENCH_OP=label)
        with open(stem.with_suffix(".out"), "wb") as out, \
                open(stem.with_suffix(".err"), "wb") as err:
            env["PERFBENCH_SPAWN"] = repr(time.monotonic())
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "op.py"), *argv],
                                    stdout=out, stderr=err, env=env, cwd=self.root)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        # wait4 reaped the child; tell Popen so it never waits for it again.
        code = proc.returncode = os.waitstatus_to_exitcode(status)
        text = stem.with_suffix(".out").read_text()
        if code != 0:
            sys.stderr.write(stem.with_suffix(".err").read_text()[-2000:])
        return seconds, code, text, usage.ru_maxrss, trace_file

    def op(self, metric, argv, check):
        """One timed operation; it fails on a non-zero exit or a failed check."""
        self.attempted += 1
        # Start every operation with no writes or discards of earlier ones
        # pending on the file system, so it pays only for its own.
        os.sync()
        seconds, code, out, rss_kib, trace_file = self.child(argv, metric, traced=True)
        self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
        try:
            expect(code == 0, f"exit code {code}")
            extra = check(out) or {}
        except Exception as e:
            # Any error while checking an operation's outputs fails that
            # operation; the run goes on to attempt the rest of the round.
            print(f"perfbench: {metric} failed: {type(e).__name__}: {e}",
                  file=sys.stderr)
            self.failed += 1
            if code == 0:
                self.correct = False
            return
        self.samples[metric].append(seconds)
        if trace_file is not None:
            summary = spans.summarize(json.loads(trace_file.read_text()))
            summary.update(extra)
            self.layers[metric.removesuffix("_s")].append(summary)

    def cli(self, *args, store=None):
        return ["cli", "--store", str(store or self.store), "--channel-repo",
                str(self.channel), "--archive", str(self.archive), *args]

    def package(self, profile, *extra, store=None):
        return self.cli("package", "-m", str(self.manifest), "-p", str(profile),
                        *extra, *self.workers, store=store)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        from microfold.bootstrap import register_seed
        from microfold.channel import ChannelRepo
        from microfold.store import Store
        from workloads import SEED_LABEL, write_seed

        t0 = time.perf_counter()
        self.wl.make_inputs(self.inputs)
        write_seed(self.seed_dir)
        for store in [self.store] + [s for s, _ in self.subs]:
            register_seed(Store(store), self.seed_dir, SEED_LABEL)
        self.repo = ChannelRepo(self.channel)
        self.r1 = self.repo.commit_revision(self.wl.packages(1), message="r1")
        specs = " ".join(f'"{name}"' for name in self.wl.manifest())
        self.manifest.write_text(f"(specifications->manifest '({specs}))\n")
        _, code, out, _, _ = self.child(self.cli("describe", "-f", "channels"), "pin")
        expect(code == 0 and self.r1.id.hex in out, "describe -f channels")
        self.pin.write_text(out)
        self.cache.mkdir()
        self.server = subprocess.Popen(
            [sys.executable, "-u", "-m", "http.server", "0", "--bind", "127.0.0.1",
             "--directory", str(self.cache)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env,
            cwd=self.root)
        ready, _, _ = select.select([self.server.stdout], [], [], 30)
        line = self.server.stdout.readline().decode() if ready else ""
        port = re.search(r" port (\d+)", line)
        expect(port is not None, f"cache server did not start: {line!r}")
        self.url = f"http://127.0.0.1:{port.group(1)}"
        seconds = time.perf_counter() - t0
        hex_digest, _ = refcarc.digest(self.seed_dir)
        self.seed_comp = f"{hex_digest[:32]}-{SEED_LABEL}"
        return seconds

    def close(self):
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
        shutil.rmtree(self.root, ignore_errors=True)

    # -- independent checks ------------------------------------------------

    def record(self, store: Path, comp: str) -> dict:
        return refcarc.read_fields(store / "db" / "items" / comp)

    def verify_store(self, store: Path) -> float:
        """Re-hash every item not yet checked; MiB of CARC they hold."""
        done = self.verified[store]
        new_mib = 0.0
        for entry in sorted((store / "db" / "items").iterdir()):
            if entry.name in done:
                continue
            rec = refcarc.read_fields(entry)
            actual = refcarc.digest(store / "items" / entry.name)
            expect(actual == (rec["outputhash"], int(rec["size"])),
                   f"{entry.name}: record {rec['outputhash']} {rec['size']}, "
                   f"re-hash {actual}")
            for ref in rec["references"].split():
                expect((store / "db" / "items" / ref).exists(),
                       f"{entry.name}: dangling reference {ref}")
            done.add(entry.name)
            if rec["kind"] != "seed":
                new_mib += int(rec["size"]) / MIB
        return new_mib

    def closure(self, store: Path, comp: str) -> set:
        seen, stack = set(), [comp]
        while stack:
            c = stack.pop()
            if c not in seen:
                seen.add(c)
                stack.extend(self.record(store, c)["references"].split())
        return seen

    def check_generation(self, out, store, profile, number, same_as=None) -> str:
        """The profile generation a package run reports, re-hashed."""
        lines = out.splitlines()
        expect(lines and lines[0] == f"generation {number}", f"output {lines[:1]}")
        comp = lines[-1].removeprefix("profile ")
        gen = profile / "generations" / str(number)
        expect((gen / "store-path").read_text().strip() == comp, "store-path")
        expect((profile / "current").read_text().strip() == str(number), "current")
        if same_as is not None:
            expect(comp == same_as, f"profile {comp}, generation 1 had {same_as}")
        rec = self.record(store, comp)
        expect(refcarc.digest(gen / "tree") == (rec["outputhash"], int(rec["size"])),
               f"generation {number} tree does not match its record")
        return comp

    def members(self, profile, number) -> dict:
        """Package name -> (store component, output hash) from hashes.txt."""
        out = {}
        text = (profile / "generations" / str(number) / "hashes.txt").read_text()
        for line in text.splitlines():
            label, drv_hex, out_hex = line.split()
            out[label.rsplit("-", 1)[0]] = (f"{drv_hex[:32]}-{label}", out_hex)
        return out

    def check_contents(self, number, rev):
        import workloads
        members = self.members(self.profile, number)
        expect(set(members) == set(self.wl.manifest()), "members of the profile")
        comps = {name: comp for name, (comp, _) in members.items()}
        for name, comp in comps.items():
            rec = self.record(self.store, comp)  # every {dep} is a store item
            expect(comp.endswith(f"-{name}-1.0") and rec["kind"] == "derived",
                   f"{comp} is not the derived item of {name}")
        comps[workloads.SEED_LABEL] = self.seed_comp
        files = tree_files(self.profile / "generations" / str(number) / "tree")
        expected = self.wl.expected_files(rev, comps)
        expect(files.keys() == expected.keys(), "profile file list")
        for rel, data in expected.items():
            expect(files[rel] == data, f"{rel}: bytes differ")
        return members

    def next_generation(self):
        self.generation += 1
        return self.generation

    # -- the operation sequence --------------------------------------------

    def run(self):
        self.samples["setup_s"].append(self.setup())
        reps = self.wl.repeats

        def cold(out):
            self.gen1 = self.check_generation(out, self.store, self.profile,
                                              self.next_generation())
            stored_mib = self.verify_store(self.store)
            self.check_contents(1, rev=1)
            return {"stored_mib": stored_mib}
        self.op("cold_s", self.package(self.profile), cold)

        def warm(out):
            self.check_generation(out, self.store, self.profile,
                                  self.next_generation(), same_as=self.gen1)
            self.verify_store(self.store)
        for _ in range(reps["warm"]):
            self.op("warm_s", self.package(self.profile), warm)

        def publish(out):
            closure = self.closure(self.store, self.gen1)
            expect(out.strip() == f"published {len(closure)}", out.strip())
            for comp in closure:
                prefix = comp[:32]
                info = refcarc.read_fields(self.cache / "info" / prefix)
                rec = self.record(self.store, comp)
                expect(info["storepath"] == comp and info["outputhash"] == rec["outputhash"],
                       f"cache info for {comp}")
                expect(file_sha256(self.cache / "carc" / prefix)
                       == (rec["outputhash"], int(rec["size"])),
                       f"cache archive for {comp} does not re-hash to its record")
        for _ in range(reps["publish"]):
            self.op("publish_s", ["publish", str(self.store), str(self.profile),
                                  str(self.cache)], publish)

        for store, profile in self.subs:
            def substitute(out, store=store, profile=profile):
                self.check_generation(out, store, profile, 1, same_as=self.gen1)
                self.verify_store(store)
                expect(self.closure(store, self.gen1) == self.closure(self.store, self.gen1),
                       "substituted closure")
            self.op("substitute_s",
                    self.package(profile, "--substitute-url", self.url, store=store),
                    substitute)

        r2 = self.repo.commit_revision(self.wl.packages(2), parent=self.r1.id,
                                       message="r2")

        def upgrade(out):
            number = self.next_generation()
            self.gen2 = self.check_generation(out, self.store, self.profile, number)
            expect(self.gen2 != self.gen1, "upgrade left the profile unchanged")
            self.verify_store(self.store)
            before = self.members(self.profile, 1)
            self.after = self.check_contents(number, rev=2)
            changed = {n for n in before if before[n][0] != self.after[n][0]}
            expect(changed == self.wl.changed(), f"rebuilt {sorted(changed)}")
        self.op("upgrade_s", self.package(self.profile), upgrade)

        def replay(out):
            self.check_generation(out, self.store, self.profile,
                                  self.next_generation(), same_as=self.gen1)
            expect((self.channel / "HEAD").read_text().strip() == r2.id.hex,
                   "replay moved HEAD")
        for _ in range(reps["replay"]):
            self.op("replay_s", self.cli("time-machine", "-C", str(self.pin), "--",
                                         "package", "-m", str(self.manifest), "-p",
                                         str(self.profile), *self.workers), replay)

        def check(out):
            comp, out_hex = self.after[self.wl.top()]
            expect(self.record(self.store, comp)["outputhash"] == out_hex, "record")
            expect(out.splitlines() == [f"round 1: {out_hex}", f"round 2: {out_hex}",
                                        "deterministic"], f"check output {out!r}")
        self.op("check_s", self.cli("build", self.wl.top(), "--check", "2",
                                    *self.workers), check)

        self.samples["disk_mib"].append(apparent_size(self.state) / MIB)
        self.samples["peak_rss_mib"].append(self.peak_rss_kib / 1024)


def layer_value(name: str, summaries: dict):
    """One per-layer metric: the median over the traced operations it names."""
    op, *parts = name.split(".")
    values = []
    for s in summaries.get(op, []):
        stats = s["stats"]

        def get(fn, stat):
            return stats.get(fn, {}).get(stat, 0)
        if parts == ["process", "start_s"]:
            v = s["start_s"]
        elif parts == ["store", "get_record_per_build"]:
            builds = get("store.register_output", "calls")
            v = get("store.get_record", "calls") / builds if builds else 0.0
        elif parts == ["carc", "serialize_per_stored"]:
            v = get("carc.serialize_tree", "mib") / s["stored_mib"]
        else:
            layer, fn, stat = parts
            if stat == "concurrency":
                v = get(f"{layer}.{fn}", "wall_s") / s["root_s"]
            else:
                v = get(f"{layer}.{fn}", "wall_s" if stat == "wait_s" else stat)
        values.append(v)
    return statistics.median(values) if values else 0.0


def main() -> int:
    args = parse_args()
    if not (SRC / "microfold" / "cli.py").is_file():
        print(f"perfbench: no microfold sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import microfold
    import workloads
    if Path(microfold.__file__).resolve().parent != SRC / "microfold":
        print(f"perfbench: imported microfold from {microfold.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parent = state_parent()
    sweep_stale_roots(parent)
    os.sync()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    print(reference_figures(), flush=True)

    samples, layers = defaultdict(list), defaultdict(list)
    attempted = failed = rounds = 0
    correct = True
    longest = 0.0
    deadline = time.monotonic() + args.seconds
    while rounds == 0 or time.monotonic() + longest <= deadline:
        started = time.monotonic()
        rnd = Round(wl, trace=bool(args.trace), parent=parent)
        try:
            rnd.run()
        finally:
            rnd.close()
            os.sync()
        for k, v in rnd.samples.items():
            samples[k].extend(v)
        for k, v in rnd.layers.items():
            layers[k].extend(v)
        attempted += rnd.attempted
        failed += rnd.failed
        correct = correct and rnd.correct
        rounds += 1
        longest = max(longest, time.monotonic() - started)

    print(f"rounds: {rounds}; samples: " + json.dumps(
        {k: [round(x, 4) for x in v] for k, v in samples.items()}), flush=True)
    if args.trace:
        metrics = {m["name"]: {"value": layer_value(m["name"], layers), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        # A metric whose every operation failed reads 0; `failed` says so.
        metrics = {m["name"]: {"value": statistics.median(samples[m["name"]] or [0.0]),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
