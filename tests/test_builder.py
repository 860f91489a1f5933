import errno
import hashlib
import os
import shutil
import stat
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import carc_model
from microfold import carc
from microfold import derivation as d
from microfold.archive import Archive
from microfold.bootstrap import register_seed
from microfold.builder import BuildOptions, Builder, build, check_rebuild
from microfold.channel import PackageDef
from microfold.derivation import (Derivation, InputRef, canonical_serialize,
                                  derivation_hash, load_derivation,
                                  register_derivation)
from microfold.errors import DanglingReference, EscapedClosure, StepFailure
from microfold.hashing import ContentHash
from microfold.manifest import Instantiator
from microfold.profile import Profile, build_profile
from microfold.store import Store

from conftest import RANDOM_TOOL, build_hash, fixture_packages, on_disk

# Oracle hash for the tree {hello.txt: "hello"}: literal CARC bytes hashed
# independently of the carc module.
ONE_FILE_TREE = b"carc1\nd\n1\n9\nhello.txtf\n5\nhello"
ONE_FILE_TREE_HASH = hashlib.sha256(ONE_FILE_TREE).hexdigest()


def hello_drv():
    return Derivation(name="hello", version="1.0",
                      steps=[d.write("hello.txt", b"hello")])


def test_build_output_matches_oracle(store):
    path = build(hello_drv(), store)
    rec = store.get_record(path)
    assert rec.output_hash.hex == ONE_FILE_TREE_HASH
    assert rec.kind == "derived"
    assert rec.deriver == derivation_hash(hello_drv())
    assert store.verify_item(path).ok


def test_build_deterministic_across_fresh_stores(tmp_path):
    results = []
    for name in ("s1", "s2"):
        store = Store(tmp_path / name)
        path = build(hello_drv(), store)
        results.append((path.component, store.get_record(path).output_hash.hex))
    assert results[0] == results[1]


def test_build_is_idempotent(store):
    p1 = build(hello_drv(), store)
    p2 = build(hello_drv(), store)
    assert p1 == p2


def test_step_language(store):
    drv = Derivation(name="steps", version="1", steps=[
        d.mkdir("share/doc"),
        d.write("share/doc/README", b"hello old world"),
        d.substitute("share/doc/README", b"old", b"new"),
        d.write("bin/tool", b"#!/bin/sh\n"),
        d.set_exec("bin/tool"),
        d.concat("share/both", "out/share/doc/README", "out/bin/tool"),
    ])
    path = build(drv, store)
    assert (path.path / "share/doc/README").read_bytes() == b"hello new world"
    assert (path.path / "bin/tool").stat().st_mode & 0o100
    assert (path.path / "share/both").read_bytes() == b"hello new world#!/bin/sh\n"


def test_inputs_are_built_recursively_and_referenced(store):
    dep = Derivation(name="dep", version="1",
                     steps=[d.write("data.txt", b"payload")])
    dep_hash = derivation_hash(dep)
    store.put_derivation(dep_hash, canonical_serialize(dep))
    dep_comp = f"{dep_hash.prefix}-dep-1"
    top = Derivation(name="top", version="1",
                     inputs=[InputRef(dep_hash, "dep")],
                     steps=[
                         d.copy(f"{dep_comp}/data.txt", "copied.txt"),
                         d.write("deps.txt", f"dep: {dep_comp}\n".encode()),
                     ])
    path = build(top, store)
    assert (path.path / "copied.txt").read_bytes() == b"payload"
    rec = store.get_record(path)
    assert [r.component for r in rec.references] == [dep_comp]
    closure = store.closure(path)
    assert {p.component for p in closure} == {path.component, dep_comp}


def test_exec_outside_closure_rejected(store):
    drv = Derivation(name="escape", version="1",
                     steps=[d.exec_("nonexistent/bin/tool", "x")])
    with pytest.raises(EscapedClosure):
        build(drv, store)


def test_exec_runs_seed_tool(store, toolchain):
    comp = toolchain.path.component
    drv = Derivation(name="uses-cc", version="1", steps=[
        d.mkdir("lib"),
        d.write("input.txt", b"source material\n"),
        d.exec_(f"{comp}/bin/cc", "@out@/lib/thing.a", "out/input.txt"),
    ])
    path = build(drv, store)
    data = (path.path / "lib/thing.a").read_bytes()
    assert data == b"compiled-with-cc-1.0\nsource material\n"


def test_exec_runs_through_the_module_subprocess(store, toolchain, monkeypatch):
    """An exec step calls `builder.subprocess.run`, so a stand-in set on the
    module (as a tracer sets one) sees it; a SubprocessError it raises is a
    StepFailure naming the step."""
    import subprocess
    from microfold import builder as builder_module
    calls = []

    def refuse(argv, **kwargs):
        calls.append(argv)
        raise subprocess.SubprocessError("refused")
    monkeypatch.setattr(builder_module, "subprocess", SimpleNamespace(
        run=refuse, SubprocessError=subprocess.SubprocessError))
    drv = Derivation(name="execs", version="1", steps=[
        d.mkdir("lib"),
        d.exec_(f"{toolchain.path.component}/bin/cc", "@out@/lib/a"),
    ])
    with pytest.raises(StepFailure, match="^step 1 of execs-1: refused$"):
        build(drv, store)
    assert len(calls) == 1


def test_exec_env_is_scrubbed(store):
    tool = carc_model.Dir({"bin": carc_model.Dir({"dumpenv": carc_model.File(
        b"#!/bin/sh\n/usr/bin/env | /usr/bin/sort > \"$1\"\n", executable=True)})})
    seed = register_seed(store, on_disk(tool, store.root.parent), "dumpenv-1.0")
    drv = Derivation(name="envdump", version="1",
                     env={"EXTRA": "declared"},
                     steps=[d.exec_(f"{seed.path.component}/bin/dumpenv",
                                    "@out@/env.txt")])
    path = build(drv, store)
    lines = (path.path / "env.txt").read_text().splitlines()
    keys = {l.split("=", 1)[0] for l in lines if "=" in l}
    # exactly the scrubbed set plus declared env (modulo shell-injected vars)
    assert {"PATH", "SOURCE_DATE_EPOCH", "TZ", "LC_ALL", "HOME", "EXTRA"} <= keys
    assert keys - {"PATH", "SOURCE_DATE_EPOCH", "TZ", "LC_ALL", "HOME",
                   "EXTRA", "PWD", "SHLVL", "_", "OLDPWD"} == set()
    env = dict(l.split("=", 1) for l in lines if "=" in l)
    assert env["SOURCE_DATE_EPOCH"] == "1"
    assert env["TZ"] == "UTC"
    assert env["LC_ALL"] == "C"
    assert env["EXTRA"] == "declared"


def test_failing_step_reports_index(store):
    drv = Derivation(name="boom", version="1", steps=[
        d.write("ok.txt", b"fine"),
        d.concat("broken", "no-such-root/file"),
    ])
    with pytest.raises((StepFailure, EscapedClosure)):
        build(drv, store)
    drv = Derivation(name="boom", version="2", steps=[
        d.write("ok.txt", b"fine"),
        d.copy("out/missing", "g"),
    ])
    with pytest.raises(StepFailure) as info:
        build(drv, store)
    assert info.value.index == 1
    assert info.value.label == "boom-2"
    assert str(info.value).startswith("step 1 of boom-2: ")


@pytest.mark.parametrize("lacking", ["root", "input"])
@pytest.mark.parametrize("entry", ["build", "check_rebuild", "build_profile"])
def test_a_hash_whose_bytes_the_store_lacks_builds_nothing(tmp_path, store, entry,
                                                            lacking):
    """A derivation is built only from the bytes that its hash names."""
    leaf = _leaf("leaf")
    top = Derivation(name="top", version="1", steps=[d.write("top.txt", b"top")],
                     inputs=[InputRef(derivation_hash(leaf), "leaf")])
    if lacking == "root":
        register_derivation(store, leaf)
        drv_hash = derivation_hash(top)
    else:
        drv_hash = register_derivation(store, top)
    run = {"build": lambda: Builder(store).build([drv_hash]),
           "check_rebuild": lambda: check_rebuild(drv_hash, store),
           "build_profile": lambda: build_profile([drv_hash], store,
                                                  Profile(tmp_path / "profile"))}[entry]
    with pytest.raises(DanglingReference):
        run()
    assert store.list_records() == []
    assert Profile(tmp_path / "profile").generation_numbers() == []


def test_check_rebuild_deterministic(store, toolchain):
    report = check_rebuild(register_derivation(store, hello_drv()), store, rounds=3)
    assert report.deterministic
    assert len(report.rounds) == 3
    assert len({r.output_hash for r in report.rounds}) == 1
    # main store untouched
    assert store.get_record(
        f"{derivation_hash(hello_drv()).prefix}-hello-1.0") is None


def test_check_rebuild_stages_rounds_in_the_store(store, toolchain, tmp_path,
                                                   monkeypatch):
    """Each round's scratch store lies under <store>/tmp, on the store's
    filesystem, whatever the temporary directory is, and is removed."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    report = check_rebuild(register_derivation(store, hello_drv()), store)
    assert report.deterministic
    assert os.listdir(store.root / "tmp") == []


def _snapshot(root: Path) -> dict:
    """Every entry under root: file bytes and mode, symlink targets, dirs."""
    out = {}
    for path in sorted(root.rglob("*")):
        st = path.lstat()
        if path.is_symlink():
            out[path] = ("link", os.readlink(path))
        elif path.is_file():
            out[path] = ("file", st.st_mode, path.read_bytes())
        else:
            out[path] = ("dir", st.st_mode)
    return out


@pytest.fixture
def built_alpha(tmp_path, store, archive, toolchain):
    """app-alpha built in the main store, with libc from a file:// source
    that is then deleted, upstream and in the archive."""
    upstream = tmp_path / "libc-src.c"
    upstream.write_bytes(b"int open(const char *path);\n")
    h = ContentHash.of_bytes(carc_model.serialize_path(upstream))
    pkgs = {p.key: p for p in fixture_packages(libc_source_url=f"file://{upstream}",
                                               libc_source_hash=h)}
    drv_hash = Instantiator(pkgs, store=store, archive=archive).instantiate(
        pkgs["app-alpha@1.0"])
    build_hash(drv_hash, store, archive=archive)
    upstream.unlink()
    (archive.root / "carc" / h.hex).unlink()
    return drv_hash


def test_check_rebuild_reads_the_main_store_in_place(store, archive, built_alpha,
                                                    monkeypatch):
    before = _snapshot(store.root)
    runs = Counter()
    real_run = Builder._run

    def counting_run(self, drv, *args):
        assert self.store.root != store.root
        runs[drv.label] += 1
        return real_run(self, drv, *args)
    monkeypatch.setattr(Builder, "_run", counting_run)
    report = check_rebuild(built_alpha, store, rounds=2, archive=archive)
    assert report.deterministic
    assert {r.output_hash for r in report.rounds} == {store.get_record(
        f"{built_alpha.prefix}-app-alpha-1.0").output_hash.hex}
    # Every derived item is rebuilt in each round, though the main store
    # has it; the seed and the source, gone upstream, are read in place.
    assert runs == {label: 2 for label in
                    ("libc-1.0", "libmath-1.0", "libio-1.0", "app-alpha-1.0")}
    assert _snapshot(store.root) == before


def test_scratch_store_falls_back_to_base_for_seeds_and_sources_only(
        tmp_path, store, built_alpha, toolchain):
    scratch = Store(tmp_path / "scratch", base=store)
    kinds = {r.kind for r in store.list_records()}
    assert kinds == {"seed", "fixed", "derived"}
    for rec in store.list_records():
        seen = scratch.get_record(rec.path)
        if rec.kind == "derived":
            assert seen is None
        else:
            assert seen.path.path == rec.path.path
    assert [r.path for r in scratch.seeds()] == [toolchain.path]
    assert scratch.list_records() == []
    assert derivation_hash(load_derivation(scratch, built_alpha)) == built_alpha


def test_check_rebuild_reports_nondeterminism_of_a_built_item(store):
    tool = carc_model.Dir({"bin": carc_model.Dir({"rand": carc_model.File(
        RANDOM_TOOL, executable=True)})})
    seed = register_seed(store, on_disk(tool, store.root.parent), "rng-1.0")
    drv = Derivation(name="flaky", version="1",
                     steps=[d.exec_(f"{seed.path.component}/bin/rand",
                                    "@out@/value.txt")])
    build(drv, store)
    report = check_rebuild(derivation_hash(drv), store, rounds=2)
    assert not report.deterministic


def test_check_rebuild_detects_nondeterminism(store):
    tool = carc_model.Dir({"bin": carc_model.Dir({"rand": carc_model.File(
        RANDOM_TOOL, executable=True)})})
    seed = register_seed(store, on_disk(tool, store.root.parent), "rng-1.0")
    drv = Derivation(name="flaky", version="1",
                     steps=[d.exec_(f"{seed.path.component}/bin/rand",
                                    "@out@/value.txt")])
    report = check_rebuild(register_derivation(store, drv), store, rounds=2)
    assert not report.deterministic
    assert len({r.output_hash for r in report.rounds}) == 2


def test_fixture_channel_builds(store, archive, toolchain, packages):
    inst = Instantiator(packages, store=store, archive=archive)
    alpha = inst.instantiate(packages["app-alpha@1.0"])
    path = build_hash(alpha, store, archive=archive)
    compiled = (path.path / "bin/alpha").read_bytes()
    assert compiled.startswith(b"compiled-with-cc-1.0\n")
    assert b"int main() { return 0; }" in compiled
    # the diamond closes: libc appears exactly once in the closure
    labels = [p.label for p in store.closure(path)]
    assert labels.count("libc-1.0") == 1
    assert set(labels) >= {"app-alpha-1.0", "libmath-1.0", "libio-1.0", "libc-1.0"}


def test_parallel_build(store, archive, toolchain, packages):
    inst = Instantiator(packages, store=store, archive=archive)
    alpha = inst.instantiate(packages["app-alpha@1.0"])
    opts = BuildOptions(workers=4)
    [path] = Builder(store, archive=archive, options=opts).build([alpha])
    assert store.verify_item(path).ok


def _top_over(store, leaves, name="top"):
    """The hash of a top derivation whose inputs are leaves, all
    registered in store."""
    inputs = [InputRef(register_derivation(store, leaf), leaf.label) for leaf in leaves]
    return register_derivation(store, Derivation(
        name=name, version="1", inputs=inputs, steps=[d.write("top.txt", name.encode())]))


def _leaf(name, fails=False):
    steps = [d.write("f", name.encode())]
    return Derivation(name=name, version="1",
                      steps=steps + [d.copy("out/missing", "g")] if fails else steps)


@pytest.fixture
def runs(monkeypatch):
    """Builder._run calls by label, and the live threads at each."""
    runs = SimpleNamespace(labels=Counter(), threads=[])
    real_run = Builder._run

    def counting_run(self, drv, *args):
        runs.labels[drv.label] += 1
        runs.threads.append(threading.active_count())
        time.sleep(0.002)  # so that builds which may overlap do
        return real_run(self, drv, *args)
    monkeypatch.setattr(Builder, "_run", counting_run)
    return runs


def test_failing_input_runs_once_and_fails_once(store, runs):
    top = _top_over(store, [_leaf("bad", fails=True), _leaf("good")])
    with pytest.raises(StepFailure, match="^step 1 of bad-1: "):
        Builder(store, options=BuildOptions(workers=4)).build([top])
    assert runs.labels["bad-1"] == 1 and "top-1" not in runs.labels


def test_parallel_failure_prints_nothing_from_a_thread(store, runs, capfd):
    top = _top_over(store, [_leaf("bad", fails=True), _leaf("good")])
    with pytest.raises(StepFailure):
        Builder(store, options=BuildOptions(workers=4)).build([top])
    assert capfd.readouterr().err == ""


def test_live_threads_stay_within_workers(store, runs):
    before = threading.active_count()
    top = _top_over(store, [_leaf(f"leaf{i:02d}") for i in range(64)])
    [path] = Builder(store, options=BuildOptions(workers=2)).build([top])
    assert store.verify_item(path).ok
    assert len(runs.threads) == 65 and max(runs.threads) <= before + 2
    assert threading.active_count() == before


def test_no_build_starts_after_the_first_failure(store, runs):
    # Roots are planned in the order given (a derivation's inputs, by hash).
    roots = [register_derivation(store, leaf) for leaf in
             (_leaf("first"), _leaf("bad", fails=True), _leaf("last"))]
    with pytest.raises(StepFailure, match="bad-1"):
        Builder(store, options=BuildOptions(workers=1)).build(roots)
    assert runs.labels == {"first-1": 1, "bad-1": 1}


def test_build_all_plans_the_roots_together(store, runs):
    shared = _leaf("shared")
    roots = [_top_over(store, [shared, _leaf(f"{name}-leaf")], name=name)
             for name in ("one", "two")]
    paths = Builder(store, options=BuildOptions(workers=2)).build(roots)
    assert [p.label for p in paths] == ["one-1", "two-1"]
    assert all(store.verify_item(p).ok for p in paths)
    assert runs.labels == {label: 1 for label in (
        "shared-1", "one-leaf-1", "two-leaf-1", "one-1", "two-1")}


def chain_packages(n: int) -> dict:
    """n pure-step packages, each writing the components of the previous
    three and of the seed, so each build references its inputs."""
    pkgs = {}
    for i in range(n):
        deps = [f"c{j:02d}" for j in range(max(0, i - 3), i)]
        text = "".join(f"dep {{{dep}}}\n" for dep in deps)
        text += "tool {seed:toolchain-1.0}\n"
        pkg = PackageDef(name=f"c{i:02d}", version="1", deps=deps,
                         steps=[d.write(f"share/c{i:02d}.txt", text.encode())])
        pkgs[pkg.key] = pkg
    return pkgs


def test_each_record_is_read_once_per_store(store, toolchain, monkeypatch):
    pkgs = chain_packages(30)
    half = Instantiator(pkgs, store=store).instantiate(pkgs["c14@1"])
    build_hash(half, store)  # c00..c14 are on disk before the spied store opens

    reads = Counter()  # (caller, component) -> record files read
    read_record = Store._read_record

    def spy(self, component):
        rec = read_record(self, component)
        if rec is not None:
            reads[sys._getframe(1).f_code.co_name, component] += 1
        return rec

    monkeypatch.setattr(Store, "_read_record", spy)
    fresh = Store(store.root)
    top = Instantiator(pkgs, store=fresh).instantiate(pkgs["c29@1"])
    path = build_hash(top, fresh)
    assert len(fresh.closure(path)) == 31  # the chain and the seed
    cached = {c: n for (caller, c), n in reads.items() if caller == "get_record"}
    assert len(cached) == 16  # c00..c14 and the seed, found on disk
    assert max(cached.values()) == 1
    # The only other reader is the write path's re-read under the lock.
    assert {caller for caller, _ in reads} <= {"get_record", "register_output"}


def test_check_rounds_parse_each_derivation_once(store, toolchain, monkeypatch):
    """The instantiator keeps each derivation it builds in the store as the
    parsed one, and the scratch store of every round shares them: after
    instantiation no derivation is parsed at all."""
    n = 20
    pkgs = chain_packages(n + 1)
    top = Instantiator(pkgs, store=store).instantiate(pkgs[f"c{n:02d}@1"])
    parsed = Counter()
    real_parse = d.parse_derivation

    def counting_parse(text):
        drv = real_parse(text)
        parsed[drv.label] += 1
        return drv
    monkeypatch.setattr(d, "parse_derivation", counting_parse)
    assert check_rebuild(top, store, rounds=2).deterministic
    assert parsed == {}


def test_a_dependency_is_built_as_it_is_built_as_a_root(tmp_path):
    """PATH lists the inputs in canonical order, whatever order a package
    declares them in, so a derivation's output does not depend on whether
    it is built as a root or as another's input."""
    tool = carc_model.Dir({"bin": carc_model.Dir({"path": carc_model.File(
        b"#!/bin/sh\nprintf '%s\\n' \"$PATH\" > \"$1\"\n", executable=True)})})
    leaves = [PackageDef(name=n, version="1", steps=[d.write(f"bin/{n}", b"")])
              for n in ("aaa", "bbb")]
    by_hash = sorted(leaves, key=lambda p: Instantiator(
        {p.key: p}, store=Store(tmp_path / "probe")).instantiate(p).hex)
    # Declared against hash order, so a build that keeps it differs.
    ddd = PackageDef(name="ddd", version="1", deps=[p.name for p in reversed(by_hash)],
                     steps=[d.mkdir("share"),
                            d.exec_("{seed:path-1}/bin/path", "@out@/share/path")])
    eee = PackageDef(name="eee", version="1", deps=["ddd"],
                     steps=[d.write("share/eee", b"{ddd}")])
    pkgs = {p.key: p for p in leaves + [ddd, eee]}
    outputs = []
    for top in (ddd, eee):  # each in a new store at the same root
        shutil.rmtree(tmp_path / "store", ignore_errors=True)
        store = Store(tmp_path / "store")
        register_seed(store, on_disk(tool, store.root.parent), "path-1")
        inst = Instantiator(pkgs, store=store)
        build_hash(inst.instantiate(top), store)
        target = inst.hashes[ddd.key].prefix + "-ddd-1"
        outputs.append(store.get_record(target).output_hash)
    assert outputs[0] == outputs[1]


def test_a_missing_record_in_an_inputs_closure_fails_the_build(store, toolchain):
    """c04's inputs are c01..c03, whose records are there; c01 refers to
    c00, whose record is gone."""
    pkgs = chain_packages(5)
    inst = Instantiator(pkgs, store=store)
    build_hash(inst.instantiate(pkgs["c03@1"]), store)
    leaf = inst.hashes["c00@1"].prefix + "-c00-1"
    os.unlink(store.root / "db" / "items" / leaf)
    fresh = Store(store.root)
    with pytest.raises(DanglingReference, match=leaf):
        build_hash(Instantiator(pkgs, store=fresh).instantiate(pkgs["c04@1"]), fresh)


def test_parallel_chain_build_shares_memos(store, toolchain):
    """Build threads share the store's memos; what they leave must match
    the records on disk."""
    pkgs = chain_packages(30)
    top = Instantiator(pkgs, store=store).instantiate(pkgs["c29@1"])
    builder = Builder(store, options=BuildOptions(workers=4))
    result = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        worker = threading.Thread(target=lambda: result.append(builder.build([top])[0]))
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and len(result) == 1
    members = store.closure(result[0])
    assert len(members) == 31
    disk = Store(store.root)
    for member in members:
        assert store.get_record(member) == disk.get_record(member)
        assert store.verify_item(member).ok
    assert [p.component for p in disk.closure(result[0])] == \
        [p.component for p in members]


def test_reference_split_across_blocks_is_found(tmp_path, monkeypatch):
    """With tiny blocks, every prefix in the output spans several blocks;
    the scan still finds it, and the hash does not change."""
    def build_top(store):
        dep = Derivation(name="dep", version="1",
                         steps=[d.write("data.txt", b"payload")])
        dep_hash = derivation_hash(dep)
        store.put_derivation(dep_hash, canonical_serialize(dep))
        top = Derivation(name="top", version="1",
                         inputs=[InputRef(dep_hash, "dep")],
                         steps=[d.write("deps.txt",
                                        f"x{dep_hash.prefix}-dep-1\n".encode())])
        path = build(top, store)
        return store.get_record(path), dep_hash

    plain, _ = build_top(Store(tmp_path / "plain"))
    monkeypatch.setattr(carc, "_BLOCK", 5)
    rec, dep_hash = build_top(Store(tmp_path / "tiny"))
    assert [r.component for r in rec.references] == [f"{dep_hash.prefix}-dep-1"]
    assert rec.output_hash == plain.output_hash and rec.size == plain.size


def test_built_output_has_canonical_modes(store):
    """Whatever modes the steps leave, the item carries the modes a
    substituted or fetched copy of it would."""
    tool = carc_model.Dir({"bin": carc_model.Dir({"odd": carc_model.File(
        b"#!/bin/sh\n/bin/mkdir -m 700 \"$1\"\n"
        b"printf x > \"$1/plain\"; /bin/chmod 600 \"$1/plain\"\n"
        b"printf y > \"$1/tool\"; /bin/chmod 770 \"$1/tool\"\n",
        executable=True)})})
    seed = register_seed(store, on_disk(tool, store.root.parent), "odd-1.0")
    drv = Derivation(name="modes", version="1", steps=[
        d.exec_(f"{seed.path.component}/bin/odd", "@out@/d"),
        d.write("w", b"w"), d.set_exec("w")])
    path = build(drv, store)
    modes = {p.name: stat.S_IMODE(p.lstat().st_mode)
             for p in [path.path, *path.path.rglob("*")]}
    assert modes == {path.path.name: 0o755, "d": 0o755, "plain": 0o644,
                     "tool": 0o755, "w": 0o755}
    restored = store.root / "restored"
    carc.restore([carc_model.serialize_path(path.path)], restored)
    assert {p.name: stat.S_IMODE(p.lstat().st_mode)
            for p in restored.rglob("*")} == {
        n: m for n, m in modes.items() if n != path.path.name}
    assert os.listdir(store.root / "tmp") == []


# -- store trees linked into outputs ---------------------------------------

def _pure_modes(store, umask):
    """The modes of a pure-step build's output, built under umask."""
    drv = Derivation(name="umask", version="1", steps=[
        d.write("share/doc/a", b"a"), d.write("bin/t", b"t"), d.set_exec("bin/t")])
    old = os.umask(umask)
    try:
        path = build(drv, store)
    finally:
        os.umask(old)
    return {str(p.relative_to(path.path)): stat.S_IMODE(p.lstat().st_mode)
            for p in path.path.rglob("*")}


def test_pure_output_has_canonical_modes_under_a_tight_umask(store):
    """The one walk that hashes the output also gives it canonical modes:
    under umask 077 a written file is 0600 and its directories 0700."""
    assert _pure_modes(store, 0o077) == {"bin": 0o755, "bin/t": 0o755,
                                         "share": 0o755, "share/doc": 0o755,
                                         "share/doc/a": 0o644}


def _tree_item(store):
    """A store tree with nested files, an exec file and an internal symlink;
    its component."""
    tree = carc_model.Dir({
        "a": carc_model.File(b"alpha\n"), "x": carc_model.File(b"#!/bin/sh\n", executable=True),
        "b": carc_model.Dir({"c": carc_model.File(b"gamma alpha\n"), "d": carc_model.Dir()}),
        "e": carc_model.Symlink("a")})
    return store.add_fixed(on_disk(tree, store.root.parent), "tree").component


def _inodes(root: Path) -> set:
    return {(st.st_dev, st.st_ino) for st in
            (p.lstat() for p in root.rglob("*")) if not stat.S_ISDIR(st.st_mode)}


def test_copy_links_a_store_tree_in_a_pure_build(store):
    comp = _tree_item(store)
    path = build(Derivation(name="linked", version="1",
                            steps=[d.copy(comp, "t")]), store)
    item = store.root / "items" / comp
    assert _inodes(path.path / "t") == _inodes(item)
    assert store.verify_item(path).ok


def test_steps_on_linked_files_leave_the_store_item_whole(store):
    comp = _tree_item(store)
    item = store.root / "items" / comp
    path = build(Derivation(name="edits", version="1", steps=[
        d.copy(comp, "t"), d.copy(f"{comp}/a", "one"), d.copy(f"{comp}/b/c", "one"),
        d.write("t/a", b"new\n"), d.substitute("t/b/c", b"alpha", b"beta"),
        d.set_exec("t/b/c"), d.concat("t/x", "out/t/a"), d.write("t/e", b"was a link"),
        d.copy(f"{comp}/b/c", "two"), d.set_exec("two")]), store)
    assert (path.path / "t/a").read_bytes() == b"new\n"
    assert (path.path / "t/b/c").read_bytes() == b"gamma beta\n"
    assert (path.path / "t/x").read_bytes() == b"new\n"
    assert os.access(path.path / "t/x", os.X_OK)  # the replaced file keeps its mode
    assert not (path.path / "t/e").is_symlink()
    assert (path.path / "one").read_bytes() == b"gamma alpha\n"
    assert os.access(path.path / "two", os.X_OK)
    assert (item / "a").read_bytes() == b"alpha\n" and (item / "e").is_symlink()
    assert not os.access(item / "b/c", os.X_OK)
    assert all(store.verify_item(r.path).ok for r in store.list_records())


def test_an_exec_build_copies_and_its_tool_leaves_the_item_whole(store):
    comp = _tree_item(store)
    tool = carc_model.Dir({"bin": carc_model.Dir({"append": carc_model.File(
        b"#!/bin/sh\nprintf 'more\\n' >> \"$1\"\n", executable=True)})})
    seed = register_seed(store, on_disk(tool, store.root.parent), "append-1.0")
    path = build(Derivation(name="appends", version="1", steps=[
        d.copy(comp, "t"), d.exec_(f"{seed.path.component}/bin/append", "@out@/t/a")]),
        store)
    assert (path.path / "t/a").read_bytes() == b"alpha\nmore\n"
    assert not _inodes(path.path / "t") & _inodes(store.root / "items" / comp)
    assert all(store.verify_item(r.path).ok for r in store.list_records())


# Pure steps over copied paths, for the oracle below: a store tree copied
# whole or in part, then steps onto what was copied.
_TARGETS = ["t/a", "t/x", "t/b/c", "t/e", "p/c", "f"]
_STEP = st.one_of(
    st.builds(lambda p, data: d.write(p, data), st.sampled_from(_TARGETS),
              st.binary(max_size=8)),
    st.builds(lambda p, srcs: d.concat(p, *srcs), st.sampled_from(_TARGETS),
              st.lists(st.sampled_from(["out/t/a", "out/t/b/c", "{tree}/x"]),
                       min_size=1, max_size=3)),
    st.builds(lambda p, a, b: d.substitute(p, a, b), st.sampled_from(_TARGETS),
              st.sampled_from([b"a", b"l", b"#"]), st.binary(max_size=3)),
    st.builds(d.set_exec, st.sampled_from(_TARGETS)),
    st.builds(d.copy, st.sampled_from(["{tree}/a", "{tree}/b", "out/t/a", "out/t/b"]),
              st.sampled_from(_TARGETS + ["q", "t/b/n"])),
)


def _oracle_build(root: Path, steps: list, no_links: bool):
    """Build steps (after copying the tree item to t, part of it to p and a
    file to f) in a fresh store at root, with os.link failing as across
    filesystems when no_links.  The record's bytes, or the error's type;
    and the store."""
    store = Store(root)
    comp = _tree_item(store)
    steps = [d.copy(comp, "t"), d.copy(f"{comp}/b", "p"), d.copy(f"{comp}/a", "f")] + [
        d.Step(s.op, tuple(a.replace("{tree}", comp) if isinstance(a, str) else a
                           for a in s.args)) for s in steps]
    drv = Derivation(name="oracle", version="1", steps=steps)

    def cross_device(*args, **kwargs):
        raise OSError(errno.EXDEV, "Invalid cross-device link")
    with pytest.MonkeyPatch.context() as mp:
        if no_links:
            mp.setattr(os, "link", cross_device)
        try:
            path = build(drv, store)
        except (StepFailure, EscapedClosure) as e:
            return type(e), store
    return (store.root / "db/items" / path.component).read_bytes(), store


@settings(max_examples=60, deadline=None)
@given(st.lists(_STEP, max_size=6))
def test_linked_builds_match_copied_builds(steps):
    """A pure build that links gives the record of one that copies, and
    every store item still verifies."""
    with tempfile.TemporaryDirectory() as tmp:
        linked, store = _oracle_build(Path(tmp) / "linked", steps, no_links=False)
        copied, _ = _oracle_build(Path(tmp) / "copied", steps, no_links=True)
        assert linked == copied
        assert all(store.verify_item(r.path).ok for r in store.list_records())


# -- symlinks in out may not lead a step's writes outside -------------------

@pytest.fixture
def outside(tmp_path, store):
    """A file and a directory outside the store, and the component of a
    store item holding symlinks to them (l, dl)."""
    (tmp_path / "outside").mkdir()
    (tmp_path / "outside/file").write_bytes(b"outside\n")
    (tmp_path / "outside/dir").mkdir()
    (tmp_path / "outside/dir/f").write_bytes(b"outside f\n")
    links = carc_model.Dir({
        "l": carc_model.Symlink(str(tmp_path / "outside/file")),
        "dl": carc_model.Symlink(str(tmp_path / "outside/dir"))})
    comp = store.add_fixed(on_disk(links, tmp_path), "links").component
    return tmp_path / "outside", comp


def _outside_state(root: Path) -> dict:
    return {str(p.relative_to(root)): (p.read_bytes() if p.is_file() else None,
                                       stat.S_IMODE(p.lstat().st_mode))
            for p in root.rglob("*")}


def _at(step, comp):
    """step with {comp} in its path arguments replaced by comp."""
    return d.Step(step.op, tuple(a.replace("{comp}", comp) if isinstance(a, str) else a
                                 for a in step.args))


@pytest.mark.parametrize("step", [d.write("l", b"in")], ids=["write"])
def test_a_step_replaces_a_copied_symlink(store, outside, step):
    root, comp = outside
    before = _outside_state(root)
    path = build(Derivation(name="repl", version="1",
                            steps=[d.copy(f"{comp}/l", "l"), step]), store)
    assert _outside_state(root) == before
    assert not (path.path / "l").is_symlink()


def test_set_exec_on_a_symlink_fails(store, outside):
    root, comp = outside
    before = _outside_state(root)
    with pytest.raises(StepFailure):
        build(Derivation(name="sx", version="1",
                         steps=[d.copy(f"{comp}/l", "l"), d.set_exec("l")]), store)
    assert _outside_state(root) == before


@pytest.mark.parametrize("step", [d.write("dl/f", b"f"), d.mkdir("dl/x"),
                                  d.copy("{comp}", "dl/y"), d.concat("dl/z/c", "out/w"),
                                  d.write("dl/new/g", b"g")],
                         ids=["write", "mkdir", "copy", "concat", "write-deep"])
def test_a_step_may_not_write_through_a_copied_directory_symlink(store, outside, step):
    root, comp = outside
    before = _outside_state(root)
    with pytest.raises(EscapedClosure):
        build(Derivation(name="esc", version="1", steps=[
            d.copy(f"{comp}/dl", "dl"), d.write("w", b"w"), _at(step, comp)]), store)
    assert _outside_state(root) == before


@pytest.mark.parametrize("steps", [
    [d.concat("x", "{comp}/l")],
    [d.copy("{comp}/dl/f", "x")],
    [d.copy("{comp}/l", "l"), d.substitute("l", b"outside", b"inside")],
    [d.copy("{comp}/dl", "dl"), d.concat("x", "out/dl/f")],
    [d.copy("{comp}/l", "l"), d.concat("l", "out/l")],
], ids=["concat", "copy", "substitute", "concat-copied-dir", "concat-copied"])
def test_a_step_may_not_read_through_a_symlink_out_of_the_closure(store, outside, steps):
    root, comp = outside
    with pytest.raises(EscapedClosure):
        build(Derivation(name="read", version="1",
                         steps=[_at(step, comp) for step in steps]), store)


def test_a_step_reads_through_a_symlink_inside_the_closure(store):
    comp = _tree_item(store)  # e -> a
    path = build(Derivation(name="inside", version="1", steps=[
        d.concat("x", f"{comp}/e"), d.copy(comp, "t"), d.concat("y", "out/t/e"),
        d.substitute("t/e", b"alpha", b"beta")]), store)
    assert (path.path / "x").read_bytes() == (path.path / "y").read_bytes() == b"alpha\n"
    assert (path.path / "t/e").read_bytes() == b"beta\n"
