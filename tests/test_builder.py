import hashlib
import sys
import threading
from collections import Counter

import pytest

from microfold import carc
from microfold import derivation as d
from microfold.archive import Archive
from microfold.bootstrap import register_seed
from microfold.builder import BuildOptions, Builder, build, check_rebuild
from microfold.channel import PackageDef
from microfold.derivation import (Derivation, InputRef, canonical_serialize,
                                  derivation_hash)
from microfold.errors import EscapedClosure, StepFailure
from microfold.manifest import Instantiator
from microfold.store import Store

from conftest import RANDOM_TOOL, fixture_packages

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


def test_exec_env_is_scrubbed(store):
    tool = carc.Dir({"bin": carc.Dir({"dumpenv": carc.File(
        b"#!/bin/sh\n/usr/bin/env | /usr/bin/sort > \"$1\"\n", executable=True)})})
    seed = register_seed(store, tool, "dumpenv-1.0")
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
    assert str(info.value).startswith("step 1: ")


def test_check_rebuild_deterministic(store, toolchain):
    report = check_rebuild(hello_drv(), store, rounds=3)
    assert report.deterministic
    assert len(report.rounds) == 3
    assert len(report.distinct_hashes) == 1
    # main store untouched
    assert store.get_record(
        f"{derivation_hash(hello_drv()).prefix}-hello-1.0") is None


def test_check_rebuild_detects_nondeterminism(store):
    tool = carc.Dir({"bin": carc.Dir({"rand": carc.File(RANDOM_TOOL,
                                                        executable=True)})})
    seed = register_seed(store, tool, "rng-1.0")
    drv = Derivation(name="flaky", version="1",
                     steps=[d.exec_(f"{seed.path.component}/bin/rand",
                                    "@out@/value.txt")])
    report = check_rebuild(drv, store, rounds=2)
    assert not report.deterministic
    assert len(report.distinct_hashes) == 2


def test_fixture_channel_builds(store, archive, toolchain, packages):
    inst = Instantiator(packages, store=store, archive=archive)
    alpha = inst.instantiate(packages["app-alpha@1.0"])
    path = build(alpha, store, archive=archive)
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
    path = Builder(store, archive=archive, options=opts).build(alpha)
    assert store.verify_item(path).ok


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
    build(half, store)  # c00..c14 are on disk before the spied store opens

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
    path = build(top, fresh)
    assert len(fresh.closure(path)) == 31  # the chain and the seed
    cached = {c: n for (caller, c), n in reads.items() if caller == "get_record"}
    assert len(cached) == 16  # c00..c14 and the seed, found on disk
    assert max(cached.values()) == 1
    # The only other reader is the write path's re-read under the lock.
    assert {caller for caller, _ in reads} <= {
        "get_record", "add_fixed", "register_output"}


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
        worker = threading.Thread(target=lambda: result.append(builder.build(top)))
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
