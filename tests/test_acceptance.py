"""End-to-end acceptance suite for the fixture channel.

Each test exercises one headline guarantee end to end; the pytest -v line
for each test is the pass/fail verdict for that guarantee.
"""

import random
import time

import pytest

import carc_model
from microfold import carc
from microfold import derivation as d
from microfold.archive import Archive
from microfold.bootstrap import audit_trust, register_seed
from microfold.builder import BuildOptions, Builder, build, check_rebuild
from microfold.channel import ChannelRepo, parse_pin, render_pin
from microfold.cli import run_command
from microfold.derivation import Derivation, InputRef, canonical_serialize, derivation_hash
from microfold.errors import AllProvidersCorrupt
from microfold.hashing import ContentHash
from microfold.manifest import Instantiator, Spec, parse_manifest, rewrite_inputs
from microfold.profile import Profile, build_profile
from microfold.store import Store, StorePath
from microfold.substitute import fetch_substitute, publish

from conftest import fixture_packages, instantiated, fixture_packages_v2, seed_tree
from test_carc import (GOLDEN, TREES,
                       test_ignored_attributes_never_change_hash as _check_ignored,
                       test_significant_attributes_always_change_hash as _check_significant)

# Frozen expectation for the python/python-scipy/python-numpy profile built
# from the first fixture channel revision.  All three packages lower to
# machine-independent derivations, so this hash is stable across hosts; it
# was recorded from an independent build before this suite existed.
BLESSED_PROFILE_HASH = "8dc7f67621e2307b81136c797dfb1c1514f758900c6e3cde3d723e7dedbbbdd8"

MANIFEST = """(specifications->manifest
 '("python" "python-scipy" "python-numpy"))
"""


def _setup_env(tmp_path, monkeypatch, packages=None, message="initial packages"):
    paths = {
        "store": tmp_path / "store",
        "repo": tmp_path / "channel",
        "archive": tmp_path / "archive",
        "profile": tmp_path / "profile",
    }
    monkeypatch.setenv("MICROFOLD_STORE", str(paths["store"]))
    monkeypatch.setenv("MICROFOLD_CHANNEL_REPO", str(paths["repo"]))
    monkeypatch.setenv("MICROFOLD_ARCHIVE", str(paths["archive"]))
    monkeypatch.setenv("MICROFOLD_PROFILE", str(paths["profile"]))
    repo = ChannelRepo(paths["repo"])
    repo.commit_revision(packages or fixture_packages(), message=message)
    register_seed(Store(paths["store"]), seed_tree(), "toolchain-1.0")
    paths["repo_obj"] = repo
    return paths


def test_1_every_fixture_package_is_bit_deterministic(store, archive,
                                                      toolchain, packages):
    started = time.monotonic()
    inst = Instantiator(packages, store=store, archive=archive)
    for key in sorted(packages):
        drv = inst.instantiate(packages[key])
        report = check_rebuild(drv, store, rounds=3, archive=archive)
        assert report.deterministic, key
        hashes = {r.output_hash for r in report.rounds}
        assert len(report.rounds) == 3 and len(hashes) == 1, key
    assert time.monotonic() - started < 10.0


def test_2_time_machine_replays_blessed_profile(tmp_path, monkeypatch, capsys):
    started = time.monotonic()
    env = _setup_env(tmp_path, monkeypatch)
    assert run_command(["describe", "-f", "channels"]) == 0
    pin_file = tmp_path / "canaux.scm"
    pin_file.write_text(capsys.readouterr().out)
    manifest_file = tmp_path / "manifeste.scm"
    manifest_file.write_text(MANIFEST)

    # HEAD moves on: python 3.9 -> 3.10, libio 1.0 -> 1.1.
    env["repo_obj"].commit_revision(fixture_packages_v2(),
                                    parent=env["repo_obj"].head(),
                                    message="upgrades")
    assert "python@3.10" in env["repo_obj"].checkout(env["repo_obj"].head())

    # Pristine store: nothing built yet, only the declared seed present.
    assert run_command(["time-machine", "-C", str(pin_file), "--",
                        "package", "-m", str(manifest_file)]) == 0
    component = (env["profile"] / "generations/1/store-path").read_text().strip()
    store = Store(env["store"])
    rec = store.get_record(StorePath.from_component(store.root, component))
    assert rec.output_hash.hex == BLESSED_PROFILE_HASH
    assert time.monotonic() - started < 10.0


def test_3_substitutes_verified_and_tamper_rejected(tmp_path, monkeypatch,
                                                    capsys):
    env = _setup_env(tmp_path, monkeypatch)
    producer = Store(env["store"])
    packages = env["repo_obj"].checkout(env["repo_obj"].head())
    inst = Instantiator(packages, store=producer,
                        archive=Archive(env["archive"]))
    drv = inst.instantiate(packages["python@3.9"])
    source_path = build(drv, producer)
    source_hash = producer.get_record(source_path).output_hash
    cache = tmp_path / "cache"
    publish(producer, source_path, cache)

    # Honest cache: the fetched item is bit-identical to the local build.
    consumer = Store(tmp_path / "consumer-honest")
    got = fetch_substitute(
        StorePath.from_component(consumer.root, source_path.component),
        [cache], consumer)
    assert consumer.get_record(got).output_hash == source_hash
    assert consumer.verify_item(got).ok

    # Tampering: every single-byte flip is rejected, and building with the
    # corrupt cache silently falls back to an identical from-source build.
    good = (cache / "carc" / source_path.digest_prefix).read_bytes()
    rng = random.Random(20260823)
    bad_cache = tmp_path / "cache-tampered"
    (bad_cache / "carc").mkdir(parents=True)
    (bad_cache / "info").mkdir()
    (bad_cache / "info" / source_path.digest_prefix).write_bytes(
        (cache / "info" / source_path.digest_prefix).read_bytes())
    for i in range(100):
        data = bytearray(good)
        pos = rng.randrange(len(data))
        data[pos] ^= rng.randrange(1, 256)
        (bad_cache / "carc" / source_path.digest_prefix).write_bytes(bytes(data))

        victim = Store(tmp_path / f"victim-{i}")
        with pytest.raises(AllProvidersCorrupt):
            fetch_substitute(
                StorePath.from_component(victim.root, source_path.component),
                [bad_cache], victim)
        assert victim.get_record(source_path.component) is None

        opts = BuildOptions(use_substitutes=True, caches=[bad_cache])
        rebuilt = Builder(victim, options=opts).build(drv)
        assert victim.get_record(rebuilt).output_hash == source_hash

    # The challenge verdict on the tampered provider is a verification
    # failure (exit code 2).
    capsys.readouterr()
    assert run_command(["challenge", "python",
                        "--substitute-url", str(bad_cache)]) == 2
    assert "disagree" in capsys.readouterr().out


def test_4_rewrite_changes_exactly_the_ancestor_set(store, archive, toolchain):
    packages = {p.key: p for p in fixture_packages()}
    # An alternative bottom-of-graph definition that bare "libc" specs never
    # pick up (lower version); only an explicit rewrite selects it.
    from microfold.channel import PackageDef
    packages["libc@0.5"] = PackageDef(
        name="libc", version="0.5", synopsis="fake C library, legacy",
        source=b"int open();\n",
        steps=packages["libc@1.0"].steps)

    def all_hashes(pkgs):
        inst = Instantiator(pkgs, store=store, archive=archive)
        return {key: derivation_hash(inst.instantiate(pkgs[key])).hex
                for key in pkgs}

    before = all_hashes(packages)
    rewritten = rewrite_inputs(Spec("app-alpha"),
                               {"libc": Spec("libc", "0.5")}, packages)
    after = all_hashes(rewritten)

    changed = {k for k in before if after[k] != before[k]}
    ancestors_of_libc = {"libmath@1.0", "libio@1.0",
                         "app-alpha@1.0", "app-beta@1.0"}
    assert changed == ancestors_of_libc
    # brute force: every untouched node is bit-identical, including the
    # replaced definition itself and the unrelated python subgraph
    for key in set(before) - changed:
        assert after[key] == before[key], key


def test_5_archive_survives_upstream_deletion(tmp_path, toolchain):
    upstream = tmp_path / "mirror" / "libc.h"
    upstream.parent.mkdir()
    upstream.write_bytes(b"int open(const char *path);\n")
    source_hash = ContentHash.of_bytes(carc_model.serialize_path(upstream))
    packages = {p.key: p for p in fixture_packages(
        libc_source_url=f"file://{upstream}", libc_source_hash=source_hash)}
    archive = Archive(tmp_path / "archive")

    def build_gen(store_root, profile_root):
        store = Store(store_root)
        register_seed(store, seed_tree(), "toolchain-1.0")
        inst = Instantiator(packages, store=store, archive=archive)
        drvs = instantiated(inst, [packages["app-alpha@1.0"]])
        gen = build_profile(drvs, store, Profile(profile_root),
                            archive=archive)
        return store.get_record(gen.profile_tree).output_hash.hex

    first = build_gen(tmp_path / "store1", tmp_path / "profile1")
    assert archive.has(source_hash)  # auto-ingested during the first fetch

    upstream.unlink()  # upstream is gone for good

    second = build_gen(tmp_path / "store2", tmp_path / "profile2")
    assert second == first


def test_6_trust_audit_and_opaque_injection(store, toolchain):
    opaque = store.add_fixed(
        carc.Dir({"bin": carc.Dir({"mystery": carc.File(
            b"#!/bin/sh\nprintf 'artifact\\n' > \"$1\"\n", executable=True)})}),
        "mystery-tool", kind="fixed")

    def compile_with(tool_component, name, *inputs):
        return Derivation(
            name=name, version="1",
            inputs=list(inputs),
            steps=[d.exec_(f"{tool_component}/bin/"
                           + ("mystery" if "mystery" in tool_component else "cc"),
                           "@out@/f")])

    cc = toolchain.path.component
    lib_clean = compile_with(cc, "lib-clean")
    lib_tainted = compile_with(opaque.component, "lib-tainted")
    app_clean = compile_with(
        cc, "app-clean", InputRef(derivation_hash(lib_clean), "lib-clean"))
    app_tainted = compile_with(
        cc, "app-tainted",
        InputRef(derivation_hash(lib_tainted), "lib-tainted"))

    paths = {}
    for drv in (lib_clean, lib_tainted, app_clean, app_tainted):
        paths[drv.name] = build(drv, store)

    # Rooted in the one registered seed: trusted, seed mass = its CARC size.
    clean_report = audit_trust(paths["app-clean"], store)
    assert clean_report.trusted
    assert [s.path.component for s in clean_report.seed_list] == [cc]
    assert clean_report.total_seed_bytes == len(carc.serialize_tree(seed_tree()))

    # The opaque tool taints exactly its dependents, nothing else.
    verdicts = {name: audit_trust(path, store).trusted
                for name, path in paths.items()}
    assert verdicts == {"lib-clean": True, "app-clean": True,
                        "lib-tainted": False, "app-tainted": False}
    tainted_report = audit_trust(paths["app-tainted"], store)
    assert (opaque.component, "no-source-provenance") in tainted_report.offending


def test_7_reference_transcript_fidelity(tmp_path, monkeypatch, capsys):
    # The published manifest snippet parses verbatim into three specs.
    manifest = parse_manifest(MANIFEST)
    assert [s.render() for s in manifest.specs] == [
        "python", "python-scipy", "python-numpy"]

    env = _setup_env(tmp_path, monkeypatch)

    # `describe -f channels > canaux.scm` round-trips through the parser.
    assert run_command(["describe", "-f", "channels"]) == 0
    pin_text = capsys.readouterr().out
    pin = parse_pin(pin_text)
    assert render_pin(pin.pins) == pin_text
    assert pin.pins[0].commit == env["repo_obj"].head().hex
    canaux = tmp_path / "canaux.scm"
    canaux.write_text(pin_text)

    # `time-machine -C canaux.scm -- package -m manifeste.scm`
    manifeste = tmp_path / "manifeste.scm"
    manifeste.write_text(MANIFEST)
    assert run_command(["time-machine", "-C", str(canaux), "--",
                        "package", "-m", str(manifeste)]) == 0
    out = capsys.readouterr().out
    assert "generation 1" in out
    tree = env["profile"] / "generations/1/tree"
    for expected in ("bin/python", "lib/numpy.py", "lib/scipy.py"):
        assert (tree / expected).exists(), expected


def test_8_canonical_archive_golden_and_mutation_properties(tmp_path):
    import hashlib
    assert len(GOLDEN) == 10
    for name, (expected_bytes, expected_hash) in GOLDEN.items():
        got = carc.serialize_tree(TREES[name])
        assert got == expected_bytes, name
        assert hashlib.sha256(got).hexdigest() == expected_hash, name
    # mtime/ordering invariance and content/name/exec-bit sensitivity over
    # >= 1000 randomized tree cases
    _check_ignored(tmp_path)
    _check_significant()
