import functools
import http.server
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from microfold import builder, carc, cli, manifest as manifest_mod
from microfold.bootstrap import register_seed
from microfold.builder import build
from microfold.channel import ChannelRepo, PackageDef
from microfold.cli import run_command
from microfold.derivation import (Derivation, Step, canonical_serialize,
                                  derivation_hash)
from microfold import derivation as d
from microfold.store import Store
from microfold.substitute import publish

from conftest import RANDOM_TOOL, fixture_packages, fixture_packages_v2, seed_tree

MANIFEST = '(specifications->manifest \'("python" "python-scipy" "python-numpy"))\n'


@pytest.fixture
def env(tmp_path, monkeypatch):
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
    repo.commit_revision(fixture_packages(), message="initial packages")
    register_seed(Store(paths["store"]), seed_tree(), "toolchain-1.0")
    paths["repo_obj"] = repo
    return paths


def test_no_command_is_user_error(capsys):
    assert run_command([]) == 1


def test_build_spec(env, capsys):
    assert run_command(["build", "python"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("-python-3.9")
    assert (Store(env["store"]).root / out.split("/")[-1]).name  # path printed


def test_build_unknown_spec(env, capsys):
    assert run_command(["build", "no-such-package"]) == 1
    assert "error" in capsys.readouterr().err


def test_build_derivation_file(env, tmp_path, capsys):
    drv = Derivation(name="hand", version="1",
                     steps=[d.write("f", b"by hand")])
    drv_file = tmp_path / "hand.drv"
    drv_file.write_bytes(canonical_serialize(drv))
    assert run_command(["build", str(drv_file)]) == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith(f"{derivation_hash(drv).prefix}-hand-1")


def test_build_check_reports_failing_step(env, tmp_path, capsys):
    drv = Derivation(name="broken", version="1",
                     steps=[d.write("f", b"x"), d.copy("out/missing", "g")])
    drv_file = tmp_path / "broken.drv"
    drv_file.write_bytes(canonical_serialize(drv))
    assert run_command(["build", str(drv_file), "--check", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("microfold: error: step 1 of broken-1: ")
    assert len(err.splitlines()) == 1


def test_build_check_deterministic(env, capsys):
    assert run_command(["build", "app-alpha", "--check", "2"]) == 0
    out = capsys.readouterr().out
    assert "deterministic" in out and "round 1:" in out


def test_build_check_flags_nondeterminism(env, tmp_path, capsys):
    store = Store(env["store"])
    seed = register_seed(store, carc.Dir({"bin": carc.Dir({
        "rand": carc.File(RANDOM_TOOL, executable=True)})}), "rng-1.0")
    drv = Derivation(name="flaky", version="1",
                     steps=[d.exec_(f"{seed.path.component}/bin/rand",
                                    "@out@/v")])
    drv_file = tmp_path / "flaky.drv"
    drv_file.write_bytes(canonical_serialize(drv))
    assert run_command(["build", str(drv_file), "--check", "2"]) == 2
    assert "nondeterministic" in capsys.readouterr().out


def test_package_creates_generation_and_rollback(env, tmp_path, capsys):
    manifest = tmp_path / "manifest.scm"
    manifest.write_text(MANIFEST)
    assert run_command(["package", "-m", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "generation 1" in out and "profile " in out
    tree = env["profile"] / "generations/1/tree"
    assert (tree / "bin/python").exists()
    assert (tree / "lib/scipy.py").exists()

    assert run_command(["package", "-m", str(manifest)]) == 0
    assert "generation 2" in capsys.readouterr().out

    assert run_command(["rollback", "1"]) == 0
    assert "generation 1" in capsys.readouterr().out
    assert (env["profile"] / "current").read_text().strip() == "1"

    assert run_command(["rollback", "9"]) == 1


# Modules that neither start-up nor a warm `package -m` of pure steps needs:
# dataclass generation and its inspect chain, exec, logging, dates, file
# comparison, HTTP libraries, TLS, substitutes and seeds.
NOT_AT_START = {"dataclasses", "inspect", "subprocess", "logging", "datetime",
                "filecmp", "urllib.request", "http.client", "email.parser",
                "ssl", "microfold.substitute", "microfold.bootstrap"}

# Prints the exit code and the modules, beyond those of a bare interpreter,
# loaded by `import microfold.cli` and then by running argv.
LOADED = """
import sys
bare = set(sys.modules)
import microfold.cli
imported = set(sys.modules) - bare
code = microfold.cli.run_command(sys.argv[1:])
print(code, ",".join(sorted(imported)), ",".join(sorted(set(sys.modules) - bare)))
"""


def _child_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_start_and_warm_package_load_only_what_they_run(env, tmp_path):
    manifest = tmp_path / "manifest.scm"
    manifest.write_text(MANIFEST)
    assert run_command(["package", "-m", str(manifest)]) == 0
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, "package", "-m", str(manifest)],
        env=_child_env(), capture_output=True, text=True, timeout=60)
    assert "generation 2" in proc.stdout, proc.stderr
    code, imported, loaded = proc.stdout.splitlines()[-1].split(" ")
    assert code == "0"
    assert "microfold.cli" in imported.split(",")
    assert NOT_AT_START & set(imported.split(",")) == set()
    assert NOT_AT_START & set(loaded.split(",")) == set()


def test_substitute_over_http_loads_no_http_library(env, tmp_path, monkeypatch):
    manifest = tmp_path / "manifest.scm"
    manifest.write_text(MANIFEST)
    assert run_command(["package", "-m", str(manifest)]) == 0
    store = Store(env["store"])
    cache = tmp_path / "cache"
    for rec in store.list_records():
        publish(store, rec.path, cache)
    served = []
    handler = functools.partial(
        type("H", (http.server.SimpleHTTPRequestHandler,),
             {"log_message": lambda self, *a: served.append(self.path)}),
        directory=str(cache))
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    monkeypatch.setenv("MICROFOLD_STORE", str(tmp_path / "store2"))
    monkeypatch.setenv("MICROFOLD_PROFILE", str(tmp_path / "profile2"))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", LOADED, "package", "-m", str(manifest),
             "--substitute-url", f"http://127.0.0.1:{server.server_address[1]}"],
            env=_child_env(), capture_output=True, text=True, timeout=60)
    finally:
        server.shutdown()
        server.server_close()
    assert "generation 1" in proc.stdout, proc.stderr
    code, _, loaded = proc.stdout.splitlines()[-1].split(" ")
    assert code == "0"
    assert any(p.startswith("/carc/") for p in served)
    assert (NOT_AT_START - {"microfold.substitute"}) & set(loaded.split(",")) == set()


def test_time_machine_builds_the_parser_once(env, tmp_path, monkeypatch, capsys):
    assert run_command(["describe", "-f", "channels"]) == 0
    pin_file = tmp_path / "channels.scm"
    pin_file.write_text(capsys.readouterr().out)
    made = []
    monkeypatch.setattr(cli, "make_parser",
                        lambda real=cli.make_parser: made.append(1) or real())
    assert run_command(["time-machine", "-C", str(pin_file), "--", "describe"]) == 0
    assert "Generation 1" in capsys.readouterr().out
    assert len(made) == 1


def test_warm_package_serializes_each_derivation_once(env, tmp_path, monkeypatch):
    """A warm `package -m` of an N-package chain serializes N derivations,
    each once: to hash it when it is instantiated."""
    n = 12
    pkgs = [PackageDef(name=f"p{i}", version="1", deps=[f"p{i - 1}"] if i else [],
                       steps=[d.write(f"share/p{i}", b"{p%d}\n" % (i - 1) if i else b"")])
            for i in range(n)]
    env["repo_obj"].commit_revision(pkgs, parent=env["repo_obj"].head(),
                                    message="chain")
    manifest = tmp_path / "manifest.scm"
    manifest.write_text("(specifications->manifest '(%s))\n"
                        % " ".join(f'"p{i}"' for i in range(n)))
    assert run_command(["package", "-m", str(manifest)]) == 0
    calls = []
    real = d.canonical_serialize
    counted = lambda drv: calls.append(drv.label) or real(drv)  # noqa: E731
    for module in (d, manifest_mod, builder):
        monkeypatch.setattr(module, "canonical_serialize", counted)
    assert run_command(["package", "-m", str(manifest)]) == 0
    assert sorted(calls) == sorted(f"p{i}-1" for i in range(n))


def test_describe_formats(env, capsys):
    assert run_command(["describe"]) == 0
    human = capsys.readouterr().out
    assert "Generation 1" in human

    assert run_command(["describe", "-f", "channels"]) == 0
    pin = capsys.readouterr().out
    assert pin.startswith("(channels")
    assert env["repo_obj"].head().hex in pin


def test_describe_without_head(env, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MICROFOLD_CHANNEL_REPO", str(tmp_path / "empty"))
    assert run_command(["describe"]) == 1


def test_pull_from_remote(env, tmp_path, monkeypatch, capsys):
    clone_root = tmp_path / "clone"
    monkeypatch.setenv("MICROFOLD_CHANNEL_REPO", str(clone_root))
    assert run_command(["pull", "--url", f"file://{env['repo']}"]) == 0
    head = capsys.readouterr().out.strip()
    assert head == env["repo_obj"].head().hex


def test_time_machine_replays_pinned_revision(env, tmp_path, capsys):
    assert run_command(["describe", "-f", "channels"]) == 0
    pin_file = tmp_path / "channels.scm"
    pin_file.write_text(capsys.readouterr().out)

    # channel moves on: python 3.9 -> 3.10
    env["repo_obj"].commit_revision(fixture_packages_v2(),
                                    parent=env["repo_obj"].head(),
                                    message="upgrades")
    assert run_command(["build", "python"]) == 0
    assert capsys.readouterr().out.strip().endswith("-python-3.10")

    assert run_command(["time-machine", "-C", str(pin_file), "--",
                        "build", "python"]) == 0
    assert capsys.readouterr().out.strip().endswith("-python-3.9")


def test_time_machine_package_records_replayed_pin(env, tmp_path, capsys):
    assert run_command(["describe", "-f", "channels"]) == 0
    pin_file = tmp_path / "channels.scm"
    r1_pin = capsys.readouterr().out
    pin_file.write_text(r1_pin)
    r2 = env["repo_obj"].commit_revision(fixture_packages_v2(),
                                         parent=env["repo_obj"].head(),
                                         message="upgrades")
    manifest = tmp_path / "manifest.scm"
    manifest.write_text(MANIFEST)
    assert run_command(["time-machine", "-C", str(pin_file), "--",
                        "package", "-m", str(manifest)]) == 0
    recorded = (env["profile"] / "generations/1/channels.scm").read_text()
    assert recorded == r1_pin
    assert r2.id.hex not in recorded


def test_time_machine_missing_command(env, tmp_path, capsys):
    pin_file = tmp_path / "channels.scm"
    run_command(["describe", "-f", "channels"])
    pin_file.write_text(capsys.readouterr().out)
    assert run_command(["time-machine", "-C", str(pin_file)]) == 1


def test_challenge_agree_and_disagree(env, tmp_path, capsys):
    assert run_command(["build", "python"]) == 0
    store = Store(env["store"])
    path = [p for p in (store.root / "items").iterdir()
            if p.name.endswith("-python-3.9")][0]
    from microfold.store import StorePath
    sp = StorePath.from_component(store.root, path.name)
    cache = tmp_path / "cache"
    publish(store, sp, cache)
    capsys.readouterr()

    assert run_command(["challenge", "python",
                        "--substitute-url", str(cache)]) == 0
    assert "agree" in capsys.readouterr().out

    blob = cache / "carc" / sp.digest_prefix
    blob.write_bytes(blob.read_bytes().replace(b"3.9", b"3.8"))
    assert run_command(["challenge", "python",
                        "--substitute-url", str(cache)]) == 2
    assert "disagree" in capsys.readouterr().out


def test_build_with_substitute_url(env, tmp_path, monkeypatch, capsys):
    assert run_command(["build", "python"]) == 0
    store = Store(env["store"])
    comp = capsys.readouterr().out.strip().split("/")[-1]
    from microfold.store import StorePath
    cache = tmp_path / "cache"
    publish(store, StorePath.from_component(store.root, comp), cache)

    monkeypatch.setenv("MICROFOLD_STORE", str(tmp_path / "store2"))
    assert run_command(["build", "python",
                        "--substitute-url", str(cache)]) == 0
    assert Store(tmp_path / "store2").verify_item(
        StorePath.from_component(tmp_path / "store2", comp)).ok


def test_graph_output(env, capsys):
    assert run_command(["graph", "python-scipy"]) == 0
    plain = capsys.readouterr().out
    assert "python-scipy-1.6" in plain and "python-numpy-1.20" in plain
    assert "->" in plain

    assert run_command(["graph", "python-scipy", "--dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")


def test_archive_ingest_and_lookup(env, tmp_path, capsys):
    blob = tmp_path / "release.tar"
    blob.write_bytes(b"tarball bytes")
    assert run_command(["archive", "ingest", str(blob)]) == 0
    digest = capsys.readouterr().out.strip()
    assert len(digest) == 64

    assert run_command(["archive", "lookup", digest]) == 0
    out = capsys.readouterr().out
    assert out.startswith("present") and "origin: file://" in out

    assert run_command(["archive", "lookup", "ab" * 32]) == 1
    assert capsys.readouterr().out.startswith("absent")


def test_seed_add_and_audit(env, tmp_path, capsys):
    assert run_command(["build", "app-alpha"]) == 0
    capsys.readouterr()
    assert run_command(["seed", "audit", "app-alpha"]) == 0
    out = capsys.readouterr().out
    assert "verdict: trusted" in out
    assert "toolchain-1.0" in out
    assert "total_seed_bytes:" in out


def test_seed_audit_flags_opaque_component(env, capsys):
    store = Store(env["store"])
    opaque = store.add_fixed(carc.File(b"mystery"), "rogue", kind="fixed")
    assert run_command(["seed", "audit", opaque.component]) == 2
    out = capsys.readouterr().out
    assert "verdict: opaque" in out
    assert f"opaque {opaque.component} no-source-provenance" in out


def test_store_flag_overrides_env(env, tmp_path, capsys):
    alt = tmp_path / "alt-store"
    register_seed(Store(alt), seed_tree(), "toolchain-1.0")
    assert run_command(["--store", str(alt), "build", "python"]) == 0
    out = capsys.readouterr().out.strip()
    assert str(alt) in out


def test_verify_reports_changed_and_missing_items(env, capsys):
    assert run_command(["build", "python"]) == 0
    item = Path(capsys.readouterr().out.strip())
    assert run_command(["verify"]) == 0
    assert capsys.readouterr().out == ""

    victim = next(p for p in sorted(item.rglob("*")) if p.is_file())
    data = bytearray(victim.read_bytes())
    data[0] ^= 1
    victim.write_bytes(bytes(data))
    assert run_command(["verify", "--store", str(env["store"])]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"mismatch {item.name}: recorded ")

    seed = next(p for p in (env["store"] / "items").iterdir()
                if p.name.endswith("-toolchain-1.0"))
    shutil.rmtree(seed)
    assert run_command(["--store", str(env["store"]), "verify"]) == 2
    assert sorted(capsys.readouterr().out.splitlines()) == sorted(
        [lines[0], f"missing {seed.name}"])


def test_verify_reports_a_derivation_edited_in_place(env, capsys):
    assert run_command(["build", "python"]) == 0
    capsys.readouterr()
    drvs = sorted((env["store"] / "db" / "drvs").iterdir())
    assert drvs
    victim = drvs[0]
    data = bytearray(victim.read_bytes())
    at = data.index(b"(name ") + len(b'(name "')
    data[at] ^= 2  # still parses, under a name it no longer hashes to
    victim.write_bytes(bytes(data))
    assert run_command(["verify"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and victim.name in lines[0]
