import argparse
import functools
import http.server
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import carc_model
from microfold import builder, cli, errors, manifest, transport
from microfold.bootstrap import register_seed
from microfold.builder import build
from microfold.channel import ChannelPin, ChannelRepo, PackageDef, parse_pin, render_pin
from microfold.cli import run_command
from microfold.derivation import (Derivation, Step, canonical_serialize,
                                  derivation_hash)
from microfold import derivation as d
from microfold.errors import MicrofoldError
from microfold.hashing import ContentHash
from microfold.profile import Profile
from microfold.store import Store, StorePath, parse_fields, render_fields
from microfold.substitute import fetch_substitute, publish

from conftest import RANDOM_TOOL, fixture_packages, fixture_packages_v2, on_disk, seed_tree

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
    register_seed(Store(paths["store"]), on_disk(seed_tree(), tmp_path), "toolchain-1.0")
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


def test_build_derivation_file_registers_it_first(env, tmp_path, capsys):
    """`build FILE` builds the derivation the store holds: its record's
    deriver is there, so the audit of what it built is trusted."""
    drv = Derivation(name="hand", version="1", steps=[d.write("f", b"by hand")])
    drv_file = tmp_path / "hand.drv"
    drv_file.write_bytes(canonical_serialize(drv))
    assert run_command(["build", str(drv_file)]) == 0
    path = Path(capsys.readouterr().out.strip())
    store = Store(env["store"])
    assert store.get_derivation_bytes(derivation_hash(drv)) == drv_file.read_bytes()
    assert run_command(["seed", "audit", path.name]) == 0
    assert capsys.readouterr().out.endswith("verdict: trusted\n")


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


def test_build_check_serializes_no_derivation_after_instantiation(env, monkeypatch,
                                                                 capsys):
    """`build <spec> --check 2` rebuilds from the bytes that instantiation
    put in the store: no round serializes or writes a derivation again."""
    calls = []
    real_check, real_put, real = cli.check_rebuild, Store.put_derivation, d.canonical_serialize

    def counting_check(*args, **kwargs):  # instantiation is over by now
        monkeypatch.setattr(d, "canonical_serialize",
                            lambda drv: calls.append("serialize") or real(drv))
        monkeypatch.setattr(Store, "put_derivation",
                            lambda self, *a: calls.append("put") or real_put(self, *a))
        return real_check(*args, **kwargs)
    monkeypatch.setattr(cli, "check_rebuild", counting_check)
    assert run_command(["build", "python-scipy", "--check", "2"]) == 0
    assert capsys.readouterr().out.endswith("\ndeterministic\n")
    assert calls == []


@pytest.mark.parametrize("command", ["graph", "seed audit"])
def test_graph_and_audit_serialize_no_derivation_after_instantiation(env, monkeypatch,
                                                                    command):
    """`graph` and `seed audit` walk by the derivation hashes the
    instantiator holds, and the audit by the derivers the store records:
    neither serializes a derivation to hash it again."""
    assert run_command(["build", "app-alpha"]) == 0
    calls = []
    real_instantiate, real = cli._instantiate, d.canonical_serialize

    def counting_instantiate(*args):
        result = real_instantiate(*args)
        monkeypatch.setattr(d, "canonical_serialize",
                            lambda drv: calls.append(drv.label) or real(drv))
        return result
    monkeypatch.setattr(cli, "_instantiate", counting_instantiate)
    assert run_command([*command.split(), "app-alpha"]) == 0
    assert calls == []


def test_deeply_nested_manifest_is_a_user_error(env, tmp_path, capsys):
    """The reader keeps open lists on a stack, so a manifest nested 2,000
    levels deep is rejected with one line, not a RecursionError."""
    manifest = tmp_path / "deep.scm"
    manifest.write_text("(specifications->manifest '(" + "(" * 2000 + ")" * 2000 + "))")
    assert run_command(["package", "-m", str(manifest)]) == 1
    assert capsys.readouterr().err.startswith(
        "microfold: error: spec entries must be strings")


def test_build_check_flags_nondeterminism(env, tmp_path, capsys):
    store = Store(env["store"])
    seed = register_seed(store, on_disk(carc_model.Dir({"bin": carc_model.Dir({
        "rand": carc_model.File(RANDOM_TOOL, executable=True)})}), tmp_path), "rng-1.0")
    drv = Derivation(name="flaky", version="1",
                     steps=[d.exec_(f"{seed.path.component}/bin/rand",
                                    "@out@/v")])
    drv_file = tmp_path / "flaky.drv"
    drv_file.write_bytes(canonical_serialize(drv))
    assert run_command(["build", str(drv_file), "--check", "2"]) == 2
    assert "nondeterministic" in capsys.readouterr().out


def test_build_check_rebuilds_what_a_cache_holds(env, tmp_path, capsys):
    """`build --check` compares rebuilds even when a cache holds the output:
    a round that downloaded it would report the published hash every time."""
    store = Store(env["store"])
    seed = register_seed(store, on_disk(carc_model.Dir({"bin": carc_model.Dir({
        "rand": carc_model.File(RANDOM_TOOL, executable=True)})}), tmp_path), "rng-1.0")
    drv = Derivation(name="flaky", version="1",
                     steps=[d.exec_(f"{seed.path.component}/bin/rand", "@out@/v")])
    drv_file = tmp_path / "flaky.drv"
    drv_file.write_bytes(canonical_serialize(drv))
    cache = tmp_path / "cache"
    publish(store, build(drv, store), cache)
    assert run_command(["build", str(drv_file), "--check", "2",
                        "--substitute-url", str(cache)]) == 2
    assert capsys.readouterr().out.endswith("\nnondeterministic\n")


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


# Modules that neither start-up nor a cold or warm `package -m` of pure steps
# needs: dataclass generation and its inspect chain, exec, logging, dates,
# file comparison, an executor, HTTP libraries, TLS, substitutes and seeds.
NOT_AT_START = {"dataclasses", "inspect", "subprocess", "logging", "datetime",
                "filecmp", "concurrent.futures", "urllib.request", "http.client",
                "email.parser", "ssl", "microfold.substitute", "microfold.bootstrap"}

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
    """A cold `package -m` into an empty store, which builds, then a warm
    one, which builds nothing, each in a fresh interpreter."""
    manifest = tmp_path / "manifest.scm"
    manifest.write_text(MANIFEST)
    for generation in (1, 2):
        proc = subprocess.run(
            [sys.executable, "-c", LOADED, "package", "-m", str(manifest)],
            env=_child_env(), capture_output=True, text=True, timeout=60)
        assert f"generation {generation}" in proc.stdout, proc.stderr
        code, imported, loaded = proc.stdout.splitlines()[-1].split(" ")
        assert code == "0"
        assert "microfold.cli" in imported.split(",")
        assert NOT_AT_START & set(imported.split(",")) == set()
        assert NOT_AT_START & set(loaded.split(",")) == set()


# Runs argv, then opens the profile at MICROFOLD_PROFILE, and prints the
# exit code and the directories that os.mkdir was asked to make.
MKDIRS = """
import os, sys
made = []
sys.addaudithook(lambda event, args: event == "os.mkdir" and made.append(args[0]))
from microfold.cli import run_command
from microfold.profile import Profile
code = run_command(sys.argv[1:])
Profile(os.environ["MICROFOLD_PROFILE"])
print(code, made)
"""


def test_a_warm_build_makes_no_directory(env):
    """The Store, Archive, ChannelRepo and Profile constructors make their
    layout only when the directory they make last is missing."""
    assert run_command(["build", "app-alpha"]) == 0
    Profile(env["profile"])
    proc = subprocess.run([sys.executable, "-c", MKDIRS, "build", "app-alpha"],
                          env=_child_env(), capture_output=True, text=True, timeout=60)
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_build_needs_at_least_one_worker(env, workers, capsys):
    assert run_command(["build", "python", "--workers", workers]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: microfold build")
    assert "argument --workers: expected a number of at least 1" in err


@pytest.mark.parametrize("rounds", ["0", "1", "-1"])
def test_build_check_needs_at_least_two_rounds(env, rounds, capsys):
    assert run_command(["build", "python", "--check", rounds]) == 1
    assert "argument --check: expected a number of at least 2" in capsys.readouterr().err
    assert Store(env["store"]).list_derivations() == []


@pytest.mark.parametrize("command", ["package", "challenge"])
def test_an_unknown_spec_leaves_no_derivation_of_the_others(env, tmp_path, command,
                                                             capsys):
    """Every spec is resolved before any is instantiated."""
    manifest = tmp_path / "m.scm"
    manifest.write_text('(specifications->manifest \'("python" "no-such-package"))\n')
    argv = {"package": ["package", "-m", str(manifest)],
            "challenge": ["challenge", "python", "no-such-package"]}[command]
    assert run_command(argv) == 1
    assert "no-such-package" in capsys.readouterr().err
    assert Store(env["store"]).list_derivations() == []


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
                        lambda *args, real=cli.make_parser: made.append(1) or real(*args))
    assert run_command(["time-machine", "-C", str(pin_file), "--", "describe"]) == 0
    assert "Generation 1" in capsys.readouterr().out
    assert len(made) == 1


def test_a_command_builds_only_its_own_subparser(env, tmp_path, monkeypatch, capsys):
    added = []
    real = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: added.append(name) or real(self, name, **kw))
    manifest = tmp_path / "manifest.scm"
    manifest.write_text(MANIFEST)
    assert run_command(["package", "-m", str(manifest)]) == 0
    assert added == ["package"]
    added.clear()
    assert run_command(["frobnicate"]) == 1  # names no command: all of them
    assert set(cli.COMMANDS) <= set(added)
    assert "invalid choice: 'frobnicate' (choose from 'build', 'package'" in \
        capsys.readouterr().err


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
    monkeypatch.setattr(d, "canonical_serialize", counted)  # its one caller's module
    assert run_command(["package", "-m", str(manifest)]) == 0
    assert sorted(calls) == sorted(f"p{i}-1" for i in range(n))


def test_describe_of_an_unknown_format_is_a_user_error(env, capsys):
    assert run_command(["describe", "-f", "bogus"]) == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


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


def test_pull_records_the_remote_by_its_absolute_path(env, tmp_path, monkeypatch, capsys):
    """A pin saved after `pull --url` of a relative path replays from any
    directory, with a channel repo that lacks the revision."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MICROFOLD_CHANNEL_REPO", str(tmp_path / "clone"))
    assert run_command(["pull", "--url", env["repo"].name]) == 0
    capsys.readouterr()
    assert run_command(["describe", "-f", "channels"]) == 0
    pin_file = tmp_path / "channels.scm"
    pin_file.write_text(capsys.readouterr().out)
    monkeypatch.chdir(tmp_path / "store")
    monkeypatch.setenv("MICROFOLD_CHANNEL_REPO", str(tmp_path / "fresh"))
    assert run_command(["time-machine", "-C", str(pin_file), "--", "describe"]) == 0
    assert f"repository URL: file://{env['repo']}\n" in capsys.readouterr().out


def test_describe_of_a_head_that_names_no_revision_exits_2(env, capsys):
    (env["repo"] / "HEAD").write_text("not a revision\n")
    assert run_command(["describe"]) == 2
    assert f"{env['repo'] / 'HEAD'}: " in capsys.readouterr().err


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


def test_time_machine_describes_the_pinned_revision(env, tmp_path, monkeypatch, capsys):
    assert run_command(["describe", "-f", "channels"]) == 0
    r1_pin = capsys.readouterr().out
    pin_file = tmp_path / "r1.scm"
    pin_file.write_text(r1_pin)
    r1 = env["repo_obj"].head()
    r2 = env["repo_obj"].commit_revision(fixture_packages_v2(), parent=r1,
                                         message="upgrades")
    reads = []
    real = transport.read_bytes
    monkeypatch.setattr(transport, "read_bytes", lambda *a: reads.append(a) or real(*a))
    assert run_command(["time-machine", "-C", str(pin_file), "--",
                        "describe", "-f", "channels"]) == 0
    assert capsys.readouterr().out == r1_pin
    assert reads == []  # a pin is printed without reading its revision or packages
    assert run_command(["time-machine", "-C", str(pin_file), "--", "describe"]) == 0
    human = capsys.readouterr().out
    assert human.startswith("Generation 1  ")
    assert f"    commit: {r1.hex}\n" in human
    assert r2.id.hex not in human


def test_a_generation_records_the_pin_it_built(env, tmp_path, monkeypatch, capsys):
    """A HEAD that moves while `package -m` runs does not change the pin its
    generation records: the command reads HEAD once."""
    repo = env["repo_obj"]
    built = repo.head()
    real_init = manifest.Instantiator.__init__

    def init_after_a_commit(self, *args, **kwargs):
        if repo.head() == built:
            repo.commit_revision(fixture_packages_v2(), parent=built, message="moved")
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(manifest.Instantiator, "__init__", init_after_a_commit)
    manifest_file = tmp_path / "manifest.scm"
    manifest_file.write_text(MANIFEST)
    assert run_command(["package", "-m", str(manifest_file)]) == 0
    assert "  python-3.9 " in capsys.readouterr().out
    assert repo.head() != built
    recorded = parse_pin((env["profile"] / "generations/1/channels.scm").read_text())
    assert [p.commit for p in recorded] == [built.hex]


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


def test_build_from_a_cache_that_lies_about_references(env, tmp_path, monkeypatch,
                                                      capsys):
    """A cache whose info files make two items, python and python-numpy,
    reference each other: a fetch of either fails and registers nothing,
    and `build --substitute-url` builds all three from source."""
    assert run_command(["build", "python-scipy"]) == 0
    store = Store(env["store"])
    scipy = StorePath.from_component(
        store.root, capsys.readouterr().out.strip().split("/")[-1])
    cache = tmp_path / "cache"
    for member in store.closure(scipy):
        publish(store, member, cache)
    by_label = {r.label: r for r in store.get_record(scipy).references}
    python, numpy = by_label["python-3.9"], by_label["python-numpy-1.20"]
    assert [r.component for r in store.get_record(numpy).references] == \
        [python.component]
    info_file = cache / "info" / python.digest_prefix
    info = parse_fields(info_file.read_text())
    info_file.write_text(render_fields({**info, "references": numpy.component}))

    fresh = Store(tmp_path / "store2")
    for item in (python, numpy):
        with pytest.raises(MicrofoldError):
            fetch_substitute(StorePath.from_component(fresh.root, item.component),
                             [cache], fresh)
    assert fresh.list_records() == []

    ran = []
    real_run = builder.Builder._run
    monkeypatch.setattr(builder.Builder, "_run", lambda self, drv, *args:
                        ran.append(drv.label) or real_run(self, drv, *args))
    monkeypatch.setenv("MICROFOLD_STORE", str(fresh.root))
    assert run_command(["build", "python-scipy",
                        "--substitute-url", str(cache)]) == 0
    assert sorted(ran) == ["python-3.9", "python-numpy-1.20", "python-scipy-1.6"]
    assert fresh.verify_item(StorePath.from_component(fresh.root, scipy.component)).ok


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


def test_a_store_without_a_seed_index_is_an_io_error(env, capsys):
    shutil.rmtree(env["store"] / "db" / "seeds")
    assert run_command(["build", "app-alpha"]) == 3
    assert f"{env['store']}/db/seeds" in capsys.readouterr().err


def test_seed_audit_flags_opaque_component(env, tmp_path, capsys):
    store = Store(env["store"])
    opaque = store.add_fixed(on_disk(carc_model.File(b"mystery"), tmp_path), "rogue",
                             kind="fixed")
    assert run_command(["seed", "audit", opaque.component]) == 2
    out = capsys.readouterr().out
    assert "verdict: opaque" in out
    assert f"opaque {opaque.component} no-source-provenance" in out


def test_store_flag_overrides_env(env, tmp_path, capsys):
    alt = tmp_path / "alt-store"
    register_seed(Store(alt), on_disk(seed_tree(), tmp_path), "toolchain-1.0")
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


@pytest.mark.parametrize("damage", [lambda data: data[:len(data) // 2],
                                    lambda data: data[:-1] + b"\xff"])
def test_verify_of_a_truncated_or_non_utf8_record_exits_2(env, capsys, damage):
    assert run_command(["build", "python"]) == 0
    component = Path(capsys.readouterr().out.strip()).name
    record = env["store"] / "db" / "items" / component
    record.write_bytes(damage(record.read_bytes()))
    assert run_command(["verify"]) == 2
    assert capsys.readouterr().out.startswith(f"bad {component}: {record}: ")


def test_verify_reports_every_damaged_record_and_checks_every_other_item(env, capsys):
    """A record that does not parse is one line of the report, not its end."""
    assert run_command(["build", "python-scipy"]) == 0
    capsys.readouterr()
    items = {p.name.split("-", 1)[1]: p for p in (env["store"] / "items").iterdir()}
    records = env["store"] / "db" / "items"
    for label, damage in (("python-numpy-1.20", lambda data: data[:len(data) // 2]),
                          ("python-scipy-1.6", lambda data: data[:-1] + b"\xff")):
        record = records / items[label].name
        record.write_bytes(damage(record.read_bytes()))
    victim = next(p for p in sorted(items["python-3.9"].rglob("*")) if p.is_file())
    victim.write_bytes(victim.read_bytes() + b"!")
    assert run_command(["verify"]) == 2
    lines = sorted(capsys.readouterr().out.splitlines())
    assert [line.split(":")[0] for line in lines] == [
        f"bad {items['python-numpy-1.20'].name}", f"bad {items['python-scipy-1.6'].name}",
        f"mismatch {items['python-3.9'].name}"]
    assert all(f"{records}/" in line for line in lines[:2])


def test_verify_reports_a_reference_with_no_record(env, capsys):
    assert run_command(["build", "python-scipy"]) == 0
    top = Path(capsys.readouterr().out.strip()).name
    store = Store(env["store"])
    [ghost, *_] = [r for r in store.get_record(top).references if r.component != top]
    (env["store"] / "db" / "items" / ghost.component).unlink()
    assert run_command(["verify"]) == 2
    assert sorted(capsys.readouterr().out.splitlines()) == sorted(
        f"dangling {rec.path.component}: {ghost.component}"
        for rec in Store(env["store"]).list_records() if ghost in rec.references)


def test_verify_reports_a_derived_record_whose_derivation_is_gone(env, capsys):
    assert run_command(["build", "python"]) == 0
    item = Path(capsys.readouterr().out.strip()).name
    deriver = Store(env["store"]).get_record(item).deriver
    (env["store"] / "db" / "drvs" / deriver.hex).unlink()
    assert run_command(["verify"]) == 2
    assert capsys.readouterr().out == f"missing deriver {item}: {deriver}\n"


def test_verify_reports_a_derivation_with_a_repeated_env_key(env, capsys):
    data = canonical_serialize(Derivation(name="dup", version="1")).replace(
        b"(env)", b'(env ("K" "1") ("K" "2"))')
    drv_hash = ContentHash.of_bytes(data)
    Store(env["store"]).put_derivation(drv_hash, data)
    assert run_command(["verify"]) == 2
    assert capsys.readouterr().out == f"bad {drv_hash.hex}: a key appears twice\n"


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


def test_a_rebuild_repairs_a_damaged_derivation_file(env, capsys):
    """A derivation file is named by the hash of its bytes: instantiating
    the derivation again rewrites it when it is damaged."""
    assert run_command(["build", "python"]) == 0
    victim = sorted((env["store"] / "db" / "drvs").iterdir())[0]
    intact = victim.read_bytes()
    victim.write_bytes(intact[:-1] + bytes([intact[-1] ^ 1]))
    assert run_command(["verify"]) == 2
    assert run_command(["build", "python"]) == 0
    assert victim.read_bytes() == intact
    assert run_command(["verify"]) == 0


# The exit code of every error class: 1 user error, 2 verification failure,
# 3 environment/IO failure.  These are the codes the CLI gave each class
# while it kept them in a table of its own.
EXIT_CODES = {
    "MicrofoldError": 1, "InvalidLabel": 1, "InvalidHash": 1, "StoreCorruption": 2,
    "DanglingReference": 1, "InvariantViolation": 1, "StepFailure": 3,
    "EscapedClosure": 1, "OutputCollision": 2, "SourceUnavailable": 3,
    "UnreachableRemote": 3, "CorruptRevision": 2, "ParseError": 1, "DependencyCycle": 1,
    "ProfileCollision": 1, "CorruptItem": 2, "CacheWriteError": 3,
    "SubstituteNotFound": 3, "AllProvidersCorrupt": 2, "ArchiveWriteError": 3,
}


def test_each_error_class_declares_its_exit_code():
    classes = {name: c for name, c in vars(errors).items()
               if isinstance(c, type) and issubclass(c, MicrofoldError)}
    assert {name: c.exit_code for name, c in classes.items()} == EXIT_CODES


def test_a_user_error_says_what_failed(env, tmp_path, capsys):
    twice = tmp_path / "twice.scm"
    twice.write_text('(specifications->manifest \'("python" "python"))\n')
    gone = tmp_path / "gone.scm"
    gone.write_text(render_pin([ChannelPin("c", "file://" + str(tmp_path / "gone"), "ab" * 32)]))
    for argv, said in [(["build", "nosuch"], "unknown package nosuch"),
                       (["build", "python@9"], "unknown version python@9"),
                       (["rollback", "5"], "unknown generation 5"),
                       (["package", "-m", str(twice)], "duplicate spec python"),
                       (["time-machine", "-C", str(gone), "--", "describe"],
                        "unknown revision " + "ab" * 32)]:
        assert run_command(argv) == 1
        assert capsys.readouterr().err == f"microfold: error: {said}\n"
