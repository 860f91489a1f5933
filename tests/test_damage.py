"""No damaged byte in a state file ends a command in a traceback.

A built state (a pulled channel, a seed, a profile over a pure and an exec
graph, an archive entry with an origin, a cache) is copied once for each of
five mutations of one file of each kind, and the commands that read state
run on the copy.  Every run exits 0, 1, 2 or 3, and a run that fails names
the damaged file (its name is the item, revision or digest it holds).
"""

import contextlib
import io
import shutil
from pathlib import Path

import pytest

import carc_model
from microfold.channel import ChannelRepo
from microfold.cli import run_command
from microfold.store import Store
from microfold.substitute import publish

from conftest import fixture_packages, seed_tree

MANIFEST = """(specifications->manifest
 '("python" "python-numpy" "python-scipy" "app-beta"))
"""

MUTATIONS = {
    "empty": lambda data: b"",
    "first half": lambda data: data[:len(data) // 2],
    "last byte flipped": lambda data: data[:-1] + bytes([data[-1] ^ 0xFF]) if data else data,
    "not UTF-8": lambda data: b"(\xff\x00 ))",
    "open form appended": lambda data: data + b"\n(",
}

# One file of each kind, by a pattern that matches it under the state root.
KINDS = (
    "store/db/items/*-python-scipy-1.6",   # a derived item's record
    "store/db/items/*-toolchain-1.0",      # a seed's record
    "store/db/items/*-app-beta-1.0-source",  # a source's record
    "store/db/items/*-profile",            # a union's record
    "store/db/drvs/*",
    "store/db/seeds/*",
    "channel/HEAD",
    "channel/URL",
    "channel/revisions/*",
    "channel/objects/*",
    "archive/carc/*",
    "archive/origins/*",
    "profile/current",
    "profile/generations/1/store-path",
    "profile/generations/1/channels.scm",
    "profile/generations/1/hashes.txt",
    "cache/info/{scipy}",
    "cache/carc/{scipy}",
)


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = run_command([str(a) for a in argv])
    return code, out.getvalue()


def _commands(root: Path, ingested: str) -> list:
    flags = ["--store", root / "store", "--channel-repo", root / "channel",
             "--archive", root / "archive"]
    cache = ["--substitute-url", root / "cache"]
    return [flags + argv for argv in (
        ["build", "app-beta"],
        ["verify"],
        ["graph", "app-beta"],
        ["describe"],
        ["describe", "-f", "channels"],
        ["seed", "audit", "app-beta"],
        ["challenge", "python-scipy", *cache],
        ["package", "-m", root / "manifest.scm", "-p", root / "profile"],
        ["archive", "lookup", ingested],
    )] + [["--store", root / "store2", *flags[2:], "build", "python-scipy", *cache]]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """The built state's root and the hash of its archive entry."""
    root = tmp_path_factory.mktemp("damage") / "state"
    inputs = tmp_path_factory.mktemp("inputs")
    ChannelRepo(inputs / "remote").commit_revision(fixture_packages(), message="one")
    carc_model.write_tree(seed_tree(), inputs / "toolchain")
    (inputs / "source").write_bytes(b"ingested\n")
    root.mkdir()
    (root / "manifest.scm").write_text(MANIFEST)
    flags = ["--store", root / "store", "--channel-repo", root / "channel",
             "--archive", root / "archive"]
    for argv in (["pull", "--url", inputs / "remote"],
                 ["seed", "add", inputs / "toolchain", "--name", "toolchain-1.0"],
                 ["package", "-m", root / "manifest.scm", "-p", root / "profile"],
                 ["archive", "ingest", inputs / "source"]):
        code, out = _run(flags + argv)
        assert code == 0, out
    store = Store(root / "store")
    for rec in store.list_records():
        if rec.kind != "seed":
            publish(store, rec.path, root / "cache")
    return root, out.strip()


def test_no_damaged_state_file_ends_in_a_traceback(built, tmp_path):
    root, ingested = built
    undamaged = tmp_path / "undamaged"
    shutil.copytree(root, undamaged, symlinks=True)
    runs = [(argv[6:], *_run(argv)) for argv in _commands(undamaged, ingested)]
    assert [run for run in runs if run[1] != 0] == []
    scipy = next(root.glob("store/db/items/*-python-scipy-1.6")).name[:32]
    targets = [min(root.glob(kind.format(scipy=scipy))).relative_to(root)
               for kind in KINDS]
    escaped, unnamed = [], []
    for n, (target, (mutation, mutate)) in enumerate(
            (t, m) for t in targets for m in MUTATIONS.items()):
        work = tmp_path / str(n)
        shutil.copytree(root, work, symlinks=True)
        (work / target).write_bytes(mutate((work / target).read_bytes()))
        for argv in _commands(work, ingested):
            try:
                code, out = _run(argv)
            except Exception as e:  # the defect this test looks for
                escaped.append((str(target), mutation, argv[6:], repr(e)))
                continue
            if code not in (0, 1, 2, 3) or code and target.name not in out:
                unnamed.append((str(target), mutation, argv[6:], code, out))
        shutil.rmtree(work)
    assert escaped == []
    assert unnamed == []
