"""One golden for the whole state a fixed scenario leaves behind.

The scenario touches every kind of state file: two seeds (one holding a
symlink), `package -m` over an `exec` graph and a pure one, a second generation from the fixture's `v2`,
`time-machine` replay of the first pin, `rollback`, `archive ingest`, a
`publish` of every non-seed item and a substitute into a second store.  The
listing names every file under the state roots by its path, relative to the
scenario's root, with the SHA-256 of its bytes, and every symlink with its
target; the root is written `<ROOT>` in both, so the listing does not depend
on where the state lives.  `created.txt` holds a wall-clock time and is left
out.

A change that alters any state file changes this listing; such a change
regenerates the golden (`PYTHONPATH=src python tests/test_state_golden.py >
tests/golden_state.txt`) and names each changed file and the reason.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import carc_model
from microfold.channel import ChannelRepo
from microfold.cli import run_command
from microfold.store import Store
from microfold.substitute import publish

from conftest import fixture_packages, fixture_packages_v2, seed_tree

GOLDEN = Path(__file__).with_name("golden_state.txt")
STATE_ROOTS = ("archive", "cache", "channel", "profile", "store", "store2")
MANIFEST = """(specifications->manifest
 '("app-alpha" "python" "python-scipy" "python-numpy"))
"""


def _run(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command([str(a) for a in argv])
    assert code == 0, (argv, out.getvalue())
    return out.getvalue()


def run_scenario(root: Path):
    """Leave the scenario's state under root, in the STATE_ROOTS."""
    inputs = root / "inputs"
    inputs.mkdir(parents=True)
    flags = ("--store", root / "store", "--channel-repo", root / "channel",
             "--archive", root / "archive")
    profile = ("-p", root / "profile")
    carc_model.write_tree(seed_tree(), inputs / "toolchain")
    _run(*flags, "seed", "add", inputs / "toolchain", "--name", "toolchain-1.0",
         "--description", "fixture compiler seed")
    repo = ChannelRepo(root / "channel")
    r1 = repo.commit_revision(fixture_packages(), message="initial packages")
    (inputs / "manifest.scm").write_text(MANIFEST)
    package = ("package", "-m", inputs / "manifest.scm", *profile)
    _run(*flags, *package)
    (inputs / "r1.scm").write_text(_run(*flags, "describe", "-f", "channels"))
    repo.commit_revision(fixture_packages_v2(), parent=r1.id, message="upgrades")
    _run(*flags, *package)
    _run(*flags, "time-machine", "-C", inputs / "r1.scm", "--", *package)
    _run("rollback", *profile, "2")
    carc_model.write_tree(carc_model.Dir({
        "README": carc_model.File(b"ingested by hand\n"),
        "bin": carc_model.Dir({"run": carc_model.File(b"#!/bin/sh\n", executable=True)}),
        "link": carc_model.Symlink("README"),
    }), inputs / "src")
    _run(*flags, "archive", "ingest", inputs / "src")
    _run(*flags, "seed", "add", inputs / "src", "--name", "hand-src")
    store = Store(root / "store")
    for rec in store.list_records():
        if rec.kind != "seed":
            publish(store, rec.path, root / "cache")
    _run("--store", root / "store2", "--channel-repo", root / "channel",
         "--archive", root / "archive", "build", "python-scipy",
         "--substitute-url", root / "cache")


def listing(root: Path) -> str:
    """One line per file or symlink under the state roots: its path and
    the SHA-256 of its bytes, or `->` and its target; root is `<ROOT>`."""
    here, lines = os.fsencode(root), []
    for name in STATE_ROOTS:
        for top, dirs, files in os.walk(root / name):
            dirs.sort()
            for f in sorted(files + [d for d in dirs if os.path.islink(Path(top, d))]):
                path = Path(top, f)
                rel = path.relative_to(root)
                if f == "created.txt":
                    continue
                if path.is_symlink():
                    target = os.readlink(os.fsencode(path)).replace(here, b"<ROOT>")
                    lines.append(f"{rel} -> {os.fsdecode(target)}")
                else:
                    data = path.read_bytes().replace(here, b"<ROOT>")
                    lines.append(f"{rel} {hashlib.sha256(data).hexdigest()}")
    return "".join(line + "\n" for line in lines)


def _diff(want: str, got: str) -> list:
    def by_path(text):
        return dict(line.rsplit(" ", 1) for line in text.splitlines())
    want, got = by_path(want), by_path(got)
    return ([f"added {p}" for p in sorted(got.keys() - want.keys())]
            + [f"removed {p}" for p in sorted(want.keys() - got.keys())]
            + [f"changed {p}" for p in sorted(want.keys() & got.keys())
               if want[p] != got[p]])


def test_the_whole_state_matches_the_golden_at_two_roots(tmp_path):
    want = GOLDEN.read_text()
    for root in (tmp_path / "a", tmp_path / "a-root-of-another-length"):
        run_scenario(root)
        assert _diff(want, listing(root)) == []


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        run_scenario(Path(tmp, "state"))
        sys.stdout.write(listing(Path(tmp, "state")))
