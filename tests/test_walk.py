"""The one graph walker (store.postorder) and the walks built on it, on
generated graphs and on a dependency chain 2,000 levels deep."""

import contextlib
import io
import os
import random
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from microfold import carc
from microfold import derivation as d
from microfold.builder import BuildOptions, Builder
from microfold.channel import ChannelRepo, PackageDef
from microfold.cli import run_command
from microfold.errors import DependencyCycle
from microfold.hashing import ContentHash
from microfold.manifest import Instantiator
from microfold.store import Store, StorePath, postorder, render_fields
from microfold.substitute import fetch_substitute


class _Cycle(Exception):
    pass


def reference_postorder(roots, edges):
    """The recursive walk that postorder replaces: the nodes it yields, in
    order, and the cycle that stopped it (None when none did)."""
    order, done, path = [], set(), []

    def visit(node):
        if node in done:
            return
        if node in path:
            raise _Cycle(path[path.index(node):] + [node])
        path.append(node)
        for child in edges[node]:
            visit(child)
        path.pop()
        done.add(node)
        order.append(node)

    try:
        for root in roots:
            visit(root)
    except _Cycle as e:
        return order, e.args[0]
    return order, None


@st.composite
def graphs(draw):
    """(roots, edges) over nodes 0..n-1, n <= 12: edges[node] lists the
    node's children, repeats and self-loops allowed."""
    n = draw(st.integers(0, 12))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.lists(node, max_size=4), min_size=n, max_size=n))
    return (draw(st.lists(node, max_size=4)) if n else []), edges


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_postorder_matches_the_recursive_walk(graph):
    """Self-loops, cycles, repeated edges and roots included."""
    roots, edges = graph
    calls = Counter()

    def children(node):
        calls[node] += 1
        return edges[node]

    got, cycle = [], None
    try:
        for node in postorder(roots, children):
            got.append(node)
    except DependencyCycle as e:
        cycle = e.chain
    expected, expected_cycle = reference_postorder(roots, edges)
    assert got == expected
    assert cycle == expected_cycle
    assert max(calls.values(), default=1) == 1
    if cycle is None:
        assert set(calls) == set(got)
    else:
        assert cycle[0] == cycle[-1]
        assert all(b in edges[a] for a, b in zip(cycle, cycle[1:]))


def random_packages(seed: int, n: int) -> dict:
    """n pure-step packages, each depending on one to three of the six
    before it."""
    rng = random.Random(seed)
    pkgs = {}
    for i in range(n):
        picks = rng.sample(range(max(0, i - 6), i), min(i, rng.randint(1, 3)))
        pkg = PackageDef(name=f"r{i:02d}", version="1",
                         deps=[f"r{j:02d}" for j in sorted(picks)],
                         steps=[d.write("f", f"r{i:02d}".encode())])
        pkgs[pkg.key] = pkg
    return pkgs


def test_one_worker_runs_in_the_planned_order(store, monkeypatch):
    """A characterization: the order in which the recursive planner had a
    single worker run a seeded random graph of 25 packages, three roots."""
    pkgs = random_packages(16, 25)
    inst = Instantiator(pkgs, store=store)
    roots = [inst.instantiate(pkgs[k]) for k in ("r22@1", "r24@1", "r17@1")]
    ran = []
    real_run = Builder._run

    def spy(self, drv, *args):
        ran.append(drv.name)
        return real_run(self, drv, *args)

    monkeypatch.setattr(Builder, "_run", spy)
    Builder(store, options=BuildOptions(workers=1)).build(roots)
    assert ran == ["r00", "r01", "r03", "r02", "r04", "r09", "r05", "r07",
                   "r11", "r10", "r13", "r14", "r06", "r08", "r12", "r16",
                   "r17", "r22", "r18", "r21", "r24"]


DEPTH = 2000


@pytest.fixture
def mem_path(tmp_path):
    """A fresh directory in memory where the machine has /dev/shm (these
    tests write thousands of small files), else tmp_path."""
    if not os.access("/dev/shm", os.W_OK):
        yield tmp_path
        return
    path = Path(tempfile.mkdtemp(dir="/dev/shm"))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def test_a_chain_2000_levels_deep(mem_path, monkeypatch):
    """build, package -m, graph and seed audit, at the default recursion
    limit, on a chain whose steps do not name their inputs."""
    assert sys.getrecursionlimit() <= 1000
    for var, sub in (("STORE", "store"), ("CHANNEL_REPO", "channel"),
                     ("ARCHIVE", "archive"), ("PROFILE", "profile")):
        monkeypatch.setenv(f"MICROFOLD_{var}", str(mem_path / sub))
    ChannelRepo(mem_path / "channel").commit_revision([
        PackageDef(name=f"c{i:04d}", version="1",
                   deps=[f"c{i - 1:04d}"] if i else [],
                   steps=[d.write("f", f"c{i:04d}".encode())])
        for i in range(DEPTH)], message="chain")
    top = f"c{DEPTH - 1:04d}"
    manifest = mem_path / "manifest.scm"
    manifest.write_text(f"(specifications->manifest '(\"{top}\"))\n")
    outputs = {}
    for argv in (["build", top], ["package", "-m", str(manifest)],
                 ["graph", top], ["seed", "audit", top]):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run_command(argv) == 0, argv
        outputs[argv[0]] = out.getvalue()
    assert len(Store(mem_path / "store").list_records()) == DEPTH + 1  # and the profile
    assert outputs["graph"].count(" -> ") == DEPTH - 1
    assert "verdict: trusted" in outputs["seed"]


def test_substitute_a_reference_chain_2000_items_long(mem_path):
    cache = mem_path / "cache"
    (cache / "info").mkdir(parents=True)
    (cache / "carc").mkdir()
    refs = []
    for i in range(DEPTH):
        data = b"item %d\n" % i
        archive = carc.MAGIC + carc.file_header(len(data)) + data
        digest = ContentHash.of_bytes(archive)
        (cache / "carc" / digest.prefix).write_bytes(archive)
        (cache / "info" / digest.prefix).write_text(render_fields({
            "storepath": f"{digest.prefix}-item{i}", "outputhash": digest.hex,
            "size": str(len(archive)), "references": " ".join(refs)}))
        refs = [f"{digest.prefix}-item{i}"]
    store = Store(mem_path / "store")
    top = StorePath.from_component(store.root, refs[0])
    assert fetch_substitute(top, [cache], store) == top
    assert len(store.closure(top)) == DEPTH
    assert store.verify_item(top).ok
