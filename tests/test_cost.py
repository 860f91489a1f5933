"""Complexity tests: one operation run at two sizes, its file and process
events counted (tests/cost.py) instead of timed."""

import pytest

import carc_model
from cost import WRITES, counting
from microfold import derivation as d
from microfold.builder import BuildOptions, Builder
from microfold.channel import ChannelRepo, PackageDef
from microfold.cli import run_command
from microfold.derivation import Derivation, register_derivation
from microfold.store import Store

from conftest import on_disk
from test_substitute import unserved_chain

STORE = {"store", "tmp"}


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """Two store roots, each holding the same 2 seeds, among 0 and among
    500 unrelated items."""
    tmp = tmp_path_factory.mktemp("stores")
    roots = []
    for k in (0, 500):
        store = Store(tmp / f"store-{k}")
        for i in range(2):
            store.add_fixed(on_disk(carc_model.File(b"tool %d" % i), tmp),
                            f"tool-{i}", kind="seed")
        for i in range(k):
            store.add_fixed(on_disk(carc_model.File(b"item %d" % i), tmp), f"item-{i}")
        roots.append(store.root)
    return roots


def test_a_build_opens_as_many_files_in_a_larger_store(stores):
    counts = []
    for root in stores:
        drv_hash = register_derivation(Store(root), Derivation(
            name="one", version="1", steps=[d.write("f", b"one step")]))
        with counting(store=root) as c:
            Builder(Store(root)).build([drv_hash])
        counts.append(c.under(STORE))
    assert counts[0] == counts[1]
    assert counts[0].where({"open-read"}, STORE) > 0


def test_seeds_open_only_the_seed_records(stores):
    for root in stores:
        with counting(store=root) as c:
            assert len(Store(root).seeds()) == 2
        assert c.under(STORE) == {("open-read", "store"): 2}


@pytest.fixture
def chain(tmp_path, monkeypatch):
    """make(n): a command environment whose channel holds an n-package
    chain, p0 (with an inline source) up to p<n-1>, each naming the output
    of the one below; the paths of its roots."""
    def make(n):
        paths = {}
        for name, var in (("store", "STORE"), ("channel", "CHANNEL_REPO"),
                          ("archive", "ARCHIVE"), ("profile", "PROFILE")):
            paths[name] = tmp_path / name
            monkeypatch.setenv(f"MICROFOLD_{var}", str(paths[name]))
        pkgs = [PackageDef(name=f"p{i}", version="1", deps=[f"p{i - 1}"] if i else [],
                           source=None if i else b"p0 source",
                           steps=[d.write(f"share/p{i}", b"{p%d}\n" % (i - 1) if i else b"")])
                for i in range(n)]
        ChannelRepo(paths["channel"]).commit_revision(pkgs, message="chain")
        return paths
    return make


@pytest.mark.parametrize("n", [5, 20])
def test_a_warm_package_writes_nothing_to_the_store(chain, tmp_path, n):
    paths = chain(n)
    manifest = tmp_path / "manifest.scm"
    manifest.write_text("(specifications->manifest '(%s))\n"
                        % " ".join(f'"p{i}"' for i in range(n)))
    assert run_command(["package", "-m", str(manifest)]) == 0
    with counting(**paths) as c:
        assert run_command(["package", "-m", str(manifest)]) == 0
    assert c.where({"open-read"}, STORE) >= n
    assert c.where(WRITES, STORE | {"archive"}) == 0


@pytest.mark.parametrize("n", [5, 20])
@pytest.mark.parametrize("command", [["graph"], ["seed", "audit"], ["challenge"]],
                         ids=["graph", "seed-audit", "challenge"])
def test_a_read_of_a_built_store_writes_nothing(chain, capsys, command, n):
    paths = chain(n)
    top = f"p{n - 1}"
    assert run_command(["build", top]) == 0
    with counting(**paths) as c:
        run_command([*command, top])
    assert "error" not in capsys.readouterr().err
    assert c.where({"open-read"}, {"channel"}) >= n
    assert c.where(WRITES, STORE | {"archive"}) == 0


@pytest.mark.parametrize("n", [10, 20])
def test_a_substitute_reads_the_cache_linearly(tmp_path, n):
    """The bottom of an n-level chain is unpublished: about 2 cache reads
    per level, however deep the chain."""
    _, consumer, cache, top = unserved_chain(tmp_path, n)
    with counting(store=consumer.root) as c:
        Builder(consumer, options=BuildOptions(caches=[cache])).build([top])
    assert 0 < c.where({"stream"}, {"other"}) <= 2 * n + 2
