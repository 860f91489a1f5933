import hashlib
import os
import random
import shutil
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import carc_model
from microfold.errors import (DanglingReference, DependencyCycle, InvalidHash,
                              InvalidLabel, OutputCollision)
from microfold.hashing import ContentHash
from microfold.store import Staged, Store, StorePath, parse_fields, render_fields

from conftest import on_disk
from test_carc import random_tree

# Oracle: sha256 of the hand-written CARC literal for the file "hello".
HELLO_CARC_HASH = hashlib.sha256(b"carc1\nf\n5\nhello").hexdigest()


def staged(store, node) -> Staged:
    """The in-memory tree node written under the store's tmp/ as a Staged
    tree (as register_output takes it), hashed by the reference model."""
    dest = on_disk(node, store.root / "tmp")
    return Staged(dest, carc_model.hash_tree(node), len(carc_model.serialize_tree(node)))


def add(store, data: bytes, label, **kwargs):
    """add_fixed of a single file holding data, written to disk first."""
    return store.add_fixed(on_disk(carc_model.File(data), store.root.parent),
                           label, **kwargs)


def test_add_fixed_idempotent(store):
    p1 = add(store, b"hello", "greeting-1.0")
    p2 = add(store, b"hello", "greeting-1.0")
    assert p1 == p2
    assert p1.path.read_bytes() == b"hello"


def test_add_fixed_content_addressed(store):
    p1 = add(store, b"hello", "greeting-1.0")
    p2 = add(store, b"hellO", "greeting-1.0")
    assert p1.digest_prefix != p2.digest_prefix


def test_add_fixed_digest_matches_oracle(store):
    p = add(store, b"hello", "greeting-1.0")
    assert p.digest_prefix == HELLO_CARC_HASH[:32]
    assert p.component == HELLO_CARC_HASH[:32] + "-greeting-1.0"


def test_record_bytes_match_oracle(store):
    p = add(store, b"hello", "greeting-1.0")
    record = store.root / "db" / "items" / p.component
    assert record.read_text() == (f"kind: fixed\noutputhash: {HELLO_CARC_HASH}\n"
                                  "references: \nsize: 15\n")


def test_register_output_is_write_once(store):
    target = StorePath(store.root, "0" * 32, "out-1")
    deriver = ContentHash("ab" * 32)
    one, two = (carc_model.Dir({"f": carc_model.File(data)}) for data in (b"one", b"two"))
    rec = store.register_output(staged(store, one), target,
                                deriver=deriver, references=[])
    assert rec.kind == "derived"
    record = store.root / "db" / "items" / target.component
    before = record.read_bytes()
    again = store.register_output(staged(store, one), target,
                                  deriver=deriver, references=[])
    assert again.output_hash == rec.output_hash
    with pytest.raises(OutputCollision):
        store.register_output(staged(store, two), target,
                              deriver=deriver, references=[])
    assert record.read_bytes() == before
    assert store.verify_item(target).ok


def test_items_enter_only_as_paths_or_staged_trees(store):
    for content in (b"hello", carc_model.File(b"hello")):
        with pytest.raises(TypeError):
            store.add_fixed(content, "greeting-1.0")
    assert store.list_records() == [] and os.listdir(store.root / "tmp") == []


def test_invalid_labels_rejected(store):
    for label in ("", "a/b", "a b", "a\x00b", "café", "a\n"):
        with pytest.raises(InvalidLabel):
            add(store, b"x", label)


def test_a_digest_or_component_is_checked_whole(tmp_path):
    """A name that ends in a newline is refused, not matched up to it."""
    with pytest.raises(InvalidHash):
        ContentHash("a" * 64 + "\n")
    with pytest.raises(InvalidLabel):
        StorePath.from_component(tmp_path, "0" * 32 + "-a\n")


def test_store_path_equality_is_by_component(tmp_path):
    a = StorePath(tmp_path / "s1", "0" * 32, "x-1")
    b = StorePath(tmp_path / "s2", "0" * 32, "x-1")
    assert a == b and hash(a) == hash(b)


def test_verify_ok_mismatch_missing(store):
    tree = carc_model.Dir({"f": carc_model.File(b"data")})
    p = store.add_fixed(on_disk(tree, store.root.parent), "item-1")
    assert store.verify_item(p).ok

    # flip one byte on disk
    target = p.path / "f"
    target.write_bytes(b"dataX")
    report = store.verify_item(p)
    assert report.status == "mismatch"
    assert report.expected is not None and report.actual is not None
    assert report.expected != report.actual

    ghost = StorePath(store.root, "ab" * 16, "never-1")
    assert store.verify_item(ghost).status == "missing"


def test_verify_after_insert_random_trees(store):
    rng = random.Random(7)
    for i in range(30):
        tree = random_tree(rng)
        p = store.add_fixed(on_disk(tree, store.root.parent), f"rand-{i}")
        assert store.verify_item(p).ok


def test_corruption_detected_on_reinsert(store):
    p = add(store, b"abc", "thing-1")
    rec_file = Path(store._record_path(p.component))
    rec_file.write_text(rec_file.read_text().replace(
        p.digest_prefix, "f" * 32).replace(
        store.get_record(p).output_hash.hex, "f" * 64))
    tampered = rec_file.read_bytes()
    with pytest.raises(OutputCollision):
        add(store, b"abc", "thing-1")
    assert rec_file.read_bytes() == tampered


def _with_refs(store, content, label, refs):
    p = add(store, content, label, references=refs)
    return p


def test_closure_trivial(store):
    p = add(store, b"leaf", "leaf-1")
    assert store.closure(p) == [p]


def test_closure_chain(store):
    c = add(store, b"c", "c-1")
    b = _with_refs(store, b"b", "b-1", [c])
    a = _with_refs(store, b"a", "a-1", [b])
    assert store.closure(a) == [c, b, a]


def test_closure_diamond_matches_bruteforce(store):
    d = add(store, b"d", "d-1")
    b = _with_refs(store, b"b", "b-1", [d])
    c = _with_refs(store, b"c", "c-1", [d])
    a = _with_refs(store, b"a", "a-1", [b, c])

    # independent oracle: brute-force reachability on the 4-node graph
    edges = {a.component: {b.component, c.component},
             b.component: {d.component}, c.component: {d.component},
             d.component: set()}
    reach = {a.component}
    changed = True
    while changed:
        changed = False
        for n in list(reach):
            new = edges[n] - reach
            if new:
                reach |= new
                changed = True

    result = store.closure(a)
    assert {p.component for p in result} == reach
    assert len(result) == 4
    assert result.count(d) == 1


def test_closure_monotone(store):
    c = add(store, b"c", "c-1")
    b = _with_refs(store, b"b", "b-1", [c])
    a = _with_refs(store, b"a", "a-1", [b])
    for q in store.closure(a):
        inner = {p.component for p in store.closure(q)}
        assert inner <= {p.component for p in store.closure(a)}


def test_closure_order_stable_across_roots(tmp_path):
    orders = []
    for name in ("s1", "s2"):
        store = Store(tmp_path / name)
        d = add(store, b"d", "d-1")
        b = _with_refs(store, b"b", "b-1", [d])
        c = _with_refs(store, b"c", "c-1", [d])
        a = _with_refs(store, b"a", "a-1", [c, b])
        orders.append([p.component for p in store.closure(a)])
    assert orders[0] == orders[1]


def test_closure_dangling_reference(store):
    ghost = add(store, b"ghost", "ghost-1")
    a = add(store, b"a", "a-1", references=[ghost])
    os.unlink(store.root / "db" / "items" / ghost.component)
    with pytest.raises(DanglingReference, match="dangling reference " + ghost.component):
        Store(store.root).closure(a)


@pytest.mark.parametrize("via", ["add_fixed", "register_output"])
def test_an_item_is_refused_while_a_reference_has_no_record(store, via):
    """The closure invariant is checked where an item is admitted: nothing
    of an item whose reference the store lacks is written."""
    ghost = StorePath(store.root, "ab" * 16, "ghost-1")
    with pytest.raises(DanglingReference, match="dangling reference " + ghost.component):
        if via == "add_fixed":
            add(store, b"a", "a-1", references=[ghost])
        else:
            tree = staged(store, carc_model.File(b"a"))
            store.register_output(tree, StorePath(store.root, "cd" * 16, "a-1"),
                                  deriver=None, references=[ghost])
    assert os.listdir(store.root / "db" / "items") == []
    assert os.listdir(store.root / "items") == []
    if via == "add_fixed":
        assert os.listdir(store.root / "tmp") == []


def test_concurrent_registration_single_item(store):
    paths = []
    errs = []

    def worker():
        try:
            paths.append(add(store, b"shared", "shared-1"))
        except Exception as e:  # pragma: no cover
            errs.append(e)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errs
    assert len({p.component for p in paths}) == 1
    assert store.verify_item(paths[0]).ok


def test_missing_record_is_not_cached(tmp_path):
    store = Store(tmp_path / "store")
    target = StorePath(store.root, HELLO_CARC_HASH[:32], "greeting-1.0")
    assert store.get_record(target) is None
    add(Store(store.root), b"hello", "greeting-1.0")  # another writer
    assert store.get_record(target).output_hash.hex == HELLO_CARC_HASH


def test_record_write_is_atomic(store, monkeypatch):
    def crash(src, dst):
        raise OSError("crashed before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        add(store, b"hello", "greeting-1.0")
    monkeypatch.undo()
    target = StorePath(store.root, HELLO_CARC_HASH[:32], "greeting-1.0")
    assert store.get_record(target) is None
    reader = Store(store.root)
    assert reader.get_record(target) is None
    assert reader.list_records() == []


def test_seed_index_grows_with_own_inserts(store):
    assert store.seeds() == []
    p = add(store, b"tool", "tool-1", kind="seed")
    add(store, b"plain", "plain-1")
    assert [r.path for r in store.seeds()] == [p]


def _count_calls(monkeypatch, name) -> list:
    """The components (or nothing) that Store.<name> is called with."""
    calls, real = [], getattr(Store, name)

    def counting(self, *args):
        calls.append(args[0] if args else None)
        return real(self, *args)
    monkeypatch.setattr(Store, name, counting)
    return calls


def test_seeds_read_only_the_seed_records(store, monkeypatch):
    seeds = [add(store, b"tool %d" % i, f"tool-{i}", kind="seed") for i in range(2)]
    for i in range(500):
        add(store, b"item %d" % i, f"item-{i}")
    reads = _count_calls(monkeypatch, "_read_record")
    assert [r.path for r in Store(store.root).seeds()] == sorted(
        seeds, key=lambda p: p.component)
    assert sorted(reads) == sorted(p.component for p in seeds)


def test_a_crash_at_any_write_of_a_seed_registration_loses_no_seed(
        tmp_path, monkeypatch):
    """The process dies at the n-th write of a seed registration, for every
    n (each later write fails too): a fresh Store lists the new seed if and
    only if its record landed, and the old seeds always."""
    template = tmp_path / "template"
    old = [add(Store(template), b"old tool", "old-1", kind="seed")]
    writes = os.O_WRONLY | os.O_RDWR | os.O_CREAT
    real = {(os, name): getattr(os, name)
            for name in ("open", "mkdir", "rename", "replace", "symlink")}
    real[Path, "write_bytes"] = Path.write_bytes
    new_tool = on_disk(carc_model.File(b"new tool"), tmp_path)
    for n in range(1, 100):
        root = tmp_path / f"store{n}"
        shutil.copytree(template, root, symlinks=True)
        count = [0]

        def dying(fn):
            def write(*args, **kwargs):
                if fn is not os.open or args[1] & writes:
                    count[0] += 1
                    if count[0] >= n:
                        raise OSError("crashed")
                return fn(*args, **kwargs)
            return write
        with monkeypatch.context() as m:
            for (owner, name), fn in real.items():
                m.setattr(owner, name, dying(fn))
            try:
                Store(root).add_fixed(new_tool, "new-1", kind="seed")
            except OSError:
                pass
        listed = {r.path.label for r in Store(root).seeds()}
        committed = any(c.endswith("-new-1") for c in os.listdir(root / "db" / "items"))
        assert listed == {p.label for p in old} | ({"new-1"} if committed else set())
        if count[0] < n:
            break
    assert committed and n > 5


@st.composite
def ref_graphs(draw):
    """Edges over n nodes: forward edges make a DAG, plus self-references
    and at most one cycle, b -> b+1 -> ... -> a -> b."""
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(a, b) for a, b in draw(st.lists(pairs, max_size=3 * n)) if a < b}
    edges |= {(a, a) for a in draw(st.sets(st.integers(0, n - 1), max_size=2))}
    if n > 1 and draw(st.booleans()):
        a, b = draw(pairs.filter(lambda e: e[0] > e[1]))
        edges |= {(i, i + 1) for i in range(b, a)} | {(a, b)}
    return n, edges


def _reachable(refs: dict, root: int) -> set:
    reach, todo = set(), [root]
    while todo:
        if (i := todo.pop()) not in reach:
            reach.add(i)
            todo.extend(refs[i])
    return reach


@settings(max_examples=60, deadline=None)
@given(ref_graphs())
def test_closure_lists_each_item_after_its_references(graph):
    """Items added referees first: closure lists every item the root
    reaches once, after every item it references, and a fresh Store lists
    the same.  The drawn cycle, which no admitted record can make, is
    written into a record file: a closure that reaches it raises
    DependencyCycle."""
    n, edges = graph
    contents = [b"node %d" % i for i in range(n)]
    comps = [f"{carc_model.hash_tree(carc_model.File(c)).prefix}-n{i}"
             for i, c in enumerate(contents)]
    refs = {i: {b for a, b in edges if a == i} for i in range(n)}
    back = [a for a, b in edges if a > b]  # the edge that closes the cycle
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, "store")
        store = Store(root)
        for i in reversed(range(n)):
            add(store, contents[i], f"n{i}", references=[
                StorePath.from_component(root, comps[r]) for r in refs[i] if r >= i])
        for a in back:
            record = root / "db" / "items" / comps[a]
            fields = parse_fields(record.read_text())
            fields["references"] = " ".join(sorted(comps[r] for r in refs[a]))
            record.write_text(render_fields(fields))
        for i in range(n):
            reach = _reachable(refs, i)
            root_path = StorePath.from_component(root, comps[i])
            if reach.intersection(back):
                with pytest.raises(DependencyCycle):
                    Store(root).closure(root_path)
                continue
            got = [p.component for p in store.closure(root_path)]
            assert sorted(got) == sorted(comps[j] for j in reach)
            at = {c: k for k, c in enumerate(got)}
            assert all(at[comps[r]] < at[comps[j]] for j in reach for r in refs[j] - {j})
            assert [p.component for p in Store(root).closure(root_path)] == got


@pytest.mark.parametrize("tamper", [False, True])
def test_crashed_insert_is_recovered_on_retry(tmp_path, monkeypatch, tamper):
    """A directory item left in place with no record (the process died in
    the record write) is adopted on retry, or replaced if it was changed."""
    root = tmp_path / "store"
    tree = carc_model.Dir({"f": carc_model.File(b"data"),
                           "sub": carc_model.Dir({"g": carc_model.File(b"")})})
    src = on_disk(tree, tmp_path)
    real_replace, crashed = os.replace, []

    def crash_once(src, dst):  # the process dies at the first replace
        if not crashed:
            crashed.append(dst)
            raise OSError("crashed before the record landed")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash_once)
    with pytest.raises(OSError, match="crashed"):
        Store(root).add_fixed(src, "item-1")
    assert Path(crashed[0]).parent == root / "db" / "items"  # the record write
    item = StorePath(root, carc_model.hash_tree(tree).prefix, "item-1")
    assert item.path.is_dir() and Store(root).get_record(item) is None
    if tamper:
        (item.path / "f").write_bytes(b"tampered")
    path = Store(root).add_fixed(src, "item-1")
    assert path == item
    assert Store(root).verify_item(path).ok
    assert carc_model.load_tree(path.path) == tree
    assert os.listdir(root / "tmp") == []
