import hashlib
import os
import random
import tempfile
import threading

import pytest
from hypothesis import given, settings, strategies as st

from microfold import carc
from microfold.errors import (DanglingReference, InvalidLabel, OutputCollision,
                              StoreCorruption)
from microfold.hashing import ContentHash
from microfold.store import Store, StorePath

from test_carc import random_tree

# Oracle: sha256 of the hand-written CARC literal for the file "hello".
HELLO_CARC_HASH = hashlib.sha256(b"carc1\nf\n5\nhello").hexdigest()


def test_add_fixed_idempotent(store):
    p1 = store.add_fixed(b"hello", "greeting-1.0")
    p2 = store.add_fixed(b"hello", "greeting-1.0")
    assert p1 == p2
    assert p1.path.read_bytes() == b"hello"


def test_add_fixed_content_addressed(store):
    p1 = store.add_fixed(b"hello", "greeting-1.0")
    p2 = store.add_fixed(b"hellO", "greeting-1.0")
    assert p1.digest_prefix != p2.digest_prefix


def test_add_fixed_digest_matches_oracle(store):
    p = store.add_fixed(b"hello", "greeting-1.0")
    assert p.digest_prefix == HELLO_CARC_HASH[:32]
    assert p.component == HELLO_CARC_HASH[:32] + "-greeting-1.0"


def test_record_bytes_match_oracle(store):
    p = store.add_fixed(b"hello", "greeting-1.0")
    record = store.root / "db" / "items" / p.component
    assert record.read_text() == (f"kind: fixed\noutputhash: {HELLO_CARC_HASH}\n"
                                  "references: \nsize: 15\n")


def test_register_output_is_write_once(store):
    target = StorePath(store.root, "0" * 32, "out-1")
    deriver = ContentHash("ab" * 32)
    rec = store.register_output(carc.Dir({"f": carc.File(b"one")}), target,
                                deriver=deriver, references=[])
    assert rec.kind == "derived"
    record = store.root / "db" / "items" / target.component
    before = record.read_bytes()
    again = store.register_output(carc.Dir({"f": carc.File(b"one")}), target,
                                  deriver=deriver, references=[])
    assert again.output_hash == rec.output_hash
    with pytest.raises(OutputCollision):
        store.register_output(carc.Dir({"f": carc.File(b"two")}), target,
                              deriver=deriver, references=[])
    assert record.read_bytes() == before
    assert store.verify_item(target).ok


def test_invalid_labels_rejected(store):
    for label in ("", "a/b", "a b", "a\x00b", "café"):
        with pytest.raises(InvalidLabel):
            store.add_fixed(b"x", label)


def test_store_path_equality_is_by_component(tmp_path):
    a = StorePath(tmp_path / "s1", "0" * 32, "x-1")
    b = StorePath(tmp_path / "s2", "0" * 32, "x-1")
    assert a == b and hash(a) == hash(b)


def test_verify_ok_mismatch_missing(store):
    p = store.add_fixed(carc.Dir({"f": carc.File(b"data")}), "item-1")
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
        p = store.add_fixed(tree, f"rand-{i}")
        assert store.verify_item(p).ok


def test_corruption_detected_on_reinsert(store):
    p = store.add_fixed(b"abc", "thing-1")
    rec_file = store._record_path(p.component)
    rec_file.write_text(rec_file.read_text().replace(
        p.digest_prefix, "f" * 32).replace(
        store.get_record(p).output_hash.hex, "f" * 64))
    with pytest.raises(StoreCorruption):
        store.add_fixed(b"abc", "thing-1")


def _with_refs(store, content, label, refs):
    p = store.add_fixed(content, label, references=refs)
    return p


def test_closure_trivial(store):
    p = store.add_fixed(b"leaf", "leaf-1")
    assert store.closure(p) == [p]


def test_closure_chain(store):
    c = store.add_fixed(b"c", "c-1")
    b = _with_refs(store, b"b", "b-1", [c])
    a = _with_refs(store, b"a", "a-1", [b])
    assert store.closure(a) == [a, b, c]


def test_closure_diamond_matches_bruteforce(store):
    d = store.add_fixed(b"d", "d-1")
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
    c = store.add_fixed(b"c", "c-1")
    b = _with_refs(store, b"b", "b-1", [c])
    a = _with_refs(store, b"a", "a-1", [b])
    for q in store.closure(a):
        inner = {p.component for p in store.closure(q)}
        assert inner <= {p.component for p in store.closure(a)}


def test_closure_order_stable_across_roots(tmp_path):
    orders = []
    for name in ("s1", "s2"):
        store = Store(tmp_path / name)
        d = store.add_fixed(b"d", "d-1")
        b = _with_refs(store, b"b", "b-1", [d])
        c = _with_refs(store, b"c", "c-1", [d])
        a = _with_refs(store, b"a", "a-1", [c, b])
        orders.append([p.component for p in store.closure(a)])
    assert orders[0] == orders[1]


def test_closure_dangling_reference(store):
    ghost = StorePath(store.root, "ab" * 16, "ghost-1")
    a = store.add_fixed(b"a", "a-1", references=[ghost])
    with pytest.raises(DanglingReference):
        store.closure(a)


def test_concurrent_registration_single_item(store):
    paths = []
    errs = []

    def worker():
        try:
            paths.append(store.add_fixed(b"shared", "shared-1"))
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
    Store(store.root).add_fixed(b"hello", "greeting-1.0")  # another writer
    assert store.get_record(target).output_hash.hex == HELLO_CARC_HASH


def test_record_write_is_atomic(store, monkeypatch):
    def crash(src, dst):
        raise OSError("crashed before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        store.add_fixed(b"hello", "greeting-1.0")
    monkeypatch.undo()
    target = StorePath(store.root, HELLO_CARC_HASH[:32], "greeting-1.0")
    assert store.get_record(target) is None
    reader = Store(store.root)
    assert reader.get_record(target) is None
    assert reader.list_records() == []


def test_seed_index_grows_with_own_inserts(store):
    assert store.seeds() == []  # the db is listed here, once
    p = store.add_fixed(b"tool", "tool-1", kind="seed")
    store.add_fixed(b"plain", "plain-1")
    assert [r.path for r in store.seeds()] == [p]


def _closure_oracle(graph: dict, root: str) -> list:
    """The closure order of the reference implementation: rescan the
    remaining nodes for the smallest one with no remaining referrer."""
    reach, stack = set(), [root]
    while stack:
        c = stack.pop()
        if c not in reach:
            reach.add(c)
            stack.extend(graph[c])
    referrers = {c: set() for c in reach}
    for c in reach:
        for r in graph[c]:
            if r != c:
                referrers[r].add(c)
    emitted, remaining = [], set(reach)
    while remaining:
        ready = sorted(c for c in remaining if not (referrers[c] & remaining))
        pick = ready[0] if ready else sorted(remaining)[0]
        emitted.append(pick)
        remaining.remove(pick)
    return emitted


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


@settings(max_examples=60, deadline=None)
@given(ref_graphs())
def test_closure_order_matches_oracle(graph):
    n, edges = graph
    contents = [b"node %d" % i for i in range(n)]
    comps = [f"{carc.hash_tree(carc.File(c)).prefix}-n{i}"
             for i, c in enumerate(contents)]
    refs = {comps[i]: {comps[b] for a, b in edges if a == i} for i in range(n)}
    with tempfile.TemporaryDirectory() as root:
        store = Store(root)
        for i, c in enumerate(contents):
            store.add_fixed(c, f"n{i}", references=[
                StorePath.from_component(store.root, r) for r in refs[comps[i]]])
        for i in range(n):
            root_path = StorePath.from_component(store.root, comps[i])
            got = [p.component for p in store.closure(root_path)]
            assert got == _closure_oracle(refs, comps[i])
            assert [p.component for p in Store(root).closure(root_path)] == got
