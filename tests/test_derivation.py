import hashlib
import os
from pathlib import Path

import pytest

from microfold import derivation as drv
from microfold.derivation import (Derivation, InputRef, SourceRef,
                                  canonical_serialize, derivation_hash,
                                  load_derivation, parse_derivation,
                                  register_derivation)
from microfold.errors import InvariantViolation, ParseError, StoreCorruption
from microfold.hashing import ContentHash
from microfold.store import Store, StorePath

# Frozen fixture: serialization written against the grammar by hand and
# hashed with plain hashlib before the serializer existed.
GOLDEN_DRV_BYTES = (b'(derivation (name "hello") (version "1.0") '
                    b'(system "generic") (sources) (inputs) '
                    b'(steps (write "hello.txt" "hello")) (env))')
GOLDEN_DRV_HASH = "24de2f26cfa82bc3ea541f95fc4eb9937848e2d08770ef61575dc0fd637825e8"


def hello_drv():
    return Derivation(name="hello", version="1.0",
                      steps=[drv.write("hello.txt", b"hello")])


def test_golden_serialization():
    assert canonical_serialize(hello_drv()) == GOLDEN_DRV_BYTES
    assert hashlib.sha256(GOLDEN_DRV_BYTES).hexdigest() == GOLDEN_DRV_HASH
    assert derivation_hash(hello_drv()).hex == GOLDEN_DRV_HASH


def test_store_path_uses_prefix_and_label(tmp_path):
    sp = StorePath(tmp_path, derivation_hash(hello_drv()).prefix, hello_drv().label)
    assert sp.component == GOLDEN_DRV_HASH[:32] + "-hello-1.0"


def _h(seed: bytes) -> ContentHash:
    return ContentHash(hashlib.sha256(seed).hexdigest())


def test_field_order_does_not_matter():
    s1 = SourceRef("http://a", _h(b"1"), "s1")
    s2 = SourceRef("http://b", _h(b"2"), "s2")
    i1 = InputRef(_h(b"3"), "i1")
    i2 = InputRef(_h(b"4"), "i2")
    a = Derivation(name="p", version="1", sources=[s1, s2], inputs=[i1, i2],
                   env={"A": "1", "B": "2"})
    b = Derivation(name="p", version="1", sources=[s2, s1], inputs=[i2, i1],
                   env={"B": "2", "A": "1"})
    assert canonical_serialize(a) == canonical_serialize(b)


def test_a_derivation_is_the_one_parsed_from_its_bytes():
    """Sources, inputs and env are kept in canonical order however they
    are given, so the object equals the one its bytes parse to."""
    sources = sorted([SourceRef("http://a", _h(b"1"), "s1"),
                      SourceRef("http://b", _h(b"2"), "s2")],
                     key=lambda s: s.expected_hash.hex, reverse=True)
    inputs = sorted([InputRef(_h(b"3"), "i1"), InputRef(_h(b"4"), "i2")],
                    key=lambda i: i.derivation_hash.hex, reverse=True)
    d = Derivation(name="p", version="1", sources=sources, inputs=inputs,
                   env={"B": "2", "A": "1"})
    assert parse_derivation(canonical_serialize(d)) == d


def test_register_derivation_is_loaded_without_a_parse(tmp_path, monkeypatch):
    store = Store(tmp_path / "store")
    d = hello_drv()
    h = register_derivation(store, d)
    assert h.hex == GOLDEN_DRV_HASH
    assert store.get_derivation_bytes(h) == GOLDEN_DRV_BYTES
    monkeypatch.setattr(drv, "parse_derivation", None)  # any parse fails
    assert load_derivation(store, h) is d
    assert register_derivation(store, hello_drv()) == h
    assert load_derivation(store, h) is d


def test_load_derivation_refuses_a_repeated_env_key(tmp_path):
    """With a key twice, which value would the hash name?"""
    store = Store(tmp_path / "store")
    data = GOLDEN_DRV_BYTES.replace(b"(env)", b'(env ("K" "1") ("K" "2"))')
    h = ContentHash.of_bytes(data)
    store.put_derivation(h, data)
    with pytest.raises(ParseError, match="twice"):
        load_derivation(store, h)


def test_any_field_change_changes_bytes():
    base = Derivation(name="p", version="1", env={"A": "1"},
                      steps=[drv.write("f", b"x")])
    variants = [
        Derivation(name="q", version="1", env={"A": "1"}, steps=base.steps),
        Derivation(name="p", version="2", env={"A": "1"}, steps=base.steps),
        Derivation(name="p", version="1", env={"A": "2"}, steps=base.steps),
        Derivation(name="p", version="1", env={"A": "1"},
                   steps=[drv.write("f", b"y")]),
        Derivation(name="p", version="1", env={"A": "1"},
                   steps=[drv.write("f", b"x")],
                   inputs=[InputRef(_h(b"i"), "dep")]),
    ]
    blobs = {canonical_serialize(v) for v in variants}
    assert len(blobs) == len(variants)
    assert canonical_serialize(base) not in blobs


def test_input_hash_embeds_transitively():
    dep_a = Derivation(name="dep", version="1", steps=[drv.write("f", b"a")])
    dep_b = Derivation(name="dep", version="1", steps=[drv.write("f", b"b")])
    top_a = Derivation(name="top", version="1",
                       inputs=[InputRef(derivation_hash(dep_a), "dep")])
    top_b = Derivation(name="top", version="1",
                       inputs=[InputRef(derivation_hash(dep_b), "dep")])
    assert derivation_hash(top_a) != derivation_hash(top_b)


def test_string_escaping_round_trips():
    d = Derivation(name="esc", version="1",
                   steps=[drv.write("f", b'say "hi" \\ done')],
                   env={"K": 'v"\\'})
    data = canonical_serialize(d)
    parsed = parse_derivation(data.decode())
    assert canonical_serialize(parsed) == data


def test_parse_round_trip_full():
    d = Derivation(
        name="full", version="2.0",
        sources=[SourceRef("http://x/src.tar", _h(b"s"), "src")],
        inputs=[InputRef(_h(b"i"), "dep")],
        steps=[drv.mkdir("bin"), drv.copy("src/a", "bin/a"),
               drv.concat("bin/all", "bin/a", "out/bin/a"),
               drv.substitute("bin/a", b"old", b"new"),
               drv.set_exec("bin/a"),
               drv.exec_("dep/bin/tool", "@out@", "arg two")],
        env={"MODE": "fast"},
    )
    data = canonical_serialize(d)
    assert canonical_serialize(parse_derivation(data.decode())) == data


@pytest.mark.parametrize("edit", [
    lambda b: b.replace(b"(env)", b'(env) (name "other")'),
    lambda b: b.replace(b"(env)", b'(env) (extra "x")'),
    lambda b: b.replace(b' (env)', b""),
    lambda b: b.replace(b'(name "hello")', b"(name hello)"),
    lambda b: b.replace(b'(version "1.0")', b'(version "1.0" "2.0")'),
    lambda b: b.replace(b"(derivation", b"(drv"),
])
def test_parse_rejects_malformed_fields(edit):
    """Each field once, none missing or unknown, each value of its type:
    the field rule every canonical form is read by."""
    with pytest.raises(ParseError):
        parse_derivation(edit(GOLDEN_DRV_BYTES))


def test_invariants_rejected():
    with pytest.raises(InvariantViolation):
        canonical_serialize(Derivation(name="bad name", version="1"))
    with pytest.raises(InvariantViolation):
        canonical_serialize(Derivation(
            name="p", version="1", steps=[drv.write("/abs", b"")]))
    with pytest.raises(InvariantViolation):
        canonical_serialize(Derivation(
            name="p", version="1", steps=[drv.copy("../escape", "f")]))
    with pytest.raises(InvariantViolation):
        drv.Step("frobnicate", ("x",))


def test_a_source_label_is_checked_before_registration(tmp_path):
    """A source whose label cannot name a store path is refused when the
    derivation is made or read, not when a build forms the path."""
    store = Store(tmp_path / "store")
    src = SourceRef("http://x/src.tar", _h(b"s"), "a b")
    with pytest.raises(InvariantViolation, match="source label"):
        register_derivation(store, Derivation(name="p", version="1", sources=[src]))
    data = canonical_serialize(Derivation(name="p", version="1",
                                          sources=[src._replace(label="src")]))
    with pytest.raises(InvariantViolation, match="source label"):
        parse_derivation(data.replace(b'"src")', b'"a b")'))
    assert store.list_derivations() == []


def test_avalanche_over_five_node_graph():
    """Editing any single node changes the hash of every node above it."""

    def build_graph(edit=None):
        # chain e <- d <- c plus diamond: a -> {b, c}, b -> d
        nodes = {}
        for name in ("e", "d", "c", "b", "a"):
            content = f"body of {name}" + ("!" if name == edit else "")
            deps = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": ["e"],
                    "e": []}[name]
            nodes[name] = Derivation(
                name=name, version="1",
                steps=[drv.write("f", content.encode())],
                inputs=[InputRef(derivation_hash(nodes[dep]), dep)
                        for dep in deps])
        return {n: derivation_hash(d).hex for n, d in nodes.items()}

    base = build_graph()
    ancestors = {"e": {"a", "b", "c", "d", "e"}, "d": {"a", "b", "c", "d"},
                 "c": {"a", "c"}, "b": {"a", "b"}, "a": {"a"}}
    for edited in ("a", "b", "c", "d", "e"):
        got = build_graph(edit=edited)
        changed = {n for n in base if got[n] != base[n]}
        assert changed == ancestors[edited], edited


def _flip_one_byte(store, drv_hash):
    """Turn the derivation's "hello" into "jello" on disk: a one-byte edit
    that still parses, under the old name."""
    path = store.root / "db" / "drvs" / drv_hash.hex
    data = path.read_bytes()
    at = data.index(b'"hello"') + 1
    path.write_bytes(data[:at] + bytes([data[at] ^ 2]) + data[at + 1:])


def test_load_derivation_refuses_bytes_that_do_not_hash_to_the_name(tmp_path):
    store = Store(tmp_path / "store")
    h = derivation_hash(hello_drv())
    store.put_derivation(h, canonical_serialize(hello_drv()))
    _flip_one_byte(store, h)
    with pytest.raises(StoreCorruption):
        load_derivation(Store(tmp_path / "store"), h)


def test_put_derivation_leaves_no_torn_file(tmp_path, monkeypatch):
    store = Store(tmp_path / "store")
    data = canonical_serialize(hello_drv())
    h = derivation_hash(hello_drv())
    real = Path.write_bytes

    def crash_part_way(self, payload):
        with self.open("wb") as f:
            f.write(payload[:len(payload) // 2])
        raise OSError("crashed mid-write")
    monkeypatch.setattr(Path, "write_bytes", crash_part_way)
    with pytest.raises(OSError):
        store.put_derivation(h, data)
    monkeypatch.setattr(Path, "write_bytes", real)
    assert os.listdir(store.root / "db" / "drvs") == []
    assert store.get_derivation_bytes(h) is None
    store.put_derivation(h, data)
    assert load_derivation(Store(store.root), h) == hello_drv()
