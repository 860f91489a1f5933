import functools
import http.server
import os
import shutil
import socket
import struct
import threading
import time

import pytest

import carc_model
from microfold import carc, transport
from microfold import derivation as d
from microfold.builder import BuildOptions, Builder, build
from microfold.derivation import (Derivation, InputRef, canonical_serialize,
                                  derivation_hash, output_path, register_derivation)
from microfold.errors import (AllProvidersCorrupt, CorruptItem,
                              SubstituteNotFound)
from microfold.hashing import ContentHash
from microfold.store import Store, StorePath, parse_fields, render_fields
from microfold.substitute import (_provider_info, challenge, fetch_substitute,
                                  publish)

from conftest import http_200, on_disk, peak_growth_kib
from cost import counting


def hello_drv():
    return Derivation(name="hello", version="1.0",
                      steps=[d.write("hello.txt", b"hello")])


def chain_drvs(store):
    dep = Derivation(name="dep", version="1",
                     steps=[d.write("data.txt", b"payload")])
    dep_hash = derivation_hash(dep)
    store.put_derivation(dep_hash, canonical_serialize(dep))
    top = Derivation(
        name="top", version="1", inputs=[InputRef(dep_hash, "dep")],
        steps=[d.write("deps.txt", f"dep: {dep_hash.prefix}-dep-1\n".encode())])
    return dep, top


@pytest.fixture
def cache(tmp_path):
    return tmp_path / "cache"


def test_publish_round_trip(store, cache):
    path = build(hello_drv(), store)
    rec = publish(store, path, cache)
    assert rec == store.get_record(path)
    assert (cache / "carc" / path.digest_prefix).exists()
    info = parse_fields((cache / "info" / path.digest_prefix).read_text())
    assert info.pop("storepath") == path.component
    assert render_fields({**info, "kind": rec.kind}) == render_fields(rec.fields())
    assert _provider_info(cache, path) == rec


def test_publish_refuses_corrupt_item(store, cache):
    path = build(hello_drv(), store)
    (path.path / "hello.txt").write_bytes(b"mutated")
    with pytest.raises(CorruptItem):
        publish(store, path, cache)


def _entry(cache, path):
    """The (st_ino, st_mtime_ns) of path's info and archive files in cache."""
    stats = [(cache / sub / path.digest_prefix).stat() for sub in ("info", "carc")]
    return [(st.st_ino, st.st_mtime_ns) for st in stats]


def _archive_hash(cache, path):
    return ContentHash.of_bytes((cache / "carc" / path.digest_prefix).read_bytes())


def test_a_second_publish_keeps_the_entry(store, cache, monkeypatch):
    """A cache that holds an entry which re-hashes to the record keeps it:
    the item is not serialized again and neither file is rewritten."""
    path = build(hello_drv(), store)
    rec = publish(store, path, cache)
    before = _entry(cache, path)
    dumps = []
    monkeypatch.setattr(carc, "dump_to_tmp",
                        lambda *a, real=carc.dump_to_tmp: dumps.append(a) or real(*a))
    assert publish(store, path, cache) == rec
    assert dumps == []
    assert _entry(cache, path) == before


def _flip_last_byte(f):
    data = bytearray(f.read_bytes())
    data[-1] ^= 0xFF
    f.write_bytes(bytes(data))


@pytest.mark.parametrize("damage", [
    lambda entry: _flip_last_byte(entry["carc"]),
    lambda entry: entry["carc"].unlink(),
    lambda entry: entry["info"].unlink(),
    lambda entry: entry["info"].write_text("storepath: elsewhere\n"),
    lambda entry: entry["info"].write_bytes(entry["info"].read_bytes()[:-1]),
], ids=["flipped-archive", "no-archive", "no-info", "other-info", "truncated-info"])
def test_publish_repairs_a_damaged_entry(tmp_path, store, cache, damage):
    """An entry that lacks a file, or whose info differs or whose archive
    does not re-hash to the record, is written again as a fresh publish
    writes it, and a consumer then substitutes from it."""
    path = build(hello_drv(), store)
    rec = publish(store, path, cache)
    fresh = (cache / "info" / path.digest_prefix).read_bytes()
    damage({sub: cache / sub / path.digest_prefix for sub in ("info", "carc")})
    assert publish(store, path, cache) == rec
    assert (cache / "info" / path.digest_prefix).read_bytes() == fresh
    assert _archive_hash(cache, path) == rec.output_hash
    consumer = Store(tmp_path / "consumer")
    got = fetch_substitute(StorePath.from_component(consumer.root, path.component),
                           [cache], consumer)
    assert consumer.get_record(got).output_hash == rec.output_hash


def test_publish_verifies_only_what_it_writes(store, cache):
    """An item changed on disk is not read while the cache holds an entry
    that re-hashes to its record; it is refused once the entry must be
    written again.  A missing item is refused either way."""
    path = build(hello_drv(), store)
    rec = publish(store, path, cache)
    before = _entry(cache, path)
    (path.path / "hello.txt").write_bytes(b"mutated")
    assert publish(store, path, cache) == rec
    assert _entry(cache, path) == before
    assert _archive_hash(cache, path) == rec.output_hash
    _flip_last_byte(cache / "carc" / path.digest_prefix)
    with pytest.raises(CorruptItem, match="mismatch"):
        publish(store, path, cache)
    assert os.listdir(cache / "carc") == [path.digest_prefix]  # no tmp file left
    shutil.rmtree(path.path)
    with pytest.raises(CorruptItem, match="missing"):
        publish(store, path, cache)


def test_fetch_equals_local_build(tmp_path, cache):
    producer = Store(tmp_path / "producer")
    path = build(hello_drv(), producer)
    publish(producer, path, cache)

    consumer = Store(tmp_path / "consumer")
    target = StorePath.from_component(consumer.root, path.component)
    got = fetch_substitute(target, [cache], consumer)
    assert got.component == path.component
    assert consumer.verify_item(got).ok
    assert consumer.get_record(got).output_hash == \
        producer.get_record(path).output_hash


def test_fetch_pulls_references_first(tmp_path, cache):
    producer = Store(tmp_path / "producer")
    dep, top = chain_drvs(producer)
    top_path = build(top, producer)
    for member in producer.closure(top_path):
        publish(producer, member, cache)

    consumer = Store(tmp_path / "consumer")
    chain_drvs(consumer)  # register derivation bytes only
    got = fetch_substitute(
        StorePath.from_component(consumer.root, top_path.component),
        [cache], consumer)
    assert {p.label for p in consumer.closure(got)} == {"top-1", "dep-1"}
    assert consumer.verify_item(got).ok


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_closure_published_part_way_leaves_only_fetchable_items(tmp_path, store, cache, k):
    """A closure lists each item after its references, so a publish of it
    that stops after k items leaves a cache in which every item it holds
    substitutes into a fresh store, references and all."""
    below = []
    for label in ("c-1", "b-1", "a-1"):
        below = [store.add_fixed(on_disk(carc_model.File(label.encode()), tmp_path),
                                 label, references=below)]
    published = store.closure(below[0])[:k]
    for member in published:
        publish(store, member, cache)
    for member in published:
        fresh = Store(tmp_path / f"fresh-{member.label}")
        target = StorePath.from_component(fresh.root, member.component)
        assert fetch_substitute(target, [cache], fresh) == target
        assert fresh.verify_item(target).ok


def test_tampered_archive_rejected(tmp_path, cache):
    producer = Store(tmp_path / "producer")
    path = build(hello_drv(), producer)
    publish(producer, path, cache)
    _flip_last_byte(cache / "carc" / path.digest_prefix)

    consumer = Store(tmp_path / "consumer")
    target = StorePath.from_component(consumer.root, path.component)
    with pytest.raises(AllProvidersCorrupt, match="every cache serves a corrupt archive of"):
        fetch_substitute(target, [cache], consumer)
    assert consumer.get_record(target) is None  # nothing entered the store


def test_corrupt_provider_skipped_for_honest_one(tmp_path, capsys):
    producer = Store(tmp_path / "producer")
    path = build(hello_drv(), producer)
    bad, good = tmp_path / "bad-cache", tmp_path / "good-cache"
    publish(producer, path, bad)
    info = publish(producer, path, good)
    blob = bad / "carc" / path.digest_prefix
    blob.write_bytes(blob.read_bytes() + b"garbage")

    consumer = Store(tmp_path / "consumer")
    got = fetch_substitute(StorePath.from_component(consumer.root, path.component),
                           [bad, good], consumer)
    assert consumer.verify_item(got).ok
    err = capsys.readouterr().err
    assert err.startswith(f"cache {bad} serves corrupt archive for {path.component} "
                          f"(expected {info.output_hash.hex}, got an unreadable archive (")
    assert err.endswith("); skipping\n") and err.count("\n") == 1


def test_fetch_not_found(tmp_path, cache):
    consumer = Store(tmp_path / "consumer")
    cache.mkdir()
    with pytest.raises(SubstituteNotFound, match="no cache serves " + "ab" * 16 + "-x"):
        fetch_substitute(StorePath.from_component(consumer.root, "ab" * 16 + "-x"),
                         [cache], consumer)


def test_cache_without_the_item_gets_one_request(tmp_path, cache):
    """A cache whose info request finds nothing is not asked for the
    archive."""
    cache.mkdir()
    asked = []
    handler_cls = type("H", (http.server.SimpleHTTPRequestHandler,),
                       {"log_request": lambda self, *a: asked.append(self.path),
                        "log_message": lambda *a: None})
    handler = functools.partial(handler_cls, directory=str(cache))
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        consumer = Store(tmp_path / "consumer")
        target = StorePath.from_component(consumer.root, "ab" * 16 + "-x")
        with pytest.raises(SubstituteNotFound):
            fetch_substitute(target, [f"http://127.0.0.1:{server.server_address[1]}"],
                             consumer)
    finally:
        server.shutdown()
        server.server_close()
    assert asked == [f"/info/{target.digest_prefix}"]


def test_builder_uses_substitutes(tmp_path, cache):
    producer = Store(tmp_path / "producer")
    path = build(hello_drv(), producer)
    publish(producer, path, cache)
    # Make local building impossible to prove the substitute was used:
    # a consumer-side build would succeed anyway here, so instead check
    # the fetched record carries the published deriver.
    consumer = Store(tmp_path / "consumer")
    opts = BuildOptions(caches=[cache])
    got = build(hello_drv(), consumer, options=opts)
    rec = consumer.get_record(got)
    assert rec.deriver == derivation_hash(hello_drv())
    assert consumer.verify_item(got).ok


def test_fetch_over_http(tmp_path, cache):
    producer = Store(tmp_path / "producer")
    path = build(hello_drv(), producer)
    publish(producer, path, cache)

    handler_cls = type("H", (http.server.SimpleHTTPRequestHandler,),
                       {"log_message": lambda *a: None})
    handler = functools.partial(handler_cls, directory=str(cache))
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        consumer = Store(tmp_path / "consumer")
        got = fetch_substitute(
            StorePath.from_component(consumer.root, path.component),
            [url], consumer)
        assert consumer.verify_item(got).ok
    finally:
        server.shutdown()
        server.server_close()


def _from(cache):
    """An answer that serves the files of the directory cache, and 404s."""
    def answer(path, conn):
        try:
            conn.sendall(http_200((cache / path.lstrip("/")).read_bytes()))
        except FileNotFoundError:
            conn.sendall(b"HTTP/1.0 404 Not Found\r\n\r\n")
    return answer


def _published(tmp_path, cache):
    producer = Store(tmp_path / "producer")
    path = build(hello_drv(), producer)
    publish(producer, path, cache)
    consumer = Store(tmp_path / "consumer")
    return StorePath.from_component(consumer.root, path.component), consumer


def test_truncated_body_skips_cache(tmp_path, cache, raw_http, capsys):
    """A cache whose archive ends short of its Content-Length is skipped
    with the corrupt-archive warning; the next cache serves the item and
    challenge takes no value from the broken one."""
    target, consumer = _published(tmp_path, cache)

    def answer(path, conn):
        if path.startswith("/carc/"):
            body = (cache / path[1:]).read_bytes()
            conn.sendall(http_200(body[:-3], length=len(body)))
        else:
            _from(cache)(path, conn)
    short = raw_http(answer)

    with pytest.raises(AllProvidersCorrupt):
        fetch_substitute(target, [short], consumer)
    assert consumer.get_record(target) is None
    assert os.listdir(consumer.root / "items") == []
    assert os.listdir(consumer.root / "tmp") == []
    err = capsys.readouterr().err
    assert err.startswith(f"cache {short} serves corrupt archive for {target.component} ")
    assert "bytes short" in err

    report = challenge([target], [short, cache], consumer)
    assert [p for p, _ in report.entries[target.component].values] == [str(cache)]
    assert fetch_substitute(target, [short, cache], consumer) == target
    assert consumer.verify_item(target).ok


def test_non_http_status_line_skips_cache(tmp_path, cache, raw_http):
    target, consumer = _published(tmp_path, cache)
    garbled = raw_http(lambda path, conn: conn.sendall(b"SSH-2.0-OpenSSH\r\n\r\n"))
    report = challenge([target], [garbled, cache], consumer)
    assert [p for p, _ in report.entries[target.component].values] == [str(cache)]
    fetch_substitute(target, [garbled, cache], consumer)
    assert consumer.verify_item(target).ok


def test_reset_mid_archive_skips_cache(tmp_path, cache, raw_http, capsys):
    target, consumer = _published(tmp_path, cache)

    def answer(path, conn):
        if not path.startswith("/carc/"):
            return _from(cache)(path, conn)
        body = (cache / path[1:]).read_bytes()
        conn.sendall(http_200(body[:len(body) // 2], length=len(body)))
        time.sleep(0.3)  # the client is waiting for the rest by now
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    reset = raw_http(answer)  # closing with a zero linger sends a reset

    fetch_substitute(target, [reset, cache], consumer)
    assert consumer.verify_item(target).ok
    assert capsys.readouterr().err.startswith(
        f"cache {reset} serves corrupt archive for {target.component} ")


def test_unreadable_info_skips_cache(tmp_path, cache):
    target, consumer = _published(tmp_path, cache)
    garbled = tmp_path / "garbled"
    shutil.copytree(cache, garbled)
    (garbled / "info" / target.digest_prefix).write_text("<html>oops</html>\n")
    fetch_substitute(target, [garbled, cache], consumer)
    assert consumer.verify_item(target).ok


def test_redirect_is_followed(tmp_path, cache, raw_http):
    target, consumer = _published(tmp_path, cache)
    served = _from(cache)

    def answer(path, conn):
        if path.startswith("/moved/"):
            return served(path[len("/moved"):], conn)
        conn.sendall(b"HTTP/1.0 301 Moved Permanently\r\n"
                     b"Location: /moved%s\r\n\r\n" % path.encode())
    moved = raw_http(answer)
    fetch_substitute(target, [moved], consumer)
    assert consumer.verify_item(target).ok


def unserved_chain(tmp_path, n):
    """An n-level chain, each level naming the level below in its output.
    A producer store builds it and publishes every level but the bottom to
    a directory cache; a consumer store holds the chain's derivations and
    no item.  The producer, the consumer, the cache and the top's
    derivation hash."""
    producer, consumer = Store(tmp_path / "producer"), Store(tmp_path / "consumer")
    drvs, dep = [], None
    for i in range(n):
        step = d.write("dep.txt", f"{dep}\n".encode())
        inputs = [InputRef(drvs[-1], "dep")] if drvs else []
        drv = Derivation(name=f"level{i}", version="1", inputs=inputs, steps=[step])
        drvs.append(derivation_hash(drv))
        dep = f"{drvs[-1].prefix}-level{i}-1"
        for store in (producer, consumer):
            register_derivation(store, drv)
    [top] = Builder(producer).build([drvs[-1]])
    for member in producer.closure(top):
        if not member.label.startswith("level0-"):
            publish(producer, member, tmp_path / "cache")
    return producer, consumer, tmp_path / "cache", drvs[-1]


def test_an_unserved_item_deep_in_a_chain_is_fetched_for_once(tmp_path, monkeypatch):
    """Every level of a 20-level chain but the bottom is published.
    Planning tries every level, but a fetch that failed for want of the
    bottom is not repeated from the levels below it: about 2 cache reads
    per level, not one restore of the whole chain below each level.  All
    20 are built."""
    producer, consumer, cache, top = unserved_chain(tmp_path, 20)
    top_path = output_path(producer, top)
    ran, real_run = [], Builder._run
    monkeypatch.setattr(Builder, "_run", lambda self, drv, *args:
                        ran.append(drv.label) or real_run(self, drv, *args))
    with counting() as c:
        got = Builder(consumer, options=BuildOptions(caches=[cache])).build([top])
    assert got == [top_path] and len(ran) == 20
    assert c.where({"stream"}, {"other"}) <= 2 * 20 + 2
    assert consumer.get_record(got[0]).output_hash == producer.get_record(top_path).output_hash


# Fetches one item in a child process and prints how far its peak RSS grew
# (see conftest.peak_growth_kib).
PEAK_GROWTH = """
from microfold.store import Store, StorePath
from microfold.substitute import fetch_substitute

store = Store(sys.argv[1])
target = StorePath.from_component(store.root, sys.argv[3])
before = peak_kib()
fetch_substitute(target, [sys.argv[2]], store)
print(peak_kib() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
@pytest.mark.parametrize("over", ["http", "directory"])
def test_substitute_streams_a_large_item(tmp_path, cache, raw_http, over):
    """A 32 MiB item is fetched in memory that does not grow with it."""
    blob = tmp_path / "blob"
    with open(blob, "wb") as f:
        for i in range(32):
            f.write(bytes([i]) * (1 << 20))
    producer = Store(tmp_path / "producer")
    path = producer.add_fixed(blob, "blob")
    publish(producer, path, cache)

    def answer(path, conn):
        with open(cache / path.lstrip("/"), "rb") as f:
            conn.sendall(http_200(b"", length=os.fstat(f.fileno()).st_size))
            conn.sendfile(f)
    location = raw_http(answer) if over == "http" else str(cache)
    growth = peak_growth_kib(PEAK_GROWTH, tmp_path / "consumer", location,
                             path.component)
    assert growth < 16 * 1024
    assert Store(tmp_path / "consumer").verify_item(path).ok


def test_deriverless_item_substituted_as_fixed(tmp_path, cache):
    producer = Store(tmp_path / "producer")
    path = producer.add_fixed(on_disk(carc_model.Dir({"f": carc_model.File(b"data")}), tmp_path),
                              "blob-1")
    publish(producer, path, cache)
    consumer = Store(tmp_path / "consumer")
    fetch_substitute(StorePath.from_component(consumer.root, path.component),
                     [cache], consumer)
    assert consumer.get_record(path.component).kind == "fixed"
    record = ("db", "items", path.component)
    assert consumer.root.joinpath(*record).read_bytes() == \
        producer.root.joinpath(*record).read_bytes()


def test_cache_serving_too_deep_an_archive_is_skipped(tmp_path, cache, capsys):
    """An archive nested 5,000 levels deep is refused like any corrupt one,
    and the next cache serves the item."""
    producer = Store(tmp_path / "producer")
    path = build(hello_drv(), producer)
    publish(producer, path, cache)
    deep = tmp_path / "deep"
    shutil.copytree(cache, deep)
    (deep / "carc" / path.digest_prefix).write_bytes(
        b"carc1\n" + b"d\n1\n1\nd" * 5000 + b"d\n0\n")
    consumer = Store(tmp_path / "consumer")
    target = StorePath.from_component(consumer.root, path.component)
    assert fetch_substitute(target, [deep, cache], consumer) == target
    assert f"cache {deep} serves corrupt archive" in capsys.readouterr().err
    assert consumer.verify_item(target).ok
    assert os.listdir(consumer.root / "tmp") == []


def test_refused_cache_skipped(tmp_path, cache):
    producer = Store(tmp_path / "producer")
    path = build(hello_drv(), producer)
    publish(producer, path, cache)
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        dead = f"http://127.0.0.1:{sock.getsockname()[1]}"
    consumer = Store(tmp_path / "consumer")
    target = StorePath.from_component(consumer.root, path.component)
    report = challenge([target], [dead, cache], consumer)
    assert [p for p, _ in report.entries[path.component].values] == [str(cache)]
    fetch_substitute(target, [dead, cache], consumer)
    assert consumer.verify_item(target).ok


def test_silent_cache_times_out(tmp_path, cache, monkeypatch):
    producer = Store(tmp_path / "producer")
    path = build(hello_drv(), producer)
    publish(producer, path, cache)
    monkeypatch.setattr(transport, "TIMEOUT_S", 0.5, raising=False)
    consumer = Store(tmp_path / "consumer")
    target = StorePath.from_component(consumer.root, path.component)
    with socket.socket() as silent:  # accepts connections, never answers
        silent.bind(("127.0.0.1", 0))
        silent.listen(4)
        url = f"http://127.0.0.1:{silent.getsockname()[1]}"
        worker = threading.Thread(
            target=fetch_substitute, args=(target, [url, cache], consumer),
            daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "fetch hung on a silent cache"
    assert consumer.verify_item(target).ok


# -- challenge -------------------------------------------------------------

def test_challenge_agreement(tmp_path, store):
    path = build(hello_drv(), store)
    c1, c2 = tmp_path / "c1", tmp_path / "c2"
    publish(store, path, c1)
    publish(store, path, c2)
    report = challenge([path], [c1, c2], store)
    entry = report.entries[path.component]
    assert entry.verdict == "agree"
    assert len(entry.values) == 3  # local + two caches
    assert report.ok


def test_challenge_hashes_an_archive_served_without_info(tmp_path, store):
    path = build(hello_drv(), store)
    cache = tmp_path / "c1"
    publish(store, path, cache)
    (cache / "info" / path.digest_prefix).unlink()
    entry = challenge([path], [cache], store).entries[path.component]
    assert entry.values == [("local", store.get_record(path).output_hash.hex),
                            (str(cache), store.get_record(path).output_hash.hex)]


def test_challenge_detects_divergence(tmp_path, store):
    path = build(hello_drv(), store)
    c1, c2 = tmp_path / "c1", tmp_path / "c2"
    publish(store, path, c1)
    publish(store, path, c2)
    blob = c2 / "carc" / path.digest_prefix
    blob.write_bytes(blob.read_bytes().replace(b"hello", b"hellp"))
    report = challenge([path], [c1, c2], store)
    entry = report.entries[path.component]
    assert entry.verdict == "disagree"
    assert len(entry.distinct) == 2
    assert not report.ok
    assert "disagree" in report.render()


def test_challenge_single_value_is_unknown(store):
    path = build(hello_drv(), store)
    report = challenge([path], [], store)
    assert report.entries[path.component].verdict == "unknown"
    assert report.ok  # unknown is not a failure


def test_challenge_with_rebuild(tmp_path, store, toolchain):
    path = build(hello_drv(), store)
    cache = tmp_path / "c1"
    publish(store, path, cache)
    report = challenge([path], [cache], store, rebuild=True,
                       derivations={path.component: derivation_hash(hello_drv())})
    entry = report.entries[path.component]
    assert ("rebuild", store.get_record(path).output_hash.hex) in entry.values
    assert entry.verdict == "agree"


@pytest.mark.parametrize("damage", ["truncated", "out_of_order", "trailing_garbage"])
def test_malformed_archive_leaves_nothing_behind(tmp_path, cache, damage):
    """A malformed archive is refused part-way through its restore; what
    was written stays out of items/ and is removed from tmp/."""
    producer = Store(tmp_path / "producer")
    drv = Derivation(name="pair", version="1",
                     steps=[d.write("a", b"A"), d.write("b", b"B")])
    path = build(drv, producer)
    publish(producer, path, cache)
    blob = cache / "carc" / path.digest_prefix
    data = blob.read_bytes()
    assert data == b"carc1\nd\n2\n1\naf\n1\nA1\nbf\n1\nB"
    blob.write_bytes({"truncated": data[:-1],
                      "out_of_order": b"carc1\nd\n2\n1\nbf\n1\nB1\naf\n1\nA",
                      "trailing_garbage": data + b"x"}[damage])

    consumer = Store(tmp_path / "consumer")
    with pytest.raises(AllProvidersCorrupt):
        fetch_substitute(StorePath.from_component(consumer.root, path.component),
                         [cache], consumer)
    assert os.listdir(consumer.root / "items") == []
    assert os.listdir(consumer.root / "tmp") == []
