import functools
import http.server
import os
import shutil
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from microfold import carc, transport
from microfold import derivation as d
from microfold.builder import BuildOptions, build
from microfold.derivation import Derivation, InputRef, canonical_serialize, derivation_hash
from microfold.errors import (AllProvidersCorrupt, CorruptItem,
                              SubstituteNotFound)
from microfold.store import Store, StorePath
from microfold.substitute import (SubstituteInfo, challenge, fetch_substitute,
                                  publish)


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
    info = publish(store, path, cache)
    assert info.store_path == path.component
    assert (cache / "carc" / path.digest_prefix).exists()
    parsed = SubstituteInfo.parse(
        (cache / "info" / path.digest_prefix).read_text())
    assert parsed == info


def test_publish_refuses_corrupt_item(store, cache):
    path = build(hello_drv(), store)
    (path.path / "hello.txt").write_bytes(b"mutated")
    with pytest.raises(CorruptItem):
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


def test_tampered_archive_rejected(tmp_path, cache):
    producer = Store(tmp_path / "producer")
    path = build(hello_drv(), producer)
    publish(producer, path, cache)
    blob = cache / "carc" / path.digest_prefix
    data = bytearray(blob.read_bytes())
    data[-1] ^= 0xFF
    blob.write_bytes(bytes(data))

    consumer = Store(tmp_path / "consumer")
    target = StorePath.from_component(consumer.root, path.component)
    with pytest.raises(AllProvidersCorrupt):
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
    with pytest.raises(SubstituteNotFound):
        fetch_substitute(StorePath.from_component(consumer.root, "ab" * 16 + "-x"),
                         [cache], consumer)


def test_builder_uses_substitutes(tmp_path, cache):
    producer = Store(tmp_path / "producer")
    path = build(hello_drv(), producer)
    publish(producer, path, cache)
    # Make local building impossible to prove the substitute was used:
    # a consumer-side build would succeed anyway here, so instead check
    # the fetched record carries the published deriver.
    consumer = Store(tmp_path / "consumer")
    opts = BuildOptions(use_substitutes=True, caches=[cache])
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


@pytest.fixture
def raw_http():
    """start(answer) serves HTTP on a fresh port, one connection at a time:
    each request's path goes to answer(path, conn), which writes the
    response to the socket conn (closed after it).  Returns the base URL."""
    stop = threading.Event()
    threads = []

    def start(answer):
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.05)

        def serve():
            with listener:
                while not stop.is_set():
                    try:
                        conn, _ = listener.accept()
                    except TimeoutError:
                        continue
                    with conn:
                        request = b""
                        while b"\r\n\r\n" not in request:
                            chunk = conn.recv(4096)
                            if not chunk:
                                break
                            request += chunk
                        if request:
                            answer(request.split(b" ")[1].decode(), conn)
        threads.append(threading.Thread(target=serve, daemon=True))
        threads[-1].start()
        return f"http://127.0.0.1:{listener.getsockname()[1]}"

    yield start
    stop.set()
    for thread in threads:
        thread.join()


def _ok(body: bytes, length: int | None = None) -> bytes:
    """A 200 response carrying body under a Content-Length of length."""
    length = len(body) if length is None else length
    return b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n" % length + body


def _from(cache):
    """An answer that serves the files of the directory cache, and 404s."""
    def answer(path, conn):
        try:
            conn.sendall(_ok((cache / path.lstrip("/")).read_bytes()))
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
            conn.sendall(_ok(body[:-3], length=len(body)))
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
        conn.sendall(_ok(body[:len(body) // 2], length=len(body)))
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


# Fetches one item in a child process and prints how far its peak RSS grew.
# The child's own high-water mark (VmHWM) is read, not ru_maxrss, which on
# Linux starts from the RSS of the process that forked the child.
PEAK_GROWTH = """
import sys
from microfold.store import Store, StorePath
from microfold.substitute import fetch_substitute

def peak_kib():
    with open("/proc/self/status") as f:
        return int(next(l for l in f if l.startswith("VmHWM:")).split()[1])

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
            conn.sendall(_ok(b"", length=os.fstat(f.fileno()).st_size))
            conn.sendfile(f)
    location = raw_http(answer) if over == "http" else str(cache)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_GROWTH, str(tmp_path / "consumer"),
         location, path.component],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 16 * 1024  # KiB
    assert Store(tmp_path / "consumer").verify_item(path).ok


def test_deriverless_item_substituted_as_fixed(tmp_path, cache):
    producer = Store(tmp_path / "producer")
    path = producer.add_fixed(carc.Dir({"f": carc.File(b"data")}), "blob-1")
    publish(producer, path, cache)
    consumer = Store(tmp_path / "consumer")
    fetch_substitute(StorePath.from_component(consumer.root, path.component),
                     [cache], consumer)
    assert consumer.get_record(path.component).kind == "fixed"
    record = ("db", "items", path.component)
    assert consumer.root.joinpath(*record).read_bytes() == \
        producer.root.joinpath(*record).read_bytes()


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
                       derivations={path.component: hello_drv()})
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
