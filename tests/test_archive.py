import os
import socket
import stat
import sys
import threading

import pytest

import carc_model
from microfold import carc
from microfold.archive import Archive, fetch_source
from microfold.derivation import SourceRef
from microfold.errors import ArchiveWriteError, SourceUnavailable
from microfold.hashing import ContentHash
from microfold.store import Store

from conftest import http_200, peak_growth_kib


def _archived(archive, content_hash):
    """The archive's CARC bytes for content_hash, joined from its stream."""
    return b"".join(archive.lookup(content_hash))


def test_ingest_is_content_addressed(archive):
    h1 = archive.ingest(b"payload")
    h2 = archive.ingest(b"payload")
    assert h1 == h2
    assert archive.has(h1)
    assert _archived(archive, h1) == carc_model.serialize_bytes(b"payload")


def test_ingest_of_bytes_repairs_a_damaged_entry(archive):
    content_hash = archive.ingest(b"hello\n")
    entry = archive.root / "carc" / content_hash.hex
    intact = entry.read_bytes()
    entry.write_bytes(intact[:-1] + bytes([intact[-1] ^ 1]))
    assert archive.ingest(b"hello\n") == content_hash
    assert entry.read_bytes() == intact


def test_ingest_tree_and_path(archive, tmp_path):
    src = tmp_path / "src"
    (src / "sub").mkdir(parents=True)
    (src / "sub/f").write_bytes(b"data")
    h_path = archive.ingest(src)
    h_tree = carc_model.hash_tree(carc_model.load_tree(src))
    assert h_path == h_tree
    with pytest.raises(TypeError):  # a path or bytes, not a tree in memory
        archive.ingest(carc_model.load_tree(src))
    assert os.listdir(archive.root / "carc") == [h_path.hex]
    assert _archived(archive, h_path) == carc_model.serialize_path(src)


def test_origins_accumulate_sorted(archive):
    h = archive.ingest(b"x", origin="http://b/x")
    archive.ingest(b"x", origin="http://a/x")
    archive.ingest(b"x", origin="http://b/x")
    assert archive.origins(h) == ["http://a/x", "http://b/x"]


def test_lookup_missing(archive):
    assert archive.lookup(ContentHash("ab" * 32)) is None


def _file_source(tmp_path, data=b"source bytes\n"):
    upstream = tmp_path / "upstream.txt"
    upstream.write_bytes(data)
    h = ContentHash.of_bytes(carc_model.serialize_path(upstream))
    return upstream, SourceRef(f"file://{upstream}", h, "src")


def test_fetch_upstream_then_auto_ingest(tmp_path, store, archive):
    upstream, ref = _file_source(tmp_path)
    path = fetch_source(ref, store, archive)
    assert (path.path).read_bytes() == b"source bytes\n"
    # auto-ingested: a later fetch works with the upstream gone
    upstream.unlink()
    assert archive.has(ref.expected_hash)
    path2 = fetch_source(ref, store, archive)
    assert path2 == path


def test_a_refetch_repairs_a_damaged_archive_entry(tmp_path, archive):
    """A source fetched from upstream is written into the archive again, so
    a damaged entry is mended while the upstream still serves it."""
    upstream, ref = _file_source(tmp_path)
    fetch_source(ref, Store(tmp_path / "s1"), archive)
    entry = archive.root / "carc" / ref.expected_hash.hex
    intact = entry.read_bytes()
    entry.write_bytes(intact[:-1] + bytes([intact[-1] ^ 1]))
    fetch_source(ref, Store(tmp_path / "s2"), archive)
    assert entry.read_bytes() == intact
    upstream.unlink()
    path = fetch_source(ref, Store(tmp_path / "s3"), archive)
    assert path.path.read_bytes() == b"source bytes\n"


def test_fetch_archive_fallback_when_upstream_refuses(store, archive):
    h = archive.ingest(b"archived body")
    with socket.socket() as s:  # a port that nothing listens on
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    ref = SourceRef(f"http://127.0.0.1:{port}/gone.tar", h, "gone-src")
    path = fetch_source(ref, store, archive)
    assert path.path.read_bytes() == b"archived body"


def test_fetch_hash_mismatch_refuses_upstream(tmp_path, store, archive):
    upstream, ref = _file_source(tmp_path)
    upstream.write_bytes(b"tampered\n")
    with pytest.raises(SourceUnavailable) as exc:
        fetch_source(ref, store, archive)
    assert any("upstream" in leg for leg in exc.value.legs)
    assert not archive.has(ref.expected_hash)
    assert store.get_record(f"{ref.expected_hash.prefix}-src") is None


def test_fetch_archive_fallback_after_mismatch(tmp_path, store, archive):
    upstream, ref = _file_source(tmp_path)
    archive.ingest(upstream)  # good copy archived earlier
    upstream.write_bytes(b"tampered\n")
    path = fetch_source(ref, store, archive)
    assert path.path.read_bytes() == b"source bytes\n"


def test_fetch_reports_both_legs(tmp_path, store, archive):
    ref = SourceRef("file:///nonexistent/u", ContentHash("cd" * 32), "src")
    with pytest.raises(SourceUnavailable) as exc:
        fetch_source(ref, store, archive)
    legs = exc.value.legs
    assert any("upstream" in leg for leg in legs)
    assert any("archive" in leg for leg in legs)


def test_each_leg_says_what_it_found(tmp_path, store, archive):
    upstream, ref = _file_source(tmp_path)
    upstream.write_bytes(b"tampered\n")
    got = ContentHash.of_bytes(carc_model.serialize_path(upstream))
    want = ref.expected_hash
    upstream_leg = f"upstream {ref.url}: expected {want.hex}, got {got.hex}"
    for arch, archive_leg in ((None, "archive: not configured"),
                              (archive, "archive: not present")):
        with pytest.raises(SourceUnavailable) as exc:
            fetch_source(ref, store, arch)
        assert exc.value.legs == [upstream_leg, archive_leg]
    (archive.root / "carc" / want.hex).write_bytes(carc_model.serialize_path(upstream))
    with pytest.raises(SourceUnavailable) as exc:
        fetch_source(ref, store, archive)
    assert exc.value.legs == [
        upstream_leg, f"archive: expected {want.hex}, got {got.hex}"]


def test_fetch_archive_only_url(store, archive):
    h = archive.ingest(b"inline body")
    ref = SourceRef(f"archive://{h.hex}", h, "inline-src")
    path = fetch_source(ref, store, archive)
    assert path.path.read_bytes() == b"inline body"


def test_fetch_tree_source(tmp_path, store, archive):
    src = tmp_path / "srctree"
    (src / "include").mkdir(parents=True)
    (src / "include/api.h").write_bytes(b"#pragma once\n")
    h = ContentHash.of_bytes(carc_model.serialize_path(src))
    ref = SourceRef(f"file://{src}", h, "tree-src")
    path = fetch_source(ref, store, archive)
    assert (path.path / "include/api.h").read_bytes() == b"#pragma once\n"


def test_origin_update_is_atomic(archive, monkeypatch):
    h = archive.ingest(b"x", origin="http://a/x")

    def crash(src, dst):
        raise OSError("crashed mid-update")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(ArchiveWriteError):
        archive.ingest(b"x", origin="http://b/x")
    monkeypatch.undo()
    assert archive.origins(h) == ["http://a/x"]
    archive.ingest(b"x", origin="http://b/x")
    assert archive.origins(h) == ["http://a/x", "http://b/x"]


def test_concurrent_origin_updates_are_not_lost(archive):
    h = archive.ingest(b"x")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=lambda i=i: [
            archive.ingest(b"x", origin=f"http://{i}/{j}") for j in range(10)])
            for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(archive.origins(h)) == 60


def test_fetch_skips_ingest_of_archived_source(tmp_path, store, archive, monkeypatch):
    upstream, ref = _file_source(tmp_path)
    archive.ingest(upstream)
    monkeypatch.setattr(Archive, "ingest", lambda *a, **k: pytest.fail("ingested"))
    path = fetch_source(ref, store, archive)
    assert path.path.read_bytes() == b"source bytes\n"


def test_fetch_refuses_unreadable_archive(tmp_path, store, archive):
    upstream, ref = _file_source(tmp_path)
    archive.ingest(upstream)
    upstream.unlink()
    blob = archive.root / "carc" / ref.expected_hash.hex
    blob.write_bytes(blob.read_bytes()[:-1])  # truncated
    with pytest.raises(SourceUnavailable) as exc:
        fetch_source(ref, store, archive)
    assert any("unreadable archive" in leg for leg in exc.value.legs)
    assert os.listdir(store.root / "items") == []
    assert os.listdir(store.root / "tmp") == []


def test_fetch_returns_the_item_the_store_has(tmp_path, store, archive):
    upstream, ref = _file_source(tmp_path)
    path = fetch_source(ref, store, archive)
    upstream.unlink()
    (archive.root / "carc" / ref.expected_hash.hex).unlink()
    assert fetch_source(ref, store, archive) == path
    # An archive that lacks the source gets it from the store item.
    empty = Archive(tmp_path / "empty-archive")
    assert fetch_source(ref, store, empty) == path
    assert _archived(empty, ref.expected_hash) == carc_model.serialize_path(path.path)
    assert empty.origins(ref.expected_hash) == [ref.url]


def test_fetch_ingests_a_file_source_in_the_copy_pass(tmp_path, store, archive,
                                                     monkeypatch):
    src = tmp_path / "srctree"
    (src / "include").mkdir(parents=True)
    (src / "include/api.h").write_bytes(b"#pragma once\n")
    h = ContentHash.of_bytes(carc_model.serialize_path(src))
    ref = SourceRef(f"file://{src}", h, "tree-src")
    monkeypatch.setattr(Archive, "ingest", lambda *a, **k: pytest.fail("dumped again"))
    path = fetch_source(ref, store, archive)
    assert _archived(archive, h) == carc_model.serialize_path(path.path)
    assert archive.origins(h) == [ref.url]
    assert os.listdir(archive.root / "carc") == [h.hex]


def test_fetch_mismatch_leaves_no_archive_tmp_file(tmp_path, store, archive):
    upstream, ref = _file_source(tmp_path)
    upstream.write_bytes(b"tampered\n")
    with pytest.raises(SourceUnavailable):
        fetch_source(ref, store, archive)
    assert os.listdir(archive.root / "carc") == []
    assert os.listdir(archive.root / "origins") == []


@pytest.mark.parametrize("with_archive", [True, False])
def test_fetch_http_upstream(store, archive, raw_http, with_archive):
    body = b"served over http\n"
    url = raw_http(lambda path, conn: conn.sendall(http_200(body)))
    h = ContentHash.of_bytes(carc_model.serialize_bytes(body))
    ref = SourceRef(f"{url}/src.txt", h, "src")
    path = fetch_source(ref, store, archive if with_archive else None)
    assert path.path.read_bytes() == body and store.verify_item(path).ok
    assert os.listdir(store.root / "tmp") == []
    if with_archive:
        assert _archived(archive, h) == carc_model.serialize_bytes(body)
        assert archive.origins(h) == [ref.url]


@pytest.mark.parametrize("with_archive", [True, False])
def test_fetch_http_upstream_writes_the_body_once(store, archive, raw_http,
                                                  monkeypatch, with_archive):
    """The body is streamed to its staged file (by the file object, not
    os.write) and hashed from there; only the archive file, if any, is
    written through os.write."""
    body = bytes(range(256)) * 256
    url = raw_http(lambda path, conn: conn.sendall(http_200(body)))
    h = ContentHash.of_bytes(carc_model.serialize_bytes(body))
    written, real_write = [], os.write

    def counting(fd, data):
        written.append(real_write(fd, data))
        return written[-1]
    monkeypatch.setattr(os, "write", counting)
    path = fetch_source(SourceRef(f"{url}/src.bin", h, "src"), store,
                        archive if with_archive else None)
    monkeypatch.undo()
    assert sum(written) == (len(carc_model.serialize_bytes(body)) if with_archive else 0)
    assert store.verify_item(path).ok
    assert stat.S_IMODE(os.lstat(path.path).st_mode) == 0o644


@pytest.mark.parametrize("reply", [b"HTTP/1.0 404 Not Found\r\n\r\n",
                                   http_200(b"cut short", length=100)],
                         ids=["404", "cut short"])
def test_fetch_http_upstream_missing_or_cut_short_uses_archive(store, archive,
                                                               raw_http, reply):
    h = archive.ingest(b"archived body")
    url = raw_http(lambda path, conn: conn.sendall(reply))
    path = fetch_source(SourceRef(f"{url}/src.tar", h, "src"), store, archive)
    assert path.path.read_bytes() == b"archived body"
    assert os.listdir(store.root / "tmp") == []


# Fetches one source in a child process and prints how far its peak RSS grew
# (see conftest.peak_growth_kib).
UPSTREAM_PEAK_GROWTH = """
from microfold.archive import Archive, fetch_source
from microfold.derivation import SourceRef
from microfold.hashing import ContentHash
from microfold.store import Store

store, archive = Store(sys.argv[1]), Archive(sys.argv[2])
ref = SourceRef(sys.argv[3], ContentHash(sys.argv[4]), "big-src")
before = peak_kib()
fetch_source(ref, store, archive)
print(peak_kib() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_http_upstream_source_streams(tmp_path, raw_http):
    """A 32 MiB HTTP upstream source is fetched, and ingested, in memory
    that does not grow with it."""
    blob = tmp_path / "blob"
    with open(blob, "wb") as f:
        for i in range(32):
            f.write(bytes([i]) * (1 << 20))
    h = carc.hash_path(blob)

    def answer(path, conn):
        with open(blob, "rb") as f:
            conn.sendall(http_200(b"", length=os.fstat(f.fileno()).st_size))
            conn.sendfile(f)
    url = f"{raw_http(answer)}/big.bin"
    growth = peak_growth_kib(UPSTREAM_PEAK_GROWTH, tmp_path / "store",
                             tmp_path / "archive", url, h.hex)
    assert growth < 16 * 1024
    store = Store(tmp_path / "store")
    assert [r.output_hash for r in store.list_records()] == [h]
    assert Archive(tmp_path / "archive").origins(h) == [url]
