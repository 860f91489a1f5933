import os
import socket
import sys
import threading

import pytest

import carc_model
from microfold import carc
from microfold.archive import Archive, fetch_source
from microfold.derivation import SourceRef
from microfold.errors import ArchiveWriteError, HashMismatch, SourceUnavailable
from microfold.hashing import ContentHash


def _archived(archive, content_hash):
    """The archive's CARC bytes for content_hash, joined from its stream."""
    return b"".join(archive.lookup(content_hash))


def test_ingest_is_content_addressed(archive):
    h1 = archive.ingest(b"payload")
    h2 = archive.ingest(b"payload")
    assert h1 == h2
    assert archive.has(h1)
    assert _archived(archive, h1) == carc.serialize_bytes(b"payload")


def test_ingest_tree_and_path(archive, tmp_path):
    src = tmp_path / "src"
    (src / "sub").mkdir(parents=True)
    (src / "sub/f").write_bytes(b"data")
    h_path = archive.ingest(src)
    h_tree = archive.ingest(carc_model.load_tree(src))
    assert h_path == h_tree
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


def test_fetch_fallback_disabled(tmp_path, store, archive):
    upstream, ref = _file_source(tmp_path)
    archive.ingest(upstream)
    upstream.unlink()
    with pytest.raises(SourceUnavailable):
        fetch_source(ref, store, archive, archive_fallback=False)


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
    assert fetch_source(ref, store, archive, archive_fallback=False) == path
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
