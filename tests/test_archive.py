import socket

import pytest

from microfold import carc
from microfold.archive import Archive, fetch_source
from microfold.derivation import SourceRef
from microfold.errors import HashMismatch, SourceUnavailable
from microfold.hashing import ContentHash


def test_ingest_is_content_addressed(archive):
    h1 = archive.ingest(b"payload")
    h2 = archive.ingest(b"payload")
    assert h1 == h2
    assert archive.has(h1)
    assert archive.lookup(h1) == carc.serialize_bytes(b"payload")


def test_ingest_tree_and_path(archive, tmp_path):
    src = tmp_path / "src"
    (src / "sub").mkdir(parents=True)
    (src / "sub/f").write_bytes(b"data")
    h_path = archive.ingest(src)
    h_tree = archive.ingest(carc.load_tree(src))
    assert h_path == h_tree
    assert archive.lookup(h_path) == carc.serialize_path(src)


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
    h = ContentHash.of_bytes(carc.serialize_path(upstream))
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
    h = ContentHash.of_bytes(carc.serialize_path(src))
    ref = SourceRef(f"file://{src}", h, "tree-src")
    path = fetch_source(ref, store, archive)
    assert (path.path / "include/api.h").read_bytes() == b"#pragma once\n"
