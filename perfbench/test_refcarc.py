"""Hand-worked archives for the benchmark's own CARC encoder.

Run with: python3 -m pytest perfbench/test_refcarc.py
The expected bytes are written out by hand from the grammar; the digests are
the published golden vectors for the same archives.
"""

import hashlib
import os

import pytest

import refcarc


def _file(path, data, executable=False):
    path.write_bytes(data)
    path.chmod(0o755 if executable else 0o644)


def _plain(root):
    _file(root, b"hello")


def _exec(root):
    _file(root, b"#!/bin/sh\n", executable=True)


def _symlink(root):
    root.mkdir()
    os.symlink("target/file", root / "ln")


def _nested(root):
    (root / "sub").mkdir(parents=True)
    _file(root / "sub" / "f", b"x")


def _raw_byte_order(root):
    root.mkdir()
    _file(root / "a", b"2")
    _file(root / "B", b"1")


def _mixed(root):
    root.mkdir()
    _file(root / "a", b"abc")
    _file(root / "a0", b"ok", executable=True)
    (root / "d").mkdir()
    os.symlink("a", root / "l")


CASES = {
    "plain_file": (_plain, b"carc1\nf\n5\nhello",
                   "8416ffe8d618b0d4f8663d2aa2372a68568eb66cade85a674d25fbb41f8c804b"),
    "executable": (_exec, b"carc1\nx\n10\n#!/bin/sh\n",
                   "4f9d3c87d6e5de1f436f31a2e23d2ca9f808bce0ab1a5f8388731daa8d5d8958"),
    "symlink": (_symlink, b"carc1\nd\n1\n2\nlnl\n11\ntarget/file",
                "21e091d90920d30d0b659dd2f16bacb062a67b256e3ff2412b7d3d1bb4eac654"),
    "nested_dirs": (_nested, b"carc1\nd\n1\n3\nsubd\n1\n1\nff\n1\nx",
                    "bf0f62b89252a1c9f60848efd6a2e7a8b27e3aa1ee9b795877882bd22d9d7faa"),
    "raw_byte_order": (_raw_byte_order, b"carc1\nd\n2\n1\nBf\n1\n11\naf\n1\n2",
                       "5b7d86e3b5e4e718d350920d60b7fdec137950fac679dd743b7b814fc14e14d4"),
    "mixed": (_mixed, b"carc1\nd\n4\n1\naf\n3\nabc2\na0x\n2\nok1\ndd\n0\n1\nll\n1\na",
              "e42bd67753068a10731e22002a4a7e5335874bf716c9a69e819140e6b04e392a"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_hand_worked_archives(tmp_path, name):
    make, expected, hex_digest = CASES[name]
    root = tmp_path / name
    make(root)
    assert refcarc.encode(root) == expected
    assert refcarc.digest(root) == (hex_digest, len(expected))


def test_nested_names_sort_by_raw_bytes(tmp_path):
    root = tmp_path / "t"
    (root / "z" / "b").mkdir(parents=True)
    (root / "Z").mkdir()
    _file(root / "z" / "b" / "k", b"")
    _file(root / "z" / "a-", b"1")
    _file(root / "é", b"e")  # 0xc3 0xa9 sorts after every ASCII name
    expected = (b"carc1\nd\n3\n"
                b"1\nZd\n0\n"
                b"1\nzd\n2\n2\na-f\n1\n1" b"1\nbd\n1\n1\nkf\n0\n"
                b"2\n\xc3\xa9f\n1\ne")
    assert refcarc.encode(root) == expected
    assert refcarc.digest(root) == (hashlib.sha256(expected).hexdigest(),
                                    len(expected))


def test_digest_streams_files_larger_than_a_block(tmp_path):
    data = bytes(range(256)) * ((3 << 20) // 256 + 7)
    _file(tmp_path / "big", data)
    expected = b"carc1\nf\n%d\n" % len(data) + data
    assert refcarc.digest(tmp_path / "big") == (hashlib.sha256(expected).hexdigest(),
                                               len(expected))


def test_read_fields(tmp_path):
    (tmp_path / "rec").write_text("kind: derived\nreferences: \nsize: 12\n")
    assert refcarc.read_fields(tmp_path / "rec") == {
        "kind": "derived", "references": "", "size": "12"}
