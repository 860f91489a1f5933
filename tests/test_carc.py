import hashlib
import itertools
import os
import random
import stat
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import carc_model
from microfold import carc
from microfold.errors import MicrofoldError, ParseError
from microfold.hashing import ContentHash

# Golden vectors: the byte strings were written out by hand against the
# grammar and hashed with an independent script (plain hashlib over the
# literals) before carc.py existed.
GOLDEN = {
    "empty_dir": (b'carc1\nd\n0\n', "d14b30112c2b03819ebc5e95f5fbfe4daccb22e14a39414eff8aa6c036e3034f"),
    "dir_one_file": (b'carc1\nd\n1\n1\naf\n2\nhi', "16ac0bca0cea6c8af69bfebc2c48a668cab680b1ec8e642d4421ea27e1fb8361"),
    "single_file_hello": (b'carc1\nf\n5\nhello', "8416ffe8d618b0d4f8663d2aa2372a68568eb66cade85a674d25fbb41f8c804b"),
    "single_exec_script": (b'carc1\nx\n10\n#!/bin/sh\n', "4f9d3c87d6e5de1f436f31a2e23d2ca9f808bce0ab1a5f8388731daa8d5d8958"),
    "dir_symlink": (b'carc1\nd\n1\n2\nlnl\n11\ntarget/file', "21e091d90920d30d0b659dd2f16bacb062a67b256e3ff2412b7d3d1bb4eac654"),
    "nested_dir": (b'carc1\nd\n1\n3\nsubd\n1\n1\nff\n1\nx', "bf0f62b89252a1c9f60848efd6a2e7a8b27e3aa1ee9b795877882bd22d9d7faa"),
    "sort_upper_before_lower": (b'carc1\nd\n2\n1\nBf\n1\n11\naf\n1\n2', "5b7d86e3b5e4e718d350920d60b7fdec137950fac679dd743b7b814fc14e14d4"),
    "empty_file": (b'carc1\nd\n1\n1\nef\n0\n', "8bc85de5f2f9269c866cc629b7b3c859f944eddf16e38396200b01797e894471"),
    "tricky_content": (b'carc1\nf\n11\nf\n2\nhi\nd\n0\n', "1d8fc7fe192f108fc9d8390f0512f3b35f2e630f32161392365f83cf991c56f2"),
    "mixed_tree": (b'carc1\nd\n4\n1\naf\n3\nabc2\na0x\n2\nok1\ndd\n0\n1\nll\n1\na', "e42bd67753068a10731e22002a4a7e5335874bf716c9a69e819140e6b04e392a"),
}

TREES = {
    "empty_dir": carc_model.Dir(),
    "dir_one_file": carc_model.Dir({"a": carc_model.File(b"hi")}),
    "single_file_hello": carc_model.File(b"hello"),
    "single_exec_script": carc_model.File(b"#!/bin/sh\n", executable=True),
    "dir_symlink": carc_model.Dir({"ln": carc_model.Symlink("target/file")}),
    "nested_dir": carc_model.Dir({"sub": carc_model.Dir({"f": carc_model.File(b"x")})}),
    "sort_upper_before_lower": carc_model.Dir({"a": carc_model.File(b"2"),
                                               "B": carc_model.File(b"1")}),
    "empty_file": carc_model.Dir({"e": carc_model.File(b"")}),
    "tricky_content": carc_model.File(b"f\n2\nhi\nd\n0\n"),
    "mixed_tree": carc_model.Dir({
        "a": carc_model.File(b"abc"),
        "a0": carc_model.File(b"ok", executable=True),
        "d": carc_model.Dir(),
        "l": carc_model.Symlink("a"),
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_vectors(name):
    expected_bytes, expected_hash = GOLDEN[name]
    got = carc_model.serialize_tree(TREES[name])
    assert got == expected_bytes
    assert hashlib.sha256(got).hexdigest() == expected_hash
    assert carc_model.hash_tree(TREES[name]).hex == expected_hash


def test_golden_vectors_from_disk(tmp_path):
    for name, tree in TREES.items():
        dest = tmp_path / name
        carc_model.write_tree(tree, dest)
        assert carc_model.serialize_path(dest) == GOLDEN[name][0], name


def test_round_trip_parse():
    for name, (data, _) in GOLDEN.items():
        assert carc_model.serialize_tree(carc_model.parse(data)) == data


def test_rejects_bad_entry_names():
    with pytest.raises(carc_model.InvalidName):
        carc_model.serialize_tree(carc_model.Dir({"": carc_model.File(b"")}))
    with pytest.raises(carc_model.InvalidName):
        carc_model.serialize_tree(carc_model.Dir({"a/b": carc_model.File(b"")}))
    with pytest.raises(carc_model.InvalidName):
        carc_model.serialize_tree(carc_model.Dir({"a\x00b": carc_model.File(b"")}))


def test_rejects_special_files(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with pytest.raises(MicrofoldError, match="unsupported file type"):
        carc_model.serialize_path(tmp_path)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        carc_model.parse(b"nope")
    with pytest.raises(ParseError):
        carc_model.parse(GOLDEN["empty_dir"][0] + b"extra")
    # entries must be sorted
    with pytest.raises(ParseError):
        carc_model.parse(b"carc1\nd\n2\n1\nbf\n0\n1\naf\n0\n")


# -- property: only content, names, exec bits, targets matter -------------

NAMES = ["a", "b", "c0", "B", "x.y", "long-name_1"]


def random_tree(rng, depth=0):
    kind = rng.random()
    if depth >= 3 or kind < 0.45:
        return carc_model.File(bytes(rng.randrange(256) for _ in range(rng.randrange(6))),
                         executable=rng.random() < 0.3)
    if kind < 0.55:
        return carc_model.Symlink(rng.choice(NAMES))
    d = carc_model.Dir()
    for name in rng.sample(NAMES, rng.randrange(len(NAMES) + 1)):
        d.entries[name] = random_tree(rng, depth + 1)
    return d


def materialize_shuffled(tree, dest, rng):
    """Write the tree with randomized entry order and mtimes."""
    if isinstance(tree, carc_model.Dir):
        dest.mkdir()
        names = list(tree.entries)
        rng.shuffle(names)
        for name in names:
            materialize_shuffled(tree.entries[name], dest / name, rng)
        os.utime(dest, (rng.randrange(10**9), rng.randrange(10**9)))
    else:
        carc_model.write_tree(tree, dest)
        if not isinstance(tree, carc_model.Symlink):
            os.utime(dest, (rng.randrange(10**9), rng.randrange(10**9)))


def all_files(tree, prefix=()):
    if isinstance(tree, carc_model.File):
        yield prefix, tree
    elif isinstance(tree, carc_model.Dir):
        for name, child in tree.entries.items():
            yield from all_files(child, prefix + (name,))


def test_ignored_attributes_never_change_hash(tmp_path):
    rng = random.Random(1234)
    for i in range(250):
        tree = random_tree(rng)
        base = carc_model.hash_tree(tree)
        d1 = tmp_path / f"t{i}a"
        d2 = tmp_path / f"t{i}b"
        materialize_shuffled(tree, d1, rng)
        materialize_shuffled(tree, d2, rng)
        assert carc.hash_path(d1) == base
        assert carc.hash_path(d2) == base


def test_significant_attributes_always_change_hash():
    rng = random.Random(99)
    checked = 0
    while checked < 1000:
        tree = random_tree(rng)
        files = list(all_files(tree))
        base = carc_model.hash_tree(tree)

        # content mutation
        if files:
            path, f = rng.choice(files)
            old = f.data
            f.data = old + b"!"
            assert carc_model.hash_tree(tree) != base
            f.data = old
            checked += 1

        # exec-bit mutation
        if files:
            path, f = rng.choice(files)
            f.executable = not f.executable
            assert carc_model.hash_tree(tree) != base
            f.executable = not f.executable
            checked += 1

        # name mutation
        if isinstance(tree, carc_model.Dir) and tree.entries:
            name = rng.choice(list(tree.entries))
            fresh = "zz-" + name
            if fresh not in tree.entries:
                tree.entries[fresh] = tree.entries.pop(name)
                assert carc_model.hash_tree(tree) != base
                tree.entries[name] = tree.entries.pop(fresh)
                checked += 1

        checked += 1  # the tree itself counts as one sampled case


# -- streaming: dump, copy and restore -------------------------------------

def _materialize(node, path, modes):
    """Write an in-memory tree with plain os calls (not carc), giving files
    the next mode from modes, so only the owner exec bit may matter."""
    if isinstance(node, carc_model.File):
        path.write_bytes(node.data)
        mode = next(modes)
        path.chmod(mode | 0o100 if node.executable else mode & ~0o111)
    elif isinstance(node, carc_model.Symlink):
        os.symlink(node.target, path)
    else:
        path.mkdir()
        for name, child in node.entries.items():
            _materialize(child, path / name, modes)


_names = st.text(st.characters(blacklist_characters="/\x00",
                               blacklist_categories=("Cs",)),
                 min_size=1, max_size=6).filter(lambda n: n not in (".", ".."))
_files = st.builds(carc_model.File, st.binary(max_size=64), st.booleans())
_links = st.builds(carc_model.Symlink, st.sampled_from(["a", "../x", "sub/é", "/abs"]))
_trees = st.recursive(
    _files | _links | st.builds(carc_model.Dir),
    lambda kids: st.builds(carc_model.Dir, st.dictionaries(_names, kids, max_size=4)),
    max_leaves=12)


@settings(max_examples=80, deadline=None)
@given(_trees, st.lists(st.sampled_from([0o600, 0o640, 0o664, 0o610, 0o751]),
                        min_size=1))
def test_dump_matches_in_memory_model_and_round_trips(tree, modes):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        _materialize(tree, src, itertools.cycle(modes))
        chunks = []
        dumped = carc.dump(src, chunks.append)
        archive = b"".join(chunks)
        assert archive == carc_model.serialize_tree(carc_model.load_tree(src))
        assert archive == carc_model.serialize_tree(tree)
        assert dumped == (ContentHash.of_bytes(archive), len(archive))

        restored = Path(tmp) / "restored"
        digest = carc.restore(chunks, restored)
        assert digest == (ContentHash.of_bytes(archive), len(archive))
        assert carc_model.serialize_path(restored) == archive
        copied = Path(tmp) / "copied"
        assert carc.copy(src, copied) == digest
        assert carc_model.serialize_path(copied) == archive
        assert _modes(restored) == _modes(copied)


def _modes(root):
    """Relative path -> permission bits of every non-symlink entry."""
    out = {}
    for dirpath, dirs, files in os.walk(root):
        for name in [""] + dirs + files:
            p = Path(dirpath, name)
            if not p.is_symlink():
                out[str(p.relative_to(root))] = stat.S_IMODE(p.lstat().st_mode)
    return out


def test_restored_and_copied_modes_are_canonical(tmp_path):
    src = tmp_path / "src"
    _materialize(TREES["mixed_tree"], src, itertools.cycle([0o600]))
    os.chmod(src / "d", 0o700)
    carc.copy(src, tmp_path / "copied")
    carc.restore([GOLDEN["mixed_tree"][0]], tmp_path / "restored")
    want = {".": 0o755, "a": 0o644, "a0": 0o755, "d": 0o755}
    assert _modes(tmp_path / "copied") == want
    assert _modes(tmp_path / "restored") == want
    # A settling walk (the builder's, over an output) fixes modes in place
    # as it reads, and the archive it streams is that of the copy.
    chunks = []
    carc.dump(src, chunks.append, settle=True)
    assert _modes(src) == want
    assert b"".join(chunks) == carc_model.serialize_path(tmp_path / "copied")


MALFORMED = {
    "truncated": GOLDEN["mixed_tree"][0][:-1],
    "truncated_header": b"carc1\nd\n2\n1\naf\n",
    "out_of_order": b"carc1\nd\n2\n1\nbf\n0\n1\naf\n0\n",
    "duplicate_entry": b"carc1\nd\n2\n1\naf\n0\n1\naf\n0\n",
    "trailing_garbage": GOLDEN["mixed_tree"][0] + b"x",
    "bad_magic": b"carc2\nf\n0\n",
    "bad_number": b"carc1\nf\n1x\nab",
    "endless_number": b"carc1\nf\n" + b"1" * 40,
    "unknown_tag": b"carc1\nq\n0\n",
    "empty_symlink_target": b"carc1\nl\n0\n",
    "nul_in_symlink_target": b"carc1\nd\n1\n1\nal\n3\na\x00b",
    "slash_in_name": b"carc1\nd\n1\n3\na/bf\n0\n",
    "dot_dot_name": b"carc1\nd\n1\n2\n..d\n0\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("chunk", [None, 1, 3])
def test_restore_rejects_malformed(tmp_path, name, chunk):
    data = MALFORMED[name]
    chunks = [data] if chunk is None else [data[i:i + chunk]
                                           for i in range(0, len(data), chunk)]
    with pytest.raises(ParseError):
        carc.restore(chunks, tmp_path / "dest")
    with pytest.raises(ParseError):
        carc_model.parse(data)


def test_restore_streams_from_small_chunks(tmp_path):
    for name, (data, digest) in GOLDEN.items():
        chunks = [data[i:i + 2] for i in range(0, len(data), 2)]
        got = carc.restore(chunks, tmp_path / name)
        assert got == (ContentHash(digest), len(data))
        assert carc_model.serialize_path(tmp_path / name) == data


def _deep_tree(dest: Path, depth: int) -> Path:
    """A chain of directories at dest whose innermost entry, a file, lies
    depth levels below dest."""
    path = dest
    for _ in range(depth):
        path.mkdir()
        path = path / "d"
    path.write_bytes(b"x")
    return dest


def _deep_archive(depth: int) -> bytes:
    """The archive of _deep_tree(..., depth), written from the grammar."""
    return b"carc1\n" + b"d\n1\n1\nd" * depth + b"f\n1\nx"


def test_dump_copy_and_restore_share_one_depth_bound(tmp_path):
    """A tree MAX_DEPTH levels deep round-trips; one level deeper, dump and
    copy refuse it as unsupported and restore as malformed, without
    running out of stack."""
    assert carc.MAX_DEPTH >= 600
    data = _deep_archive(carc.MAX_DEPTH)
    assert carc_model.serialize_path(_deep_tree(tmp_path / "at", carc.MAX_DEPTH)) == data
    digest = (ContentHash.of_bytes(data), len(data))
    assert carc.restore([data], tmp_path / "restored") == digest
    assert carc.copy(tmp_path / "restored", tmp_path / "copied") == digest

    deeper = _deep_tree(tmp_path / "deeper", carc.MAX_DEPTH + 1)
    with pytest.raises(MicrofoldError, match="levels deep") as refused:
        carc.dump(deeper, lambda block: None)
    assert type(refused.value) is MicrofoldError
    with pytest.raises(MicrofoldError, match="levels deep") as refused:
        carc.copy(deeper, tmp_path / "deeper-copied")
    assert type(refused.value) is MicrofoldError
    for depth in (carc.MAX_DEPTH + 1, 5000):
        with pytest.raises(ParseError, match="levels deep"):
            carc.restore([_deep_archive(depth)], tmp_path / f"restored-{depth}")


def test_hash_path_memory_does_not_grow_with_file_size(tmp_path):
    big = tmp_path / "big"
    with open(big, "wb") as f:
        f.truncate(32 << 20)  # sparse: 32 MiB of zeros
    want = hashlib.sha256(b"carc1\nf\n%d\n" % (32 << 20))
    zeros = bytes(1 << 20)
    for _ in range(32):
        want.update(zeros)
    del zeros
    tracemalloc.start()
    try:
        got = carc.hash_path(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.hex == want.hexdigest()
    assert peak < 4 << 20
