import copy
import errno
import os
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import carc_model
from microfold import carc, profile as profile_mod
from microfold import derivation as d
from microfold.derivation import Derivation, register_derivation
from microfold.errors import MicrofoldError, ProfileCollision
from microfold.hashing import ContentHash
from microfold.cli import run_command
from microfold.manifest import Instantiator
from microfold.profile import Profile, build_profile, union_tree
from microfold.store import StorePath

from conftest import instantiated


@pytest.fixture
def profile(tmp_path):
    return Profile(tmp_path / "profile")


def _sp(component):
    return StorePath.from_component("/nowhere", component)


def _union(tmp_path, outputs):
    """union_tree over (StorePath, node) pairs written to disk; the union,
    read back."""
    members = []
    for i, (sp, node) in enumerate(outputs):
        carc_model.write_tree(node, tmp_path / f"member{i}")
        members.append((sp, tmp_path / f"member{i}"))
    union_tree(members, tmp_path / "union")
    return carc_model.load_tree(tmp_path / "union")


def test_union_disjoint_trees(tmp_path):
    a = carc_model.Dir({"bin": carc_model.Dir({"a": carc_model.File(b"a")})})
    b = carc_model.Dir({"bin": carc_model.Dir({"b": carc_model.File(b"b")}),
                  "share": carc_model.Dir({"doc": carc_model.File(b"d")})})
    union = _union(tmp_path, [(_sp("00" * 16 + "-a"), a), (_sp("11" * 16 + "-b"), b)])
    assert set(union.entries["bin"].entries) == {"a", "b"}
    assert union.entries["share"].entries["doc"].data == b"d"


def test_union_as_deep_as_an_archive_may_be(tmp_path):
    """Two members that share a directory path 599 levels deep: the union
    takes one frame per level, so it stays within the recursion limit."""
    depth = carc.MAX_DEPTH - 1
    members = []
    for name in ("a", "b"):
        path = tmp_path / name / "/".join(["d"] * depth)
        path.mkdir(parents=True)
        (path / name).write_bytes(name.encode())
        members.append((_sp(name * 32 + "-" + name), tmp_path / name))
    archive = b"carc1\n" + b"d\n1\n1\nd" * depth + b"d\n2\n1\naf\n1\na1\nbf\n1\nb"
    assert union_tree(members, tmp_path / "union") == \
        (ContentHash.of_bytes(archive), len(archive))
    assert carc.hash_path(tmp_path / "union") == ContentHash.of_bytes(archive)


def test_union_identical_files_collapse(tmp_path):
    a = carc_model.Dir({"LICENSE": carc_model.File(b"MIT")})
    b = carc_model.Dir({"LICENSE": carc_model.File(b"MIT")})
    union = _union(tmp_path, [(_sp("00" * 16 + "-a"), a), (_sp("11" * 16 + "-b"), b)])
    assert union.entries["LICENSE"].data == b"MIT"


def test_union_conflict_reports_both_providers(tmp_path):
    a = carc_model.Dir({"bin": carc_model.Dir({"tool": carc_model.File(b"one")})})
    b = carc_model.Dir({"bin": carc_model.Dir({"tool": carc_model.File(b"two")})})
    with pytest.raises(ProfileCollision) as exc:
        _union(tmp_path, [(_sp("00" * 16 + "-a"), a), (_sp("11" * 16 + "-b"), b)])
    assert exc.value.path == "bin/tool"
    providers = (exc.value.provider1, exc.value.provider2)
    assert "00" * 16 + "-a" in providers
    assert "11" * 16 + "-b" in providers


def test_union_exec_bit_difference_is_a_conflict(tmp_path):
    a = carc_model.Dir({"f": carc_model.File(b"x", executable=True)})
    b = carc_model.Dir({"f": carc_model.File(b"x")})
    with pytest.raises(ProfileCollision):
        _union(tmp_path, [(_sp("00" * 16 + "-a"), a), (_sp("11" * 16 + "-b"), b)])


def test_union_single_file_output_nested_under_label(tmp_path):
    union = _union(tmp_path, [(_sp("00" * 16 + "-blob-1.0"), carc_model.File(b"raw"))])
    assert union.entries["blob-1.0"].data == b"raw"


A, B, C = (_sp(c * 32 + "-" + n) for c, n in (("0", "a"), ("1", "b"), ("2", "c")))


@pytest.mark.parametrize("first, second", [(A, B), (B, A)])
def test_union_file_against_directory_names_both_providers(tmp_path, first, second):
    trees = {A: carc_model.Dir({"lib": carc_model.File(b"a file")}),
             B: carc_model.Dir({"lib": carc_model.Dir({"x": carc_model.File(b"x")})})}
    with pytest.raises(ProfileCollision) as exc:
        _union(tmp_path, [(first, trees[first]), (second, trees[second])])
    assert exc.value.path == "lib"
    assert (exc.value.provider1, exc.value.provider2) == (first.component,
                                                          second.component)


def test_union_of_three_names_the_first_provider_of_the_entry(tmp_path):
    a = carc_model.Dir({"share": carc_model.Dir({"doc": carc_model.File(b"mine")})})
    b = carc_model.Dir({"share": carc_model.Dir({"man": carc_model.File(b"b")})})
    c = carc_model.Dir({"share": carc_model.Dir({"man": carc_model.File(b"b"),
                                     "doc": carc_model.File(b"other")})})
    with pytest.raises(ProfileCollision) as exc:
        _union(tmp_path, [(A, a), (B, b), (C, c)])
    assert exc.value.path == "share/doc"
    assert (exc.value.provider1, exc.value.provider2) == (A.component, C.component)
    # Without the clash, all three merge and the shared file collapses.
    del c.entries["share"].entries["doc"]
    (tmp_path / "ok").mkdir()
    union = _union(tmp_path / "ok", [(A, a), (B, b), (C, c)])
    assert union == carc_model.Dir({"share": carc_model.Dir({"doc": carc_model.File(b"mine"),
                                                 "man": carc_model.File(b"b")})})


def test_union_dir_then_dir_then_file_names_the_file(tmp_path):
    a = carc_model.Dir({"bin": carc_model.Dir({"a": carc_model.File(b"a")})})
    b = carc_model.Dir({"bin": carc_model.Dir({"b": carc_model.File(b"b")})})
    c = carc_model.Dir({"bin": carc_model.File(b"c")})
    with pytest.raises(ProfileCollision) as exc:
        _union(tmp_path, [(A, a), (B, b), (C, c)])
    assert (exc.value.path, exc.value.provider1, exc.value.provider2) == (
        "bin", A.component, C.component)


def _model_merge(into: carc_model.Dir, name, node):
    have = into.entries.get(name)
    if have is None:
        into.entries[name] = copy.deepcopy(node)
    elif isinstance(have, carc_model.Dir) and isinstance(node, carc_model.Dir):
        for child, sub in node.entries.items():
            _model_merge(have, child, sub)
    elif have != node:
        raise ProfileCollision(name, "", "")


def _model_union(members):
    """The union computed on the in-memory model, member by member."""
    union = carc_model.Dir()
    for sp, node in members:
        entries = node.entries if isinstance(node, carc_model.Dir) else {sp.label: node}
        for name, sub in entries.items():
            _model_merge(union, name, sub)
    return union


_few_names = st.sampled_from(["a", "b", "lib"])
_leaves = (st.builds(carc_model.File, st.sampled_from([b"", b"x", b"yy"]), st.booleans())
           | st.builds(carc_model.Symlink, st.sampled_from(["a", "../t"])))
_member_trees = st.recursive(
    _leaves | st.builds(carc_model.Dir),
    lambda kids: st.builds(carc_model.Dir, st.dictionaries(_few_names, kids, max_size=3)),
    max_leaves=8)


@settings(max_examples=80, deadline=None)
@given(st.lists(_member_trees, min_size=1, max_size=3))
def test_union_hash_is_the_hash_of_the_written_union(trees):
    members = [(_sp(f"{i}" * 32 + f"-m{i % 2}"), t) for i, t in enumerate(trees)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = []
        for i, (sp, node) in enumerate(members):
            carc_model.write_tree(node, tmp / f"member{i}")
            paths.append((sp, tmp / f"member{i}"))
        try:
            expected = _model_union(members)
        except ProfileCollision:
            with pytest.raises(ProfileCollision):
                union_tree(paths, tmp / "union")
            return
        union_hash, size = union_tree(paths, tmp / "union")
        assert union_hash == carc.hash_path(tmp / "union")
        assert union_hash == carc_model.hash_tree(expected)
        assert size == len(carc_model.serialize_tree(expected))


def _drv(name, files):
    """A derivation that writes files."""
    return Derivation(name=name, version="1",
                      steps=[d.write(p, c) for p, c in files.items()])


def _build_profile(members, store, profile, **kwargs):
    """build_profile of the derivations members, registered in store."""
    return build_profile([register_derivation(store, drv) for drv in members],
                         store, profile, **kwargs)


def test_build_profile_creates_generation(store, profile):
    gen = _build_profile([_drv("a", {"bin/a": b"a"}),
                         _drv("b", {"bin/b": b"b"})], store, profile,
                        pin_text="(channels)", manifest_text="; m\n")
    assert gen.number == 1
    assert profile.current() == 1
    gen_dir = profile.generation_dir(1)
    assert (gen_dir / "tree/bin/a").read_bytes() == b"a"
    assert (gen_dir / "tree/bin/b").read_bytes() == b"b"
    assert (gen_dir / "channels.scm").read_text() == "(channels)"
    assert (gen_dir / "manifest.scm").read_text() == "; m\n"
    assert profile.generation_store_component(1) == gen.profile_tree.component
    lines = (gen_dir / "hashes.txt").read_text().splitlines()
    assert len(lines) == 2 and lines == sorted(lines)
    for line in lines:
        label, drv_hex, out_hex = line.split()
        assert len(drv_hex) == len(out_hex) == 64


def test_profile_union_registered_with_member_references(store, profile):
    gen = _build_profile([_drv("a", {"bin/a": b"a"})], store, profile)
    rec = store.get_record(gen.profile_tree)
    assert rec.kind == "fixed"
    assert [r.label for r in rec.references] == ["a-1"]
    closure = store.closure(gen.profile_tree)
    assert {p.label for p in closure} == {"profile", "a-1"}


def test_generations_append_and_survive(store, profile):
    g1 = _build_profile([_drv("a", {"f": b"one"})], store, profile)
    g2 = _build_profile([_drv("a", {"f": b"two"})], store, profile)
    assert (g1.number, g2.number) == (1, 2)
    assert profile.current() == 2
    # generation 1 still materialized and readable
    assert (profile.generation_dir(1) / "tree/f").read_bytes() == b"one"
    assert (profile.generation_dir(2) / "tree/f").read_bytes() == b"two"


def test_rollback_moves_pointer_only(store, profile):
    _build_profile([_drv("a", {"f": b"one"})], store, profile)
    _build_profile([_drv("a", {"f": b"two"})], store, profile)
    assert profile.rollback(1) == 1
    assert profile.current() == 1
    assert profile.generation_numbers() == [1, 2]
    # roll forward again
    assert profile.rollback(2) == 2


def _crash_writes_to(monkeypatch, name):
    """Make every write of a file whose name holds name truncate it and then
    fail, as a process killed in the middle of the write would."""
    for method in ("write_bytes", "write_text"):
        real = getattr(Path, method)

        def torn(self, data, *args, _real=real, **kwargs):
            if name in self.name:
                self.open("wb").close()
                raise OSError(f"crashed writing {self.name}")
            return _real(self, data, *args, **kwargs)
        monkeypatch.setattr(Path, method, torn)


def test_crash_while_writing_current_keeps_the_old_pointer(store, profile):
    _build_profile([_drv("a", {"f": b"one"})], store, profile)
    _build_profile([_drv("a", {"f": b"two"})], store, profile)
    with pytest.MonkeyPatch.context() as mp:
        _crash_writes_to(mp, "current")
        with pytest.raises(OSError):
            _build_profile([_drv("a", {"f": b"three"})], store, profile)
        with pytest.raises(OSError):
            profile.rollback(1)
    assert profile.current() == 2
    assert [p.name for p in profile.root.iterdir() if "current" in p.name] == ["current"]
    assert profile.rollback(1) == 1 and profile.current() == 1


def test_rollback_unknown_generation(store, profile):
    _build_profile([_drv("a", {"f": b"x"})], store, profile)
    with pytest.raises(MicrofoldError, match="unknown generation 7"):
        profile.rollback(7)


def test_identical_inputs_reuse_store_item(store, profile, tmp_path):
    g1 = _build_profile([_drv("a", {"f": b"x"})], store, profile)
    other = Profile(tmp_path / "p2")
    g2 = _build_profile([_drv("a", {"f": b"x"})], store, other)
    assert g1.profile_tree == g2.profile_tree


def test_fixture_manifest_profile(store, archive, toolchain, packages, profile):
    inst = Instantiator(packages, store=store, archive=archive)
    drvs = instantiated(inst, [packages[k] for k in
                               ("python@3.9", "python-numpy@1.20", "python-scipy@1.6")])
    gen = build_profile(drvs, store, profile, archive=archive)
    tree = profile.generation_dir(gen.number) / "tree"
    assert (tree / "bin/python").exists()
    assert (tree / "lib/scipy.py").read_bytes() == b"# solvers\n"
    assert store.verify_item(gen.profile_tree).ok


def _entries(root: Path) -> dict:
    """Relative path -> lstat result of every entry under root."""
    out, stack = {}, [root]
    while stack:
        for entry in os.scandir(stack.pop()):
            out[Path(entry.path).relative_to(root)] = entry.stat(follow_symlinks=False)
            if entry.is_dir(follow_symlinks=False):
                stack.append(entry.path)
    return out


def _shared_inodes(tree: Path, item: Path) -> dict:
    """Relative path -> whether the non-directory entry at it under tree
    is the same inode as its twin under item."""
    mine, theirs = _entries(tree), _entries(item)
    assert mine.keys() == theirs.keys()
    return {rel: (st.st_dev, st.st_ino) == (theirs[rel].st_dev, theirs[rel].st_ino)
            for rel, st in mine.items() if not stat.S_ISDIR(st.st_mode)}


def test_generation_tree_is_hard_links_to_the_store_item(store, profile, capsys):
    gen = _build_profile([_drv("a", {"bin/a": b"a", "share/doc/a": b"doc"}),
                         _drv("b", {"bin/b": b"b"})], store, profile)
    tree = profile.generation_dir(gen.number) / "tree"
    shared = _shared_inodes(tree, gen.profile_tree.path)
    assert len(shared) == 3 and all(shared.values())
    assert carc.hash_path(tree) == store.get_record(gen.profile_tree).output_hash
    assert run_command(["--store", str(store.root), "verify"]) == 0
    # The link is shared: an edit made through the profile edits the item,
    # and verify reports it.
    (tree / "bin/a").write_bytes(b"edited")
    capsys.readouterr()
    assert run_command(["--store", str(store.root), "verify"]) == 2
    assert capsys.readouterr().out.startswith(
        f"mismatch {gen.profile_tree.component}: ")


def test_link_tree_links_symlinks_and_files(tmp_path):
    carc_model.write_tree(carc_model.Dir({
        "bin": carc_model.Dir({"tool": carc_model.File(b"#!", executable=True),
                               "alias": carc_model.Symlink("tool")}),
        "lib": carc_model.Symlink("bin"), "empty": carc_model.Dir()}), tmp_path / "item")
    old = os.umask(0o077)
    try:
        carc.link(tmp_path / "item", tmp_path / "tree")
    finally:
        os.umask(old)
    shared = _shared_inodes(tmp_path / "tree", tmp_path / "item")
    assert sorted(map(str, shared)) == ["bin/alias", "bin/tool", "lib"]
    assert all(shared.values())
    assert carc.hash_path(tmp_path / "tree") == carc.hash_path(tmp_path / "item")
    # Directories are made anew, with mode 0755 whatever the umask.
    assert {str(rel): stat.S_IMODE(st.st_mode)
            for rel, st in _entries(tmp_path / "tree").items()
            if stat.S_ISDIR(st.st_mode)} == {"bin": 0o755, "empty": 0o755}
    assert stat.S_IMODE(os.lstat(tmp_path / "tree").st_mode) == 0o755
    # A single file is linked too.
    carc.link(tmp_path / "item/bin/tool", tmp_path / "tool")
    assert os.path.samefile(tmp_path / "tool", tmp_path / "item/bin/tool")


@pytest.fixture
def unions(monkeypatch):
    """The calls build_profile makes to union_tree, counted."""
    calls = []
    real = profile_mod.union_tree

    def counting(outputs, dest):
        calls.append([sp.component for sp, _ in outputs])
        return real(outputs, dest)
    monkeypatch.setattr(profile_mod, "union_tree", counting)
    return calls


A1, B1 = _drv("a", {"bin/a": b"a"}), _drv("b", {"bin/b": b"b"})


@pytest.mark.parametrize("again", [[A1, B1], [B1, A1], [A1, B1, A1, B1]],
                         ids=["same", "reordered", "duplicated"])
def test_same_members_reuse_the_union_without_a_walk(store, profile, unions, again):
    g1 = _build_profile([A1, B1], store, profile)
    assert len(unions) == 1
    g2 = _build_profile(again, store, profile)
    assert len(unions) == 1
    assert g2.profile_tree == g1.profile_tree
    shared = _shared_inodes(profile.generation_dir(2) / "tree", g1.profile_tree.path)
    assert shared and all(shared.values())


def test_different_members_write_a_new_union(store, profile, unions):
    g1 = _build_profile([A1], store, profile)
    g2 = _build_profile([A1, B1], store, profile)
    assert len(unions) == 2 and g2.profile_tree != g1.profile_tree
    assert {r.label for r in store.get_record(g2.profile_tree).references} == {
        "a-1", "b-1"}


def test_an_older_generation_union_is_found(store, profile, unions):
    r1, r2 = [_drv("a", {"f": b"one"})], [_drv("a", {"f": b"two"})]
    g1 = _build_profile(r1, store, profile)
    g2 = _build_profile(r2, store, profile)
    assert len(unions) == 2
    g3 = _build_profile(r1, store, profile)
    assert len(unions) == 2
    assert g3.profile_tree == g1.profile_tree != g2.profile_tree
    assert (profile.generation_dir(3) / "tree/f").read_bytes() == b"one"


def test_members_with_identical_outputs_get_their_own_union(store, profile, unions):
    """A union is named by its members, so a union byte-identical to another
    member set's still references its own members."""
    a, b = _drv("a", {"f": b"same"}), _drv("b", {"f": b"same"})
    g1 = _build_profile([a], store, profile)
    g2 = _build_profile([b], store, profile)
    rec1, rec2 = store.get_record(g1.profile_tree), store.get_record(g2.profile_tree)
    assert rec1.output_hash == rec2.output_hash
    assert [r.label for r in rec2.references] == ["b-1"]
    labels = {p.label for p in store.closure(g2.profile_tree)}
    assert "b-1" in labels and "a-1" not in labels
    g3 = _build_profile([b], store, profile)
    assert len(unions) == 2 and g3.profile_tree == g2.profile_tree


def test_profiles_with_the_same_members_share_one_union(store, tmp_path, unions):
    p1, p2 = Profile(tmp_path / "p1"), Profile(tmp_path / "p2")
    g1 = _build_profile([A1, B1], store, p1)
    g2 = _build_profile([B1, A1], store, p2)
    assert len(unions) == 1
    assert p1.generation_store_component(1) == p2.generation_store_component(1) \
        == g1.profile_tree.component == g2.profile_tree.component


def test_tree_is_a_copy_where_links_fail(store, profile, monkeypatch):
    def cross_device(*args, **kwargs):
        raise OSError(errno.EXDEV, "Invalid cross-device link")
    monkeypatch.setattr(os, "link", cross_device)
    gen = _build_profile([_drv("a", {"bin/a": b"a", "lib/x": b"x"})], store, profile)
    tree = profile.generation_dir(gen.number) / "tree"
    assert carc.hash_path(tree) == store.get_record(gen.profile_tree).output_hash
    shared = _shared_inodes(tree, gen.profile_tree.path)
    assert len(shared) == 2 and not any(shared.values())
    assert store.verify_item(gen.profile_tree).ok


class _Crash(BaseException):
    """The process dying at this point."""


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("failure", ["crash", "disk full"])
def test_failure_while_linking_adds_no_generation(store, profile, k, failure):
    g1 = _build_profile([_drv("a", {"f": b"one"})], store, profile)
    members = [_drv("a", {"f": b"two", "g/h": b"h", "i": b"i", "j": b"j"})]
    real_link, made = os.link, []

    def link(*args, **kwargs):
        if b"/generations/" not in os.fsencode(args[1]):
            return real_link(*args, **kwargs)  # the union's links
        if len(made) == k:
            if failure == "crash":
                raise _Crash
            raise OSError(errno.ENOSPC, "No space left on device")
        made.append(args)
        return real_link(*args, **kwargs)

    def no_room(*args):
        raise OSError(errno.ENOSPC, "No space left on device")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "link", link)
        mp.setattr(carc, "copy", no_room)
        with pytest.raises((_Crash, OSError)):
            _build_profile(members, store, profile)
    assert len(made) == k
    assert os.listdir(profile.root / "generations") == ["1"]
    assert profile.current() == 1
    new = [r.path for r in store.list_records()
           if r.path.label == "profile" and r.path != g1.profile_tree]
    assert len(new) == 1 and store.verify_item(new[0]).ok
    # A retry ends with the generation that the failed run would have made.
    g2 = _build_profile(members, store, profile)
    assert (g2.number, g2.profile_tree) == (2, new[0])
    assert carc.hash_path(profile.generation_dir(2) / "tree") == \
        store.get_record(g2.profile_tree).output_hash


@pytest.mark.parametrize("k", [0, 2])
def test_crash_while_the_union_is_linked_adds_nothing(store, profile, k):
    g1 = _build_profile([_drv("a", {"f": b"one"})], store, profile)
    members = [_drv("a", {"f": b"two", "g/h": b"h", "i": b"i"})]
    real_link, made = os.link, []

    def link(*args, **kwargs):
        if len(made) == k:
            raise _Crash
        made.append(args)
        return real_link(*args, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "link", link)
        with pytest.raises(_Crash):
            _build_profile(members, store, profile)
    assert len(made) == k
    assert os.listdir(profile.root / "generations") == ["1"]
    assert profile.current() == 1
    assert [r.path for r in store.list_records()
            if r.path.label == "profile"] == [g1.profile_tree]
    assert os.listdir(store.root / "tmp") == []
    g2 = _build_profile(members, store, profile)
    assert g2.number == 2 and g2.profile_tree != g1.profile_tree
    assert store.verify_item(g2.profile_tree).ok
    assert carc.hash_path(profile.generation_dir(2) / "tree") == \
        store.get_record(g2.profile_tree).output_hash
