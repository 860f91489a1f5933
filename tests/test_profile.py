import copy
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import carc_model
from microfold import carc
from microfold import derivation as d
from microfold.derivation import Derivation, derivation_hash
from microfold.errors import ProfileCollision, UnknownGeneration
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
    a = carc.Dir({"bin": carc.Dir({"a": carc.File(b"a")})})
    b = carc.Dir({"bin": carc.Dir({"b": carc.File(b"b")}),
                  "share": carc.Dir({"doc": carc.File(b"d")})})
    union = _union(tmp_path, [(_sp("00" * 16 + "-a"), a), (_sp("11" * 16 + "-b"), b)])
    assert set(union.entries["bin"].entries) == {"a", "b"}
    assert union.entries["share"].entries["doc"].data == b"d"


def test_union_identical_files_collapse(tmp_path):
    a = carc.Dir({"LICENSE": carc.File(b"MIT")})
    b = carc.Dir({"LICENSE": carc.File(b"MIT")})
    union = _union(tmp_path, [(_sp("00" * 16 + "-a"), a), (_sp("11" * 16 + "-b"), b)])
    assert union.entries["LICENSE"].data == b"MIT"


def test_union_conflict_reports_both_providers(tmp_path):
    a = carc.Dir({"bin": carc.Dir({"tool": carc.File(b"one")})})
    b = carc.Dir({"bin": carc.Dir({"tool": carc.File(b"two")})})
    with pytest.raises(ProfileCollision) as exc:
        _union(tmp_path, [(_sp("00" * 16 + "-a"), a), (_sp("11" * 16 + "-b"), b)])
    assert exc.value.path == "bin/tool"
    providers = (exc.value.provider1, exc.value.provider2)
    assert "00" * 16 + "-a" in providers
    assert "11" * 16 + "-b" in providers


def test_union_exec_bit_difference_is_a_conflict(tmp_path):
    a = carc.Dir({"f": carc.File(b"x", executable=True)})
    b = carc.Dir({"f": carc.File(b"x")})
    with pytest.raises(ProfileCollision):
        _union(tmp_path, [(_sp("00" * 16 + "-a"), a), (_sp("11" * 16 + "-b"), b)])


def test_union_single_file_output_nested_under_label(tmp_path):
    union = _union(tmp_path, [(_sp("00" * 16 + "-blob-1.0"), carc.File(b"raw"))])
    assert union.entries["blob-1.0"].data == b"raw"


A, B, C = (_sp(c * 32 + "-" + n) for c, n in (("0", "a"), ("1", "b"), ("2", "c")))


@pytest.mark.parametrize("first, second", [(A, B), (B, A)])
def test_union_file_against_directory_names_both_providers(tmp_path, first, second):
    trees = {A: carc.Dir({"lib": carc.File(b"a file")}),
             B: carc.Dir({"lib": carc.Dir({"x": carc.File(b"x")})})}
    with pytest.raises(ProfileCollision) as exc:
        _union(tmp_path, [(first, trees[first]), (second, trees[second])])
    assert exc.value.path == "lib"
    assert (exc.value.provider1, exc.value.provider2) == (first.component,
                                                          second.component)


def test_union_of_three_names_the_first_provider_of_the_entry(tmp_path):
    a = carc.Dir({"share": carc.Dir({"doc": carc.File(b"mine")})})
    b = carc.Dir({"share": carc.Dir({"man": carc.File(b"b")})})
    c = carc.Dir({"share": carc.Dir({"man": carc.File(b"b"),
                                     "doc": carc.File(b"other")})})
    with pytest.raises(ProfileCollision) as exc:
        _union(tmp_path, [(A, a), (B, b), (C, c)])
    assert exc.value.path == "share/doc"
    assert (exc.value.provider1, exc.value.provider2) == (A.component, C.component)
    # Without the clash, all three merge and the shared file collapses.
    del c.entries["share"].entries["doc"]
    (tmp_path / "ok").mkdir()
    union = _union(tmp_path / "ok", [(A, a), (B, b), (C, c)])
    assert union == carc.Dir({"share": carc.Dir({"doc": carc.File(b"mine"),
                                                 "man": carc.File(b"b")})})


def test_union_dir_then_dir_then_file_names_the_file(tmp_path):
    a = carc.Dir({"bin": carc.Dir({"a": carc.File(b"a")})})
    b = carc.Dir({"bin": carc.Dir({"b": carc.File(b"b")})})
    c = carc.Dir({"bin": carc.File(b"c")})
    with pytest.raises(ProfileCollision) as exc:
        _union(tmp_path, [(A, a), (B, b), (C, c)])
    assert (exc.value.path, exc.value.provider1, exc.value.provider2) == (
        "bin", A.component, C.component)


def _model_merge(into: carc.Dir, name, node):
    have = into.entries.get(name)
    if have is None:
        into.entries[name] = copy.deepcopy(node)
    elif isinstance(have, carc.Dir) and isinstance(node, carc.Dir):
        for child, sub in node.entries.items():
            _model_merge(have, child, sub)
    elif have != node:
        raise ProfileCollision(name, "", "")


def _model_union(members):
    """The union computed on the in-memory model, member by member."""
    union = carc.Dir()
    for sp, node in members:
        entries = node.entries if isinstance(node, carc.Dir) else {sp.label: node}
        for name, sub in entries.items():
            _model_merge(union, name, sub)
    return union


_few_names = st.sampled_from(["a", "b", "lib"])
_leaves = (st.builds(carc.File, st.sampled_from([b"", b"x", b"yy"]), st.booleans())
           | st.builds(carc.Symlink, st.sampled_from(["a", "../t"])))
_member_trees = st.recursive(
    _leaves | st.builds(carc.Dir),
    lambda kids: st.builds(carc.Dir, st.dictionaries(_few_names, kids, max_size=3)),
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
        union_hash = union_tree(paths, tmp / "union")
        assert union_hash == carc.hash_path(tmp / "union")
        assert union_hash == carc_model.hash_tree(expected)


def _drv(name, files):
    """A (derivation, hash) pair, as build_profile takes them."""
    drv = Derivation(name=name, version="1",
                     steps=[d.write(p, c) for p, c in files.items()])
    return drv, derivation_hash(drv)


def test_build_profile_creates_generation(store, profile):
    gen = build_profile([_drv("a", {"bin/a": b"a"}),
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
    gen = build_profile([_drv("a", {"bin/a": b"a"})], store, profile)
    rec = store.get_record(gen.profile_tree)
    assert rec.kind == "fixed"
    assert [r.label for r in rec.references] == ["a-1"]
    closure = store.closure(gen.profile_tree)
    assert {p.label for p in closure} == {"profile", "a-1"}


def test_generations_append_and_survive(store, profile):
    g1 = build_profile([_drv("a", {"f": b"one"})], store, profile)
    g2 = build_profile([_drv("a", {"f": b"two"})], store, profile)
    assert (g1.number, g2.number) == (1, 2)
    assert profile.current() == 2
    # generation 1 still materialized and readable
    assert (profile.generation_dir(1) / "tree/f").read_bytes() == b"one"
    assert (profile.generation_dir(2) / "tree/f").read_bytes() == b"two"


def test_rollback_moves_pointer_only(store, profile):
    build_profile([_drv("a", {"f": b"one"})], store, profile)
    build_profile([_drv("a", {"f": b"two"})], store, profile)
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
    build_profile([_drv("a", {"f": b"one"})], store, profile)
    build_profile([_drv("a", {"f": b"two"})], store, profile)
    with pytest.MonkeyPatch.context() as mp:
        _crash_writes_to(mp, "current")
        with pytest.raises(OSError):
            build_profile([_drv("a", {"f": b"three"})], store, profile)
        with pytest.raises(OSError):
            profile.rollback(1)
    assert profile.current() == 2
    assert [p.name for p in profile.root.iterdir() if "current" in p.name] == ["current"]
    assert profile.rollback(1) == 1 and profile.current() == 1


def test_rollback_unknown_generation(store, profile):
    build_profile([_drv("a", {"f": b"x"})], store, profile)
    with pytest.raises(UnknownGeneration):
        profile.rollback(7)


def test_identical_inputs_reuse_store_item(store, profile, tmp_path):
    g1 = build_profile([_drv("a", {"f": b"x"})], store, profile)
    other = Profile(tmp_path / "p2")
    g2 = build_profile([_drv("a", {"f": b"x"})], store, other)
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
