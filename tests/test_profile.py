import pytest

from microfold import carc
from microfold import derivation as d
from microfold.derivation import Derivation
from microfold.errors import ProfileCollision, UnknownGeneration
from microfold.manifest import Instantiator
from microfold.profile import Profile, build_profile, union_tree
from microfold.store import StorePath


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
        carc.write_tree(node, tmp_path / f"member{i}")
        members.append((sp, tmp_path / f"member{i}"))
    union_tree(members, tmp_path / "union")
    return carc.load_tree(tmp_path / "union")


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


def _drv(name, files):
    return Derivation(name=name, version="1",
                      steps=[d.write(p, c) for p, c in files.items()])


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
    drvs = [inst.instantiate(packages[k])
            for k in ("python@3.9", "python-numpy@1.20", "python-scipy@1.6")]
    gen = build_profile(drvs, store, profile, archive=archive)
    tree = profile.generation_dir(gen.number) / "tree"
    assert (tree / "bin/python").exists()
    assert (tree / "lib/scipy.py").read_bytes() == b"# solvers\n"
    assert store.verify_item(gen.profile_tree).ok
