import pytest

from microfold import carc
from microfold import derivation as d
from microfold.bootstrap import audit_trust, register_seed
from microfold.builder import build
from microfold.derivation import Derivation, derivation_hash
from microfold.manifest import Instantiator
from microfold.profile import Profile, build_profile
from microfold.store import StorePath

from conftest import instantiated, seed_tree


def test_register_seed_records_kind_and_size(store):
    rec = register_seed(store, seed_tree(), "toolchain-1.0", description="cc")
    item = store.get_record(rec.path)
    assert item.kind == "seed"
    assert rec.size == len(carc.serialize_tree(seed_tree()))
    assert rec.description == "cc"


def test_pure_derivation_is_trusted(store):
    drv = Derivation(name="pure", version="1",
                     steps=[d.write("f", b"bytes from nowhere but the drv")])
    path = build(drv, store)
    report = audit_trust(path, store)
    assert report.trusted
    assert report.offending == []
    assert report.total_seed_bytes == 0


def test_seed_built_closure_is_trusted(store, archive, toolchain, packages):
    inst = Instantiator(packages, store=store, archive=archive)
    alpha = inst.instantiate(packages["app-alpha@1.0"])
    path = build(alpha, store, archive=archive)
    report = audit_trust(path, store)
    assert report.trusted
    assert [s.path.component for s in report.seed_list] == \
        [toolchain.path.component]
    assert report.total_seed_bytes == toolchain.size
    assert report.leaf_counts.get("seed") == 1
    assert report.leaf_counts.get("fixed", 0) >= 4  # one source per package


def test_seed_counted_once_across_diamond(store, archive, toolchain, packages):
    # Both libmath and libio run the same seed compiler; the seed mass is
    # the CARC size of the distinct seed, not a per-use sum.
    inst = Instantiator(packages, store=store, archive=archive)
    alpha = inst.instantiate(packages["app-alpha@1.0"])
    build(alpha, store, archive=archive)
    report = audit_trust(alpha, store)
    assert len(report.seed_list) == 1
    assert report.total_seed_bytes == toolchain.size


def test_opaque_binary_flags_exactly_the_dependents(store, toolchain):
    # A binary dropped into the store with no provenance at all.
    opaque = store.add_fixed(
        carc.Dir({"bin": carc.Dir({"mystery": carc.File(
            b"#!/bin/sh\n/bin/cat > \"$1\" <<EOF\nartifact\nEOF\n",
            executable=True)})}),
        "mystery-tool", kind="fixed")

    user = Derivation(name="user", version="1", steps=[
        d.exec_(f"{opaque.component}/bin/mystery", "@out@/f"),
    ])
    clean = Derivation(name="clean", version="1", steps=[
        d.exec_(f"{toolchain.path.component}/bin/cc", "@out@/f"),
    ])
    user_path = build(user, store)
    clean_path = build(clean, store)

    tainted = audit_trust(user_path, store)
    assert not tainted.trusted
    assert (opaque.component, "no-source-provenance") in tainted.offending

    untouched = audit_trust(clean_path, store)
    assert untouched.trusted


def test_unknown_component_is_opaque(store):
    drv = Derivation(name="ghost", version="1", steps=[
        d.exec_("ab" * 16 + "-phantom-1.0/bin/tool", "@out@/h"),
    ])
    report = audit_trust(drv, store)
    assert not report.trusted
    assert ("ab" * 16 + "-phantom-1.0", "unknown-component") in report.offending


def test_derived_without_deriver_is_opaque(store):
    drv = Derivation(name="orphan", version="1",
                     steps=[d.write("f", b"data")])
    path = build(drv, store)
    rec = store.get_record(path)
    rec.deriver = None
    store._write_record(rec)
    report = audit_trust(path, store)
    assert not report.trusted
    assert (path.component, "derived-without-deriver") in report.offending


def test_profile_audit_recurses_into_members(store, archive, toolchain,
                                             packages, tmp_path):
    inst = Instantiator(packages, store=store, archive=archive)
    drvs = instantiated(inst, [packages[k] for k in ("app-alpha@1.0", "libio@1.0")])
    gen = build_profile(drvs, store, Profile(tmp_path / "prof"),
                        archive=archive)
    report = audit_trust(gen.profile_tree, store)
    assert report.trusted
    assert report.total_seed_bytes == toolchain.size


def test_audit_monotone_under_injection(store, archive, toolchain, packages):
    """Opacity is monotone: adding an opaque input never cleans a closure."""
    inst = Instantiator(packages, store=store, archive=archive)
    beta = inst.instantiate(packages["app-beta@1.0"])
    beta_path = build(beta, store, archive=archive)
    assert audit_trust(beta_path, store).trusted

    opaque = store.add_fixed(carc.File(b"blob"), "wild-blob", kind="fixed")
    wrapper = Derivation(name="wrapper", version="1", steps=[
        d.copy(f"{derivation_hash(beta).prefix}-{beta.label}/share/deps.txt",
               "deps.txt"),
        d.write("note", f"uses {opaque.component}\n".encode()),
        d.concat("both", "out/deps.txt", f"{opaque.component}"),
    ])
    wrapper_path = build(wrapper, store)
    report = audit_trust(wrapper_path, store)
    assert not report.trusted
    # the previously trusted closure stays trusted
    assert audit_trust(beta_path, store).trusted


def test_render_lists_offenders(store):
    opaque = store.add_fixed(carc.File(b"blob"), "rogue", kind="fixed")
    report = audit_trust(opaque, store)
    text = report.render()
    assert "verdict: opaque" in text
    assert f"opaque {opaque.component} no-source-provenance" in text
