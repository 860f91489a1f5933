import pytest

from microfold import carc
from microfold import derivation as drv
from microfold.archive import Archive
from microfold.bootstrap import register_seed
from microfold.channel import ChannelRepo, PackageDef
from microfold.derivation import SourceRef
from microfold.hashing import ContentHash
from microfold.store import Store

# /bin/cat by absolute path: the scrubbed PATH contains only input bin dirs.
CC_SCRIPT = b"""#!/bin/sh
out="$1"; shift
: > "$out"
printf 'compiled-with-cc-1.0\\n' >> "$out"
for f in "$@"; do /bin/cat "$f" >> "$out"; done
"""

RANDOM_TOOL = b"""#!/bin/sh
printf '%s-%s\\n' "$$" "$(/bin/date +%N)" > "$1"
"""


def instantiated(inst, pkgs):
    """(derivation, hash) pairs of pkgs, as build_profile takes them."""
    return [(inst.instantiate(p), inst.hashes[p.key]) for p in pkgs]


def seed_tree():
    return carc.Dir({"bin": carc.Dir({"cc": carc.File(CC_SCRIPT, executable=True)})})


@pytest.fixture
def store(tmp_path):
    return Store(tmp_path / "store")


@pytest.fixture
def archive(tmp_path):
    return Archive(tmp_path / "archive")


@pytest.fixture
def repo(tmp_path):
    return ChannelRepo(tmp_path / "channel")


@pytest.fixture
def toolchain(store):
    return register_seed(store, seed_tree(), "toolchain-1.0",
                         description="fixture compiler seed")


def fixture_packages(libc_source_url=None, libc_source_hash=None):
    """The fixture channel: seed-built diamond plus a pure-step python trio.

    libc defaults to an inline source; pass a file:// URL (and its CARC
    hash) to exercise the upstream-then-archive fetch order.
    """
    if libc_source_url is None:
        libc_source = b"int open(const char *path);\n"
    else:
        libc_source = SourceRef(url=libc_source_url,
                                expected_hash=libc_source_hash,
                                label="libc-src")

    libc = PackageDef(
        name="libc", version="1.0", synopsis="fake C library",
        source=libc_source,
        steps=[
            drv.mkdir("lib"),
            drv.exec_("{seed:toolchain-1.0}/bin/cc", "@out@/lib/libc.a", "{src}"),
            drv.write("lib/deps.txt", b"libc deps: none\n"),
        ])

    libmath = PackageDef(
        name="libmath", version="1.0", synopsis="math library",
        source=b"double sin(double x);\n",
        deps=["libc"],
        steps=[
            drv.mkdir("lib"),
            drv.exec_("{seed:toolchain-1.0}/bin/cc", "@out@/lib/libmath.a",
                      "{src}", "{libc}/lib/libc.a"),
            drv.write("lib/deps.txt", b"libc: {libc}\n"),
        ])

    libio = PackageDef(
        name="libio", version="1.0", synopsis="io library",
        source=b"int printf(const char *fmt);\n",
        deps=["libc"],
        steps=[
            drv.mkdir("lib"),
            drv.exec_("{seed:toolchain-1.0}/bin/cc", "@out@/lib/libio.a",
                      "{src}", "{libc}/lib/libc.a"),
            drv.write("lib/deps.txt", b"libc: {libc}\n"),
        ])

    app_alpha = PackageDef(
        name="app-alpha", version="1.0", synopsis="app over the diamond",
        source=b"int main() { return 0; }\n",
        deps=["libmath", "libio"],
        steps=[
            drv.mkdir("bin"),
            drv.exec_("{seed:toolchain-1.0}/bin/cc", "@out@/bin/alpha",
                      "{src}", "{libmath}/lib/libmath.a", "{libio}/lib/libio.a"),
            drv.set_exec("bin/alpha"),
            drv.write("share/deps.txt", b"libmath: {libmath}\nlibio: {libio}\n"),
        ])

    app_beta = PackageDef(
        name="app-beta", version="1.0", synopsis="second app",
        source=b"int main() { return 1; }\n",
        deps=["libmath"],
        steps=[
            drv.mkdir("bin"),
            drv.exec_("{seed:toolchain-1.0}/bin/cc", "@out@/bin/beta",
                      "{src}", "{libmath}/lib/libmath.a"),
            drv.set_exec("bin/beta"),
            drv.write("share/deps.txt", b"libmath: {libmath}\n"),
        ])

    python = PackageDef(
        name="python", version="3.9", synopsis="stand-in interpreter",
        steps=[
            drv.write("bin/python", b"#!/bin/sh\nprintf 'python 3.9\\n'\n"),
            drv.set_exec("bin/python"),
        ])

    numpy = PackageDef(
        name="python-numpy", version="1.20", synopsis="stand-in numpy",
        deps=["python"],
        steps=[
            drv.write("lib/numpy.py", b"# arrays\n"),
            drv.write("lib/numpy-deps.txt", b"python: {python}\n"),
        ])

    scipy = PackageDef(
        name="python-scipy", version="1.6", synopsis="stand-in scipy",
        deps=["python", "python-numpy"],
        steps=[
            drv.write("lib/scipy.py", b"# solvers\n"),
            drv.write("lib/scipy-deps.txt",
                      b"python: {python}\nnumpy: {python-numpy}\n"),
        ])

    return [libc, libmath, libio, app_alpha, app_beta, python, numpy, scipy]


def fixture_packages_v2(**kwargs):
    """Second revision: python moves to 3.10, libio grows a file."""
    pkgs = fixture_packages(**kwargs)
    out = []
    for pkg in pkgs:
        if pkg.name == "python":
            out.append(PackageDef(
                name="python", version="3.10", synopsis=pkg.synopsis,
                steps=[
                    drv.write("bin/python", b"#!/bin/sh\nprintf 'python 3.10\\n'\n"),
                    drv.set_exec("bin/python"),
                ]))
        elif pkg.name == "libio":
            out.append(PackageDef(
                name=pkg.name, version="1.1", synopsis=pkg.synopsis,
                source=pkg.source, deps=list(pkg.deps),
                steps=list(pkg.steps) + [drv.write("lib/NEWS", b"now async\n")]))
        else:
            out.append(pkg)
    return out


@pytest.fixture
def channel_r1(repo):
    return repo.commit_revision(fixture_packages(), message="initial packages")


@pytest.fixture
def packages(channel_r1, repo):
    return repo.checkout(channel_r1.id)
