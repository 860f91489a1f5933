"""Command-line entry point.

Exit codes are stable: 0 success, 1 user error, 2 verification failure,
3 environment/IO failure.  Diagnostics go to stderr; machine-readable
output (store paths, pin files, reports) goes to stdout.  Nothing that
feeds hashing ever contains wall-clock data.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cached_property
from pathlib import Path

from . import errors
from .archive import Archive
from .builder import BuildOptions, Builder, check_rebuild
from .channel import ChannelRepo, parse_pin, render_pin
from .derivation import derivation_hash, load_derivation, parse_derivation
from .errors import MicrofoldError
from .hashing import ContentHash
from .manifest import Instantiator, Manifest, Spec, parse_manifest, parse_spec, resolve_spec
from .profile import Profile, build_profile
from .store import Store, StorePath

EXIT_OK = 0
EXIT_USER = 1
EXIT_VERIFY = 2
EXIT_ENV = 3

_USER_ERRORS = (
    errors.ParseError, errors.InvalidLabel, errors.InvalidHash,
    errors.InvalidName, errors.UnknownPackage, errors.UnknownVersion,
    errors.UnknownGeneration, errors.UnknownRevision, errors.UnknownParent,
    errors.DuplicatePackage, errors.DependencyCycle, errors.ReplacementCycle,
    errors.NoHead, errors.InvariantViolation, errors.ProfileCollision,
    errors.EscapedClosure, errors.DanglingReference,
)
_VERIFY_ERRORS = (
    errors.HashMismatch, errors.StoreCorruption, errors.CorruptRevision,
    errors.CorruptItem, errors.AllProvidersCorrupt, errors.OutputCollision,
)
_ENV_ERRORS = (
    errors.UnreachableRemote, errors.SourceUnavailable, errors.CacheWriteError,
    errors.ArchiveWriteError, errors.StepFailure, errors.SubstituteNotFound,
)


def classify(exc) -> int:
    if isinstance(exc, _VERIFY_ERRORS):
        return EXIT_VERIFY
    if isinstance(exc, _ENV_ERRORS):
        return EXIT_ENV
    if isinstance(exc, _USER_ERRORS):
        return EXIT_USER
    if isinstance(exc, OSError):
        return EXIT_ENV
    return EXIT_USER


class Context:
    def __init__(self, args, parser):
        self.parser = parser  # time-machine parses its command with it
        base = Path(os.environ.get("MICROFOLD_HOME", Path.home() / ".microfold"))
        self.store_root = Path(args.store or os.environ.get(
            "MICROFOLD_STORE", base / "store"))
        self.repo_root = Path(args.channel_repo or os.environ.get(
            "MICROFOLD_CHANNEL_REPO", base / "channel"))
        self.archive_root = Path(args.archive or os.environ.get(
            "MICROFOLD_ARCHIVE", base / "archive"))
        self.default_profile = os.environ.get(
            "MICROFOLD_PROFILE", str(base / "profile"))
        self._packages = None  # time-machine override
        self._pin_text = None  # time-machine override

    @cached_property
    def store(self) -> Store:
        return Store(self.store_root)

    @property
    def repo(self) -> ChannelRepo:
        return ChannelRepo(self.repo_root)

    @property
    def archive(self) -> Archive:
        return Archive(self.archive_root)

    def packages(self) -> dict:
        if self._packages is not None:
            return self._packages
        repo = self.repo
        return repo.checkout(repo.head())

    def pin_text(self) -> str:
        """The pin of the package set packages() returns; "" with no HEAD."""
        if self._pin_text is not None:
            return self._pin_text
        try:
            return self.repo.describe_pin()
        except errors.NoHead:
            return ""


def _build_options(args) -> BuildOptions:
    caches = tuple(getattr(args, "substitute_url", None) or ())
    return BuildOptions(
        use_substitutes=bool(caches),
        caches=caches,
        archive_fallback=not getattr(args, "no_archive_fallback", False),
        workers=getattr(args, "workers", 1) or 1,
    )


def _instantiate_spec(ctx: Context, spec_text: str):
    packages = ctx.packages()
    pkg = resolve_spec(parse_spec(spec_text), packages)
    inst = Instantiator(packages, store=ctx.store, archive=ctx.archive)
    return inst.instantiate(pkg), inst


def cmd_build(ctx: Context, args) -> int:
    target = args.target
    if Path(target).is_file():
        drv = parse_derivation(Path(target).read_text(encoding="utf-8",
                                                      errors="surrogateescape"))
        ctx.store  # ensure store exists
    else:
        drv, _ = _instantiate_spec(ctx, target)
    if args.check:
        report = check_rebuild(drv, ctx.store, rounds=args.check,
                               archive=ctx.archive, options=_build_options(args))
        for rnd in report.rounds:
            print(f"round {rnd.round}: {rnd.output_hash}")
        print("deterministic" if report.deterministic else "nondeterministic")
        return EXIT_OK if report.deterministic else EXIT_VERIFY
    builder = Builder(ctx.store, archive=ctx.archive, options=_build_options(args))
    path = builder.build(drv)
    print(path.path)
    return EXIT_OK


def cmd_package(ctx: Context, args) -> int:
    manifest_text = Path(args.manifest).read_text()
    manifest = parse_manifest(manifest_text)
    packages = ctx.packages()
    inst = Instantiator(packages, store=ctx.store, archive=ctx.archive)
    pkgs = [resolve_spec(s, packages) for s in manifest.specs]
    derivs = [(inst.instantiate(pkg), inst.hashes[pkg.key]) for pkg in pkgs]
    gen = build_profile(derivs, ctx.store, Profile(args.profile or ctx.default_profile),
                        archive=ctx.archive, options=_build_options(args),
                        pin_text=ctx.pin_text(), manifest_text=manifest_text)
    print(f"generation {gen.number}")
    for label, drv_hex, _ in gen.drv_hashes:
        print(f"  {label} {drv_hex[:12]}")
    print(f"profile {gen.profile_tree.component}")
    return EXIT_OK


def cmd_pull(ctx: Context, args) -> int:
    repo = ctx.repo
    remote = args.url or repo.url
    if remote.startswith("file://"):
        remote = remote[len("file://"):]
    head = repo.pull(remote)
    print(head.hex)
    return EXIT_OK


def cmd_describe(ctx: Context, args) -> int:
    repo = ctx.repo
    if args.format == "channels":
        sys.stdout.write(repo.describe_pin())
    elif args.format is None:
        sys.stdout.write(repo.describe_human())
    else:
        print(f"unknown describe format: {args.format}", file=sys.stderr)
        return EXIT_USER
    return EXIT_OK


def cmd_time_machine(ctx: Context, args) -> int:
    pin_file = parse_pin(Path(args.channels).read_text())
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        print("time-machine: missing command after --", file=sys.stderr)
        return EXIT_USER

    def action(packages):
        ctx._packages, ctx._pin_text = packages, render_pin(pin_file.pins)
        try:
            return _dispatch(ctx.parser, rest, ctx)
        finally:
            ctx._packages = ctx._pin_text = None

    return ctx.repo.time_machine(pin_file, action)


def cmd_challenge(ctx: Context, args) -> int:
    from .substitute import challenge as run_challenge
    store = ctx.store
    packages = ctx.packages()
    inst = Instantiator(packages, store=store, archive=ctx.archive)
    paths, derivations = [], {}
    for spec_text in args.specs:
        pkg = resolve_spec(parse_spec(spec_text), packages)
        drv = inst.instantiate(pkg)
        sp = StorePath(store.root, inst.hashes[pkg.key].prefix, drv.label)
        paths.append(sp)
        derivations[sp.component] = drv
    report = run_challenge(paths, args.substitute_url or [], store,
                           rebuild=args.rebuild, derivations=derivations,
                           archive=ctx.archive)
    sys.stdout.write(report.render())
    return EXIT_OK if report.ok else EXIT_VERIFY


def _graph_edges(drv, store, nodes, edges):
    h = derivation_hash(drv)
    label = f"{drv.label}\\n{h.hex[:12]}"
    if label in nodes:
        return label
    nodes.add(label)
    for inp in drv.inputs:
        sub = load_derivation(store, inp.derivation_hash)
        sub_label = _graph_edges(sub, store, nodes, edges)
        edges.add((label, sub_label))
    return label


def cmd_graph(ctx: Context, args) -> int:
    drv, _ = _instantiate_spec(ctx, args.spec)
    nodes, edges = set(), set()
    _graph_edges(drv, ctx.store, nodes, edges)
    if args.dot:
        print("digraph microfold {")
        for node in sorted(nodes):
            print(f'  "{node}";')
        for src, dst in sorted(edges):
            print(f'  "{src}" -> "{dst}";')
        print("}")
    else:
        for node in sorted(nodes):
            print(node.replace("\\n", " "))
        for src, dst in sorted(edges):
            print(f"{src.split(chr(92) + 'n')[0]} -> {dst.split(chr(92) + 'n')[0]}")
    return EXIT_OK


def cmd_archive(ctx: Context, args) -> int:
    if args.archive_cmd == "ingest":
        content_hash = ctx.archive.ingest(Path(args.path),
                                          origin="file://" + str(Path(args.path).resolve()))
        print(content_hash.hex)
        return EXIT_OK
    content_hash = ContentHash(args.hash)
    if ctx.archive.has(content_hash):
        print(f"present {content_hash.hex}")
        for origin in ctx.archive.origins(content_hash):
            print(f"  origin: {origin}")
        return EXIT_OK
    print(f"absent {content_hash.hex}")
    return EXIT_USER


def cmd_seed(ctx: Context, args) -> int:
    from .bootstrap import audit_trust, register_seed
    if args.seed_cmd == "add":
        name = args.name or Path(args.path).name
        rec = register_seed(ctx.store, Path(args.path), name,
                            description=args.description or "")
        print(f"{rec.path.component} {rec.size}")
        return EXIT_OK
    # audit
    target = args.spec
    store = ctx.store
    if len(target) > 33 and target[:32].strip("0123456789abcdef") == "" and target[32] == "-":
        root = StorePath.from_component(store.root, target)
        report = audit_trust(root, store)
    else:
        drv, _ = _instantiate_spec(ctx, target)
        report = audit_trust(drv, store)
    sys.stdout.write(report.render())
    return EXIT_OK if report.trusted else EXIT_VERIFY


def cmd_verify(ctx: Context, args) -> int:
    """Re-hash every recorded item and load every derivation; one line per
    item that is missing or does not match its record, and per derivation
    that does not hash to its name or does not parse."""
    store = ctx.store
    bad = 0
    for rec in store.list_records():
        report = store.verify_item(rec.path)
        if report.status == "missing":
            print(f"missing {rec.path.component}")
        elif not report.ok:
            print(f"mismatch {rec.path.component}: recorded {report.expected}, "
                  f"actual {report.actual}")
        bad += not report.ok
    for drv_hash in store.list_derivations():
        try:
            load_derivation(store, drv_hash)
        except MicrofoldError as e:
            print(f"bad {e}")
            bad += 1
    return EXIT_VERIFY if bad else EXIT_OK


def cmd_rollback(ctx: Context, args) -> int:
    profile = Profile(args.profile or ctx.default_profile)
    active = profile.rollback(args.generation)
    print(f"generation {active}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microfold",
        description="Desk-scale purely functional package manager.")
    parser.add_argument("--store", help="store root directory")
    parser.add_argument("--channel-repo", help="channel repository directory")
    parser.add_argument("--archive", help="source archive directory")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("build", help="build a derivation file or a package spec")
    p.add_argument("target")
    p.add_argument("--substitute-url", action="append")
    p.add_argument("--no-archive-fallback", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--check", type=int, metavar="ROUNDS",
                   help="rebuild ROUNDS times and compare output hashes")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("package", help="deploy a manifest into a profile")
    p.add_argument("-m", "--manifest", required=True)
    p.add_argument("-p", "--profile")
    p.add_argument("--substitute-url", action="append")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_package)

    p = sub.add_parser("pull", help="fetch channel revisions from a remote")
    p.add_argument("--url")
    p.set_defaults(func=cmd_pull)

    p = sub.add_parser("describe", help="show the pinned channel revision")
    p.add_argument("-f", "--format", choices=["channels"], default=None)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("time-machine",
                       help="run a command against pinned channel revisions")
    p.add_argument("-C", "--channels", required=True)
    p.add_argument("rest", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_time_machine)

    p = sub.add_parser("challenge",
                       help="cross-check output hashes between providers")
    p.add_argument("specs", nargs="+")
    p.add_argument("--substitute-url", action="append")
    p.add_argument("--rebuild", action="store_true")
    p.set_defaults(func=cmd_challenge)

    p = sub.add_parser("graph", help="show a package's derivation graph")
    p.add_argument("spec")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("archive", help="source archive operations")
    asub = p.add_subparsers(dest="archive_cmd", required=True)
    ap = asub.add_parser("ingest")
    ap.add_argument("path")
    ap = asub.add_parser("lookup")
    ap.add_argument("hash")
    p.set_defaults(func=cmd_archive)

    p = sub.add_parser("seed", help="trust roots and provenance audit")
    ssub = p.add_subparsers(dest="seed_cmd", required=True)
    sp = ssub.add_parser("add")
    sp.add_argument("path")
    sp.add_argument("--name")
    sp.add_argument("--description")
    sp = ssub.add_parser("audit")
    sp.add_argument("spec")
    p.set_defaults(func=cmd_seed)

    p = sub.add_parser("verify", help="re-hash every store item against its record")
    p.add_argument("--store", default=argparse.SUPPRESS, help="store root directory")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rollback", help="switch a profile's active generation")
    p.add_argument("-p", "--profile")
    p.add_argument("generation", type=int)
    p.set_defaults(func=cmd_rollback)

    return parser


def _dispatch(parser, argv, ctx: Context | None = None) -> int:
    """Parse argv and run its command in ctx, by default one made from it."""
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USER if e.code not in (0, None) else EXIT_OK
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_USER
    return args.func(ctx or Context(args, parser), args)


def run_command(argv) -> int:
    try:
        return _dispatch(make_parser(), argv)
    except MicrofoldError as e:
        print(f"microfold: error: {e}", file=sys.stderr)
        return classify(e)
    except OSError as e:
        print(f"microfold: i/o error: {e}", file=sys.stderr)
        return EXIT_ENV


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
