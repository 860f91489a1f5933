"""Command-line entry point.

Exit codes are stable: 0 success, 1 user error, 2 verification failure,
3 environment/IO failure.  Diagnostics go to stderr; machine-readable
output (store paths, pin files, reports) goes to stdout.  Nothing that
feeds hashing ever contains wall-clock data.  A command's package set is
named by one pin file, Context.pins: HEAD's, read once, or the one that
time-machine sets; package -m records that pin file in its generation.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cached_property, partial
from pathlib import Path

from .archive import Archive
from .builder import BuildOptions, Builder, check_rebuild
from .channel import ChannelRepo, parse_pin, render_pin
from .derivation import load_derivation, output_path, parse_derivation, register_derivation
from .errors import MicrofoldError, ParseError
from .hashing import ContentHash
from .manifest import Instantiator, parse_manifest, parse_spec
from .profile import Profile, build_profile
from .store import COMPONENT_RE, Store, StorePath, decode_state, postorder

EXIT_OK = 0
EXIT_USER = 1
EXIT_VERIFY = 2
EXIT_ENV = 3


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

    @cached_property
    def store(self) -> Store:
        return Store(self.store_root)

    @cached_property
    def repo(self) -> ChannelRepo:
        return ChannelRepo(self.repo_root)

    @cached_property
    def archive(self) -> Archive:
        return Archive(self.archive_root)

    @cached_property
    def pins(self) -> list:
        """The ChannelPins that name this command's package set: HEAD's,
        read once, unless time-machine has set them from its pin file."""
        return [self.repo.pin()]

    def packages(self) -> dict:
        return self.repo.pinned_packages(self.pins)


def _build_options(args) -> BuildOptions:
    return BuildOptions(caches=tuple(getattr(args, "substitute_url", None) or ()),
                        workers=getattr(args, "workers", 1))


def _instantiate(ctx: Context, specs) -> list:
    """The derivation hashes of specs, each resolved before any is
    instantiated; the store holds their bytes."""
    inst = Instantiator(ctx.packages(), store=ctx.store, archive=ctx.archive)
    pkgs = [inst.resolve(spec) for spec in specs]
    return [inst.instantiate(pkg) for pkg in pkgs]


def cmd_build(ctx: Context, args) -> int:
    target = args.target
    if Path(target).is_file():
        drv_hash = register_derivation(ctx.store, parse_derivation(Path(target).read_bytes()))
    else:
        [drv_hash] = _instantiate(ctx, [parse_spec(target)])
    if args.check:
        report = check_rebuild(drv_hash, ctx.store, rounds=args.check,
                               archive=ctx.archive, workers=args.workers)
        for rnd in report.rounds:
            print(f"round {rnd.round}: {rnd.output_hash}")
        print("deterministic" if report.deterministic else "nondeterministic")
        return EXIT_OK if report.deterministic else EXIT_VERIFY
    builder = Builder(ctx.store, archive=ctx.archive, options=_build_options(args))
    print(builder.build([drv_hash])[0].path)
    return EXIT_OK


def cmd_package(ctx: Context, args) -> int:
    manifest_text = decode_state(Path(args.manifest).read_bytes(), args.manifest, ParseError)
    manifest = parse_manifest(manifest_text)
    gen = build_profile(_instantiate(ctx, manifest.specs), ctx.store,
                        Profile(args.profile or ctx.default_profile),
                        archive=ctx.archive, options=_build_options(args),
                        pin_text=render_pin(ctx.pins), manifest_text=manifest_text)
    print(f"generation {gen.number}")
    for label, drv_hex, _ in gen.drv_hashes:
        print(f"  {label} {drv_hex[:12]}")
    print(f"profile {gen.profile_tree.component}")
    return EXIT_OK


def cmd_pull(ctx: Context, args) -> int:
    repo = ctx.repo
    print(repo.pull(args.url or repo.url).hex)
    return EXIT_OK


def cmd_describe(ctx: Context, args) -> int:
    # -f has choices=["channels"]: argparse rejects any other format
    sys.stdout.write(render_pin(ctx.pins) if args.format == "channels"
                     else ctx.repo.describe_human(ctx.pins))
    return EXIT_OK


def cmd_time_machine(ctx: Context, args) -> int:
    pins = decode_state(Path(args.channels).read_bytes(), args.channels, ParseError, parse_pin)
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        print("time-machine: missing command after --", file=sys.stderr)
        return EXIT_USER

    for pin in pins:
        ctx.repo.ensure_revision(pin)
    ctx.pins = pins
    return _dispatch(ctx.parser, rest, ctx)


def cmd_challenge(ctx: Context, args) -> int:
    from .substitute import challenge as run_challenge
    store = ctx.store
    hashes = _instantiate(ctx, map(parse_spec, args.specs))
    paths = [output_path(store, drv_hash) for drv_hash in hashes]
    derivations = {p.component: h for p, h in zip(paths, hashes)} if args.rebuild else None
    report = run_challenge(paths, args.substitute_url or [], store,
                           derivations=derivations, archive=ctx.archive)
    sys.stdout.write(report.render())
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_graph(ctx: Context, args) -> int:
    labels, edges = {}, set()  # derivation hash -> node label

    def inputs(drv_hash):
        return [i.derivation_hash for i in load_derivation(ctx.store, drv_hash).inputs]

    for drv_hash in postorder(_instantiate(ctx, [parse_spec(args.spec)]), inputs):
        drv = load_derivation(ctx.store, drv_hash)  # the instantiator's object
        labels[drv_hash] = f"{drv.label}\\n{drv_hash.hex[:12]}"
        edges.update((labels[drv_hash], labels[i.derivation_hash]) for i in drv.inputs)
    nodes = set(labels.values())
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
    if COMPONENT_RE.fullmatch(args.spec):
        root = StorePath.from_component(ctx.store.root, args.spec)
    else:
        [root] = _instantiate(ctx, [parse_spec(args.spec)])
    report = audit_trust(root, ctx.store)
    sys.stdout.write(report.render())
    return EXIT_OK if report.trusted else EXIT_VERIFY


def cmd_verify(ctx: Context, args) -> int:
    """Re-hash every recorded item and load every derivation; one line per
    record that does not parse, per item that is missing or does not match
    its record, per reference with no record, per derived record whose
    deriver the store lacks, and per derivation that does not hash to its
    name or does not parse."""
    store = ctx.store
    components = store.components()
    recorded, drvs = set(components), set(store.list_derivations())
    bad = 0
    for component in components:
        try:
            report = store.verify_item(StorePath.from_component(store.root, component))
            rec = store.get_record(component)
        except MicrofoldError as e:
            print(f"bad {component}: {e}")
            bad += 1
            continue
        if report.status == "missing":
            print(f"missing {component}")
        elif not report.ok:
            print(f"mismatch {component}: recorded {report.expected}, "
                  f"actual {report.actual}")
        bad += not report.ok
        for ref in rec.references:
            if ref.component not in recorded:
                print(f"dangling {component}: {ref.component}")
                bad += 1
        if rec.kind == "derived" and rec.deriver not in drvs:
            print(f"missing deriver {component}: {rec.deriver}")
            bad += 1
    for drv_hash in store.list_derivations():
        try:
            load_derivation(store, drv_hash)
        except MicrofoldError as e:
            print(f"bad {drv_hash.hex}: {e}")
            bad += 1
    return EXIT_VERIFY if bad else EXIT_OK


def cmd_rollback(ctx: Context, args) -> int:
    profile = Profile(args.profile or ctx.default_profile)
    active = profile.rollback(args.generation)
    print(f"generation {active}")
    return EXIT_OK


def _at_least(low: int, text: str) -> int:
    """An argparse type: a whole number of at least low (--workers, --check)."""
    if not text.isdecimal() or int(text) < low:
        raise argparse.ArgumentTypeError(f"expected a number of at least {low}, got {text!r}")
    return int(text)


COMMANDS = ("build", "package", "pull", "describe", "time-machine", "challenge",
            "graph", "archive", "seed", "verify", "rollback")


def make_parser(argv=()) -> argparse.ArgumentParser:
    """The parser, with the subcommands named in argv (a time-machine argv
    also names its inner command), or with all of them if argv names none."""
    named = set(argv).intersection(COMMANDS) or COMMANDS
    parser = argparse.ArgumentParser(
        prog="microfold",
        description="Desk-scale purely functional package manager.")
    parser.add_argument("--store", help="store root directory")
    parser.add_argument("--channel-repo", help="channel repository directory")
    parser.add_argument("--archive", help="source archive directory")
    sub = parser.add_subparsers(dest="command")

    def add(name, help):
        return sub.add_parser(name, help=help) if name in named else None

    if p := add("build", "build a derivation file or a package spec"):
        p.add_argument("target")
        p.add_argument("--substitute-url", action="append")
        p.add_argument("--workers", type=partial(_at_least, 1), default=1)
        p.add_argument("--check", type=partial(_at_least, 2), metavar="ROUNDS",
                       help="rebuild ROUNDS times and compare output hashes")
        p.set_defaults(func=cmd_build)

    if p := add("package", "deploy a manifest into a profile"):
        p.add_argument("-m", "--manifest", required=True)
        p.add_argument("-p", "--profile")
        p.add_argument("--substitute-url", action="append")
        p.add_argument("--workers", type=partial(_at_least, 1), default=1)
        p.set_defaults(func=cmd_package)

    if p := add("pull", "fetch channel revisions from a remote"):
        p.add_argument("--url")
        p.set_defaults(func=cmd_pull)

    if p := add("describe", "show the pinned channel revision"):
        p.add_argument("-f", "--format", choices=["channels"], default=None)
        p.set_defaults(func=cmd_describe)

    if p := add("time-machine", "run a command against pinned channel revisions"):
        p.add_argument("-C", "--channels", required=True)
        p.add_argument("rest", nargs=argparse.REMAINDER)
        p.set_defaults(func=cmd_time_machine)

    if p := add("challenge", "cross-check output hashes between providers"):
        p.add_argument("specs", nargs="+")
        p.add_argument("--substitute-url", action="append")
        p.add_argument("--rebuild", action="store_true")
        p.set_defaults(func=cmd_challenge)

    if p := add("graph", "show a package's derivation graph"):
        p.add_argument("spec")
        p.add_argument("--dot", action="store_true")
        p.set_defaults(func=cmd_graph)

    if p := add("archive", "source archive operations"):
        asub = p.add_subparsers(dest="archive_cmd", required=True)
        ap = asub.add_parser("ingest")
        ap.add_argument("path")
        ap = asub.add_parser("lookup")
        ap.add_argument("hash")
        p.set_defaults(func=cmd_archive)

    if p := add("seed", "trust roots and provenance audit"):
        ssub = p.add_subparsers(dest="seed_cmd", required=True)
        sp = ssub.add_parser("add")
        sp.add_argument("path")
        sp.add_argument("--name")
        sp.add_argument("--description")
        sp = ssub.add_parser("audit")
        sp.add_argument("spec")
        p.set_defaults(func=cmd_seed)

    if p := add("verify", "re-hash every store item against its record"):
        p.add_argument("--store", default=argparse.SUPPRESS, help="store root directory")
        p.set_defaults(func=cmd_verify)

    if p := add("rollback", "switch a profile's active generation"):
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
        return _dispatch(make_parser(argv), argv)
    except MicrofoldError as e:
        print(f"microfold: error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"microfold: i/o error: {e}", file=sys.stderr)
        return EXIT_ENV


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
