"""Run one benchmark operation in a fresh process.

    python3 op.py cli ARGS...                  microfold ARGS..., as the CLI runs it
    python3 op.py publish STORE PROFILE CACHE  publish the active generation's
                                               closure through substitute.publish

With PERFBENCH_TRACE=FILE the process wraps microfold's public functions
(see spans.py) and writes its spans to FILE when the operation ends.
PERFBENCH_SPAWN is the parent's time.monotonic() just before the spawn, so
the trace can report the time taken by interpreter start and imports.
"""

import os
import sys
import time


def publish_closure(store_root, profile_root, cache):
    from microfold.profile import Profile
    from microfold.store import Store, StorePath
    from microfold.substitute import publish

    store = Store(store_root)
    profile = Profile(profile_root)
    root = StorePath.from_component(
        store.root, profile.generation_store_component(profile.current()))
    closure = store.closure(root)
    for path in closure:
        publish(store, path, cache)
    print(f"published {len(closure)}")
    return 0


def main(argv):
    mode, args = argv[0], argv[1:]
    import microfold.cli
    imported = time.monotonic()
    if mode == "cli":
        entry = lambda: microfold.cli.run_command(args)
    elif mode == "publish":
        entry = lambda: publish_closure(*args)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    trace_file = os.environ.get("PERFBENCH_TRACE")
    if not trace_file:
        return entry()
    import spans
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return tracer.wrap("op." + mode, entry)()
    finally:
        start_s = imported - float(os.environ["PERFBENCH_SPAWN"])
        tracer.dump(trace_file, os.environ.get("PERFBENCH_OP", mode), start_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
