"""One benchmark invocation of the mkrf CLI in a fresh process.

    python3 perfbench/child.py RECORD MODE SRC -- <mkrf arguments>

MODE is ``plain`` (only the entry of the numerical core is time-stamped,
which is how ``setup_s`` and ``solve_s`` are measured), ``traced`` (every
name ``spans.targets`` lists is wrapped) or ``setup`` (the process exits
when the numerical core is entered, so only set-up is paid).  SRC is the
``src`` directory mkrf must be imported from.  The record, written to
RECORD as JSON when the process ends, holds the import time and the spans.
The exit code is the CLI's.
"""

import json
import os
import sys
import time

from spans import Tracer

# the numerical core: the flow integration, or the Newton solve for cy-solve
CORE = ("cli.run_flow", "cli.solve_cy")


def main(argv):
    record_path, mode, src = argv[0], argv[1], os.path.realpath(argv[2])
    mkrf_argv = argv[argv.index("--") + 1:]
    t0 = time.perf_counter()
    import mkrf.cli
    import_s = time.perf_counter() - t0
    if not os.path.realpath(mkrf.cli.__file__).startswith(src + os.sep):
        print(f"mkrf imported from {mkrf.cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = Tracer()

    def write_record(rc, core_entry):
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "rc": rc, "core_entry": core_entry,
                       **tracer.record()}, fh)

    if mode == "setup":
        class SetupDone(Exception):
            pass

        entered = []

        def stop(*args, **kwargs):
            entered.append(time.perf_counter())
            raise SetupDone

        mkrf.cli.run_flow = mkrf.cli.solve_cy = stop
        try:
            mkrf.cli.main(mkrf_argv)
        except SetupDone:
            write_record(0, entered[0])
            return 0
        write_record(1, None)
        return 1

    tracer.install(only=None if mode == "traced" else CORE)
    rc = 1
    try:
        rc = mkrf.cli.main(mkrf_argv)
    finally:
        tracer.uninstall()
        core = [s[1] for s in tracer.spans if tracer.names[s[0]][0] in CORE]
        write_record(rc, core[0] if core else None)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
