"""Benchmark: time to a verified mkrf result, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/mkrf``.  The seed draws the
phases of the workload's scenario (``workloads.py``); the scenario is
written to a file and passed to the public CLI, ``mkrf.cli.main(["run" |
"cy-solve", "--config", FILE, "--out", DIR])``, one fresh process per
invocation (``child.py``).  Invocations repeat, serially, while the next
is expected to end within S seconds; an untraced run makes at least two and
a traced run at least one untraced and one traced, so every run checks that
the output bytes repeat.

``--trace 0`` reports the end-to-end metrics, each a median over the run's
invocations:

* ``run_s``: process start to exit, including writing the --out directory;
* ``setup_s``: process start to the first time step or Newton iteration
  (interpreter start, importing mkrf, ``load_scenario``, ``build_problem``);
  set-up-only invocations, which exit at that point, top the samples up to
  ``MIN_SETUP``;
* ``solve_s``: the numerical core, ``run_flow`` or ``solve_cy``;
* ``peak_rss_mb``: peak resident memory of the invocation's process.

``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics of ``layers.py`` (medians over the traced ones) and
``trace.overhead_s``, the traced minus the untraced median ``run_s``.

Every invocation passes a correctness gate or is counted as failed and
listed; nothing is skipped or re-seeded.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The scenario, its hash, the environment and every invocation's numbers are
written to ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_FULL = 2        # plain invocations per untraced run: the byte-identity check needs two
MIN_SETUP = 12      # set-up samples per untraced run
SETUP_PER_ROUND = 3  # set-up-only invocations before each plain one, until MIN_SETUP
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"run_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB"}

# the plain single-threaded baseline: mkrf's FFTs and any BLAS on one thread
PINNED_ENV = {
    "MKRF_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # nothing is written outside the checkout, and mkrf is compiled from
    # source by every invocation alike
    "PYTHONDONTWRITEBYTECODE": "1",
}


def environment():
    import numpy
    import scipy

    caches = {}
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        conf = ""
    for line in conf.splitlines():
        key, _, value = line.partition(" ")
        if key.endswith("CACHE_SIZE") and value.strip():
            caches[key] = int(value)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "caches": caches,
        "env": PINNED_ENV,
    }


class Invoker:
    """Launches child.py invocations of one workload and gates their output."""

    def __init__(self, workload, config, work):
        self.wl = workloads.WORKLOADS[workload]
        self.config = config
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED_ENV)
        self.count = 0
        self.failures = []
        self.reference = None  # output digests of the first gated invocation

    def launch(self, mode):
        """Run one invocation; returns its measurements and output directory."""
        self.count += 1
        tag = f"{self.count:03d}-{mode}"
        out = self.work / f"out-{tag}"
        record_path = self.work / f"record-{tag}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(record_path), mode, str(SRC),
               "--", self.wl.command, "--config", str(self.config), "--out", str(out)]
        with open(self.work / f"log-{tag}.txt", "wb") as log:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.work)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            t_exit = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            record = json.loads(record_path.read_text())
        except (OSError, ValueError):
            record = None
        inv = {
            "tag": tag,
            "rc": proc.returncode,
            "run_s": t_exit - t_spawn,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "record": record,
        }
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        if record and record.get("core_entry") is not None:
            inv["setup_s"] = record["core_entry"] - t_spawn
        return inv, out

    def gate(self, inv, out, mode):
        """Append the reasons the invocation fails the correctness gate."""
        why = []
        if inv["rc"] != 0:
            why.append(f"exit code {inv['rc']}")
        if inv["record"] is None or inv.get("setup_s") is None:
            why.append("no record of the numerical core being entered")
        if mode == "setup":
            return why
        wl = self.wl
        if wl.command == "run":
            try:
                data = json.loads((out / "constants.json").read_text())
            except (OSError, ValueError) as e:
                return why + [f"constants.json unreadable: {e}"]
            const = data["constants"]
            inv["constants"] = const
            if const.get("status") != wl.expected_status or not str(
                    const.get("stop_reason", "")).startswith(wl.expected_reason):
                why.append(f"status {const.get('status')!r} ({const.get('stop_reason')})")
            for name in wl.reports:
                if name not in data["reports"]:
                    why.append(f"regime report {name!r} missing")
            for name, rep in sorted(data["reports"].items()):
                if rep["status"] != "ok":
                    bad = [c["name"] for c in rep["checks"] if not c["passed"]]
                    why.append(f"regime report {name!r} is {rep['status']!r} {bad}")
            compared = ("series.csv",)
        else:
            try:
                rep = json.loads((out / "newton_report.json").read_text())
            except (OSError, ValueError) as e:
                return why + [f"newton_report.json unreadable: {e}"]
            if rep.get("converged") is not True:
                why.append("newton_report.json is not converged")
            compared = ("newton_report.json", "cy_solution.mkrf")
        digests = {}
        for name in compared:
            try:
                digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
            except OSError:
                why.append(f"{name} missing")
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            why.append(f"output bytes differ from the run's first invocation: {digests}")
        return why

    def invoke(self, mode):
        inv, out = self.launch(mode)
        why = self.gate(inv, out, mode)
        inv["failed"] = why
        if why:
            self.failures.append(f"{inv['tag']}: " + "; ".join(why))
        if mode != "setup" and out.exists():
            inv["bytes_written"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        if out.exists():
            shutil.rmtree(out)
        return inv


def median(values):
    return statistics.median(values) if values else 0.0


def measure(inv, seconds, trace):
    """Invoke rounds (plain, then traced with --trace 1) while the next one is
    expected to end within ``seconds``; returns (plain, traced, set-up times)."""
    start = time.perf_counter()
    deadline = start + seconds
    min_rounds = 1 if trace else MIN_FULL
    full, traced, setup = [], [], []

    def probe():
        # a set-up-only invocation; spread over the run like the others
        p = inv.invoke("setup")
        setup.append(p.get("setup_s"))

    while True:
        for _ in range(SETUP_PER_ROUND):
            if not trace and len(setup) < MIN_SETUP:
                probe()
        full.append(inv.invoke("plain"))
        setup.append(full[-1].get("setup_s"))
        if trace:
            traced.append(inv.invoke("traced"))
        now = time.perf_counter()
        if len(full) >= min_rounds and now + (now - start) / len(full) > deadline:
            break
    while not trace and len(setup) < MIN_SETUP:
        probe()
    setup = [s for s in setup if s is not None]
    return full, traced, setup


def metrics(inv, full, traced, setup, trace):
    if trace:
        per = [layers.derive(i["record"], i.get("constants", {}), i.get("bytes_written", 0))
               for i in traced if i["record"] is not None]
        values = {name: median([p[name] for p in per]) for name, _ in layers.PER_LAYER
                  if name not in ("trace.overhead_s", "fail_ratio")}
        values["trace.overhead_s"] = (median([i["run_s"] for i in traced])
                                      - median([i["run_s"] for i in full]))
        values["fail_ratio"] = len(inv.failures) / inv.count
        units = dict(layers.PER_LAYER)
    else:
        # in a plain invocation the first span is the numerical core
        core = [i["record"]["spans"][0] for i in full if i["record"] and i["record"]["spans"]]
        values = {
            "run_s": median([i["run_s"] for i in full]),
            "setup_s": median(setup),
            "solve_s": median([end - start for _, start, end, _, _ in core]),
            "peak_rss_mb": median([i["peak_rss_mb"] for i in full]),
        }
        units = END_TO_END
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def run(args):
    if not (SRC / "mkrf" / "cli.py").is_file():
        print(f"error: {SRC / 'mkrf'} not found; run from the root of an mkrf checkout",
              file=sys.stderr)
        return 2
    text = workloads.scenario_text(args.workload, args.seed)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config = work / "scenario.json"
        config.write_text(text)
        inv = Invoker(args.workload, config, work)
        # unmeasured: warm the file cache
        subprocess.run([sys.executable, "-c", "import mkrf.cli"], env=inv.env, cwd=work,
                       check=True, timeout=CHILD_TIMEOUT_S)
        start = time.perf_counter()
        full, traced, setup = measure(inv, args.seconds, args.trace)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = metrics(inv, full, traced, setup, args.trace)
    attempted, failed = inv.count, len(inv.failures)

    results = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": elapsed,
        "scenario": json.loads(text), "scenario_sha256": workloads.digest(text),
        "environment": environment(),
        "invocations": [{k: v for k, v in i.items() if k != "record"}
                        for i in full + traced],
        "failures": inv.failures, "metrics": result,
    }
    results_path = WORK / "results" / f"{work.name}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    env = results["environment"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"scenario_sha256={results['scenario_sha256'][:16]} "
          f"invocations={len(full)} plain + {len(traced)} traced + "
          f"{attempted - len(full) - len(traced)} set-up only in {elapsed:.1f} s")
    print(f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} caches={env['caches']}")
    for k, m in result.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(f"failed/attempted = {failed}/{attempted}")
    for line in inv.failures:
        print(f"FAILED {line}")
    print(f"results: {results_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(p.parse_args(argv))


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
