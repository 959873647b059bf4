"""The repository benchmark: one workload per process, closed loop.

Run from the repository root::

    python3 perfbench/run.py --workload table2 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke          # the benchmark's self-test

A run isolates its environment (every ``REPRO_*`` variable cleared, so no
calibration file is consulted and the executor is serial; BLAS/OpenMP
threads pinned to one), warms up with one tiny-size
pass (imports, BLAS initialisation), then repeats passes until
``--seconds`` have elapsed.  Every pass regenerates its inputs from the
seed, so the program's caches start cold, runs the workload once (the
cold pass) and once more over the same inputs (the replay).

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``setup_s`` (imports plus the median input generation), ``run_s`` and
``replay_s`` (median pass times), ``step_p50_ms``/``step_p90_ms`` (per
operation latency over all cold passes: a Table 2 row, a Figure 4 point,
or one drift step -- apply a delta, then ``observe``), ``ci_tests`` (tests
one cold pass executes) and ``peak_rss_mb``.  With ``--trace 1`` untraced
and traced passes alternate; the traced ones wrap each layer's public
callables (``tracer.py``) and the line reports per-layer self time and
counters (medians over traced passes), ``fail_ratio``, and the tracing
overhead.  The Chrome trace goes to ``.perfbench_out/``.  Traced and
untraced passes must produce identical counts and verdicts, or the run
is not correct.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "run_s": "s", "step_p50_ms": "ms",
              "step_p90_ms": "ms", "replay_s": "s", "ci_tests": "count",
              "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    from tracer import SELF_TIME_METRICS

    units = {name: "s" for name in SELF_TIME_METRICS.values()}
    units["unattributed_s"] = "s"
    units.update({name: "count" for name in (
        "core.select_calls", "ci.query.make_calls", "ci.ledger.batches",
        "ci.ledger.tests", "ci.ledger.cache_hits", "ci.tester.queries",
        "ci.tester.groups", "ci.store.saves", "data.write_calls")})
    units.update({"ci.store.bytes_written": "bytes",
                  "ci.ledger.hit_ratio": "ratio",
                  "ci.tester.fusion_ratio": "ratio", "fail_ratio": "ratio",
                  "trace.overhead_s": "s", "trace.overhead_ratio": "ratio"})
    return units


# -- environment ----------------------------------------------------------------

def isolate_environment() -> dict:
    """Clear ``REPRO_*`` and pin thread pools; return the prior values.

    One BLAS/OpenMP thread: at these matrix sizes it measured faster than
    two on a 2-core host (Table 2 at seed 3: 2.7 s against 3.6 s), and a
    single thread cannot spin-wait against a busy neighbour, which once
    stretched a 3.6 s pass to 20 s.
    """
    cleared = {k: os.environ.pop(k) for k in sorted(os.environ)
               if k.startswith("REPRO_")}
    for var in THREAD_VARS:
        if var in os.environ:
            cleared[var] = os.environ[var]
        os.environ[var] = "1"
    return cleared


def host_block(cleared: dict, workdir: Path) -> dict:
    import numpy
    import scipy

    from repro.ci.executor import default_executor

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_rev": _git_rev(),
        "source_digest": _source_digest(),
        "store_fs": _filesystem(workdir),
        "replaced_env": cleared,
        "default_executor": type(default_executor()).__name__,
    }


def _git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    """Content hash of ``src/repro`` (the checkout may not be a git repo)."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _filesystem(path: Path) -> str | None:
    """Type of the filesystem holding ``path`` (atomic store writes cost
    milliseconds on ext4 and microseconds on tmpfs)."""
    best, fstype = "", None
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                if (str(path) == mount or str(path).startswith(
                        mount.rstrip("/") + "/")) and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        return None
    return fstype


# -- measurement ------------------------------------------------------------------

def measure(workload, seed: int, seconds: float, trace: bool, tiny: bool,
            workdir: Path, tracer=None) -> dict:
    """Warm up, then run passes for about ``seconds``."""
    totals = {"attempted": 0, "failed": 0}
    problems: list[str] = []

    def account(result):
        totals["attempted"] += result.attempted
        totals["failed"] += len(result.failed)
        problems.extend(result.problems)

    # Warm-up: imports and BLAS initialisation only, at the tiny size.
    warm = workload.setup(seed, tiny=True)
    account(workload.run(warm, str(workdir)).finish())

    setups, colds, replays, traced_colds, layers = [], [], [], [], []
    digests = set()
    began_all = time.perf_counter()
    for n_pass in itertools.count():
        traced = trace and n_pass % 2 == 1
        began = time.perf_counter()
        inputs = workload.setup(seed, tiny=tiny)
        setups.append(time.perf_counter() - began)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            cold = workload.run(inputs, str(workdir))
            # Untraced passes of a trace run only give the overhead base.
            again = [] if trace and not traced else [
                workload.run(inputs, str(workdir), cold=cold)
                for _ in range(workload.replays)]
        finally:
            if traced:
                tracer.restore()
        account(cold.finish())
        digests.add(cold.digest)
        for replay in again:
            account(replay)
            replays.append(replay.seconds)
        if traced:
            traced_colds.append(cold.seconds)
            wall = cold.seconds + sum(replay.seconds for replay in again)
            layers.append(tracer.report(wall))
            tracer.mark("bench.pass", began, time.perf_counter() - began)
        else:
            colds.append(cold)
        # Stop when the next pass would overrun, after at least two passes
        # (one untraced and one traced with --trace 1).
        now = time.perf_counter()
        if n_pass >= 1 and now + (now - began) > began_all + seconds:
            break
    if len(digests) > 1:
        # Same seed, same inputs: every pass (traced or not) must agree.
        totals["failed"] += len(digests) - 1
        problems.append(f"{len(digests)} distinct outputs over "
                        f"{len(colds) + len(traced_colds)} passes")
    return {"setups": setups, "colds": colds, "replays": replays,
            "traced_colds": traced_colds, "layers": layers,
            "problems": problems, **totals}


def end_to_end(data: dict, import_s: float) -> dict:
    import numpy

    colds = data["colds"]
    steps = [ms for cold in colds for ms in cold.steps_ms]
    p50, p90 = numpy.percentile(steps, [50, 90])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": import_s + statistics.median(data["setups"]),
        "run_s": statistics.median(c.seconds for c in colds),
        "step_p50_ms": float(p50),
        "step_p90_ms": float(p90),
        "replay_s": statistics.median(data["replays"]),
        "ci_tests": colds[0].ci_tests,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(data: dict) -> dict:
    layers = data["layers"]
    out = {name: statistics.median(layer[name] for layer in layers)
           for name in layers[0]}
    untraced = statistics.median(c.seconds for c in data["colds"])
    traced = statistics.median(data["traced_colds"])
    out["fail_ratio"] = data["failed"] / data["attempted"]
    out["trace.overhead_s"] = traced - untraced
    out["trace.overhead_ratio"] = (traced - untraced) / untraced
    return out


def run_one(args) -> int:
    cleared = isolate_environment()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports numpy, scipy and repro
    import repro

    import_s = time.perf_counter() - _T0
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        host = host_block(cleared, workdir)
        data = measure(workload, args.seed, args.seconds, bool(args.trace),
                       args.tiny, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.write_chrome_trace(
            str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "host": host})
    metrics = per_layer(data) if args.trace else end_to_end(data, import_s)
    units = per_layer_units() if args.trace else END_TO_END
    print("host " + json.dumps(host, sort_keys=True))
    print(f"{args.workload} seed={args.seed}: "
          f"{len(data['colds']) + len(data['traced_colds'])} passes, "
          f"{data['attempted']} operations, {data['failed']} failed")
    for problem in data["problems"][:20]:
        print("FAILED " + problem)
    print(json.dumps({
        "correct": data["failed"] == 0,
        "attempted": data["attempted"],
        "failed": data["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


# -- self-test ----------------------------------------------------------------------

def smoke() -> int:
    """Run every workload at the tiny size, traced and untraced, and check
    the printed metrics against ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{label}: exit {proc.returncode}\n"
                              f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                errors.append(f"{label}: metrics {sorted(got)} do not match "
                              f"BENCHMARK.json {sorted(expected[trace])}")
            # A trace run compares traced and untraced passes itself.
            if not result["correct"] or result["failed"]:
                errors.append(f"{label}: not correct\n" + "\n".join(lines))
            print(f"{label}: {result['attempted']} operations, "
                  f"{result['failed']} failed")
    for error in errors:
        print("SMOKE FAILURE " + error)
    print("smoke " + ("failed" if errors else "passed"))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("table2", "fig4b", "drift",
                                               "drift-store"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes (the self-test uses them)")
    parser.add_argument("--smoke", action="store_true",
                        help="run the self-test instead of one workload")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
