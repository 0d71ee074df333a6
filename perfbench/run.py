"""Single-core benchmark of `stpt forward` and `stpt eval`.

Run from the repository root, with `src` on the path and nothing installed:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: forward-default, forward-toy-sweep, eval-dense, eval-wide (see
README.md). The program runs in this process through `stpt.cli.main`, on a
config and input files generated from the seed. Rounds of operations repeat
until the next round would end past `--seconds`, after a minimum number of
rounds. With `--trace 0` the last stdout line holds the end-to-end metrics;
with `--trace 1` untraced and traced rounds alternate and it holds the
per-layer metrics, including the tracing overhead.
"""

import os
import sys

# Pin the BLAS and OpenMP pools to one thread before numpy loads; the set-up
# probes inherit the same environment. STPT_SEED would override the seed in
# the generated config, so it is dropped. Set-up is timed as an installed
# package runs it, from cached bytecode, which this process writes when it
# imports stpt, whatever PYTHONDONTWRITEBYTECODE says.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("STPT_SEED", None)
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
sys.dont_write_bytecode = False

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402  (this directory is first on sys.path)
from workloads import WORKLOADS, CheckFailed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh interpreters per run; the median is reported. This process has already
# imported stpt, so bytecode is compiled and the files are cached before the first.
SETUP_SAMPLES = 5


def _stpt():
    if not (SRC / "stpt" / "cli.py").is_file():
        sys.exit(f"perfbench: no stpt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stpt.cli
    return stpt.cli


def measure_setup(config: str) -> float:
    """Median set-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(HERE / "probe_setup.py"), str(SRC), config],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def _blas_threads() -> dict[str, int]:
    """Thread count reported by each loaded OpenBLAS library."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    out = {}
    for lib in sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()}):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def stamp() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT)
        git_sha = proc.stdout.strip() if proc.returncode == 0 else None
    except OSError:  # no git on the machine
        git_sha = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "stpt").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
    }


def run_op(main, argv: list[str]) -> tuple[float, int | None, str]:
    """One operation, timed; stdout is captured for the checks."""
    buf = io.StringIO()
    gc.collect()
    code = None
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash of the program is a failed operation
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
    return elapsed, code, buf.getvalue()


def _describe(argv: list[str]) -> str:
    return " ".join(argv[:1] + argv[argv.index("--variant"):] if "--variant" in argv else argv[:1])


def op_seconds(times: dict[int, list[float]], round_len: int) -> float:
    """Mean over the round's operations of each one's median time."""
    return sum(statistics.median(times[k]) for k in range(round_len)) / round_len


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = _stpt()
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        return _run(args, cli, WORKLOADS[args.workload](workdir, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, cli, wl) -> int:
    # argv[2] of every operation is its config file.
    setup_s = None if args.trace else measure_setup(wl.round[0][2])
    info = stamp()
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"stamp": info}, sort_keys=True))

    trace = tracer.Tracer()
    mismatches: set[str] = set()
    times = {False: defaultdict(list), True: defaultdict(list)}
    layer_rounds: list[dict[str, float]] = []
    attempted = failed = 0
    round_seconds: list[float] = []
    min_rounds = max(wl.min_rounds, 2) if args.trace else wl.min_rounds
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(round_seconds) % 2 == 1
        round_start = time.perf_counter()
        layers: dict[str, float] = defaultdict(float)
        for k, argv in enumerate(wl.round):
            attempted += 1
            if traced:
                trace.install()
            try:
                elapsed, code, out = run_op(cli.main, argv)
            finally:
                trace.uninstall()
            spans, model_cfg = trace.take()
            try:
                if code != 0:
                    raise CheckFailed(f"{_describe(argv)}: exit code {code}")
                wl.check(argv, out)
            except CheckFailed as exc:
                failed += 1
                print(f"perfbench: failed operation: {exc}", file=sys.stderr)
                continue
            times[traced][k].append(elapsed)
            if traced:
                per_op = tracer.op_metrics(spans, model_cfg, argv[-1], mismatches.add)
                for key, value in per_op.items():
                    layers[key] += value / len(wl.round)
        if traced:
            layer_rounds.append(layers)
        round_seconds.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if (len(round_seconds) >= min_rounds
                and elapsed + statistics.median(round_seconds) > args.seconds):
            break

    errors = wl.final_check(cli.main)
    for msg in errors:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    for msg in sorted(mismatches):
        print(f"perfbench: {msg}", file=sys.stderr)
    if any(len(times[False][k]) == 0 for k in range(len(wl.round))) or (
            args.trace and any(len(times[True][k]) == 0 for k in range(len(wl.round)))):
        print("perfbench: an operation never succeeded; nothing to report", file=sys.stderr)
        return 1

    op_s = op_seconds(times[False], len(wl.round))
    if args.trace:
        keys = sorted({key for layers in layer_rounds for key in layers})
        median_layers = {key: statistics.median(layers.get(key, 0.0) for layers in layer_rounds)
                         for key in keys}
        median_layers["trace.overhead_s"] = op_seconds(times[True], len(wl.round)) - op_s
        values = tracer.finish(median_layers)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better in tracer.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": op_s, "unit": "s"},
            "items_per_s": {"value": wl.items_per_op / op_s, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    for traced, label in ((False, "untraced"), (True, "traced")):
        for k in sorted(times[traced]):
            print(f"perfbench: {label} seconds of {_describe(wl.round[k])}: "
                  + " ".join(f"{t:.3f}" for t in times[traced][k]), file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
