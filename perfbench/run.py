"""apmi benchmark: four CLI workloads with golden-checked outputs.

Run from the repository root (the package need not be installed; ``src`` is
put on ``sys.path``):

    python3 perfbench/run.py --workload fig3-1f --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --write-golden    # re-record golden.json
    python3 perfbench/selftest.py              # the benchmark's own checks

Each workload is a closed loop with one client: an op is one pass through
the workload's command list, run in process through ``apmi.cli.main(argv)``,
and the next op starts when the previous one has finished.  One untimed
warm-up op comes first.  Every op's outputs (stdout, CSVs, JSON records,
pattern files, manifests without their timestamp) are hashed and checked:
against ``golden.json`` when the outputs do not depend on the seed or the
seed is DEFAULT_SEED, otherwise against the warm-up op of the same run.
An op fails if a command exits nonzero, raises, or its outputs differ.

Timing metrics are reported at a reference host speed.  On a shared VM the
speed of a fixed pure-Python loop swings by 1.5x between states that last
10-20 s, so 20 s medians of raw wall time spread by ~30% from run to run.
A calibration loop therefore runs between every two commands, and each
command's wall time is rescaled by CALIBRATION_REF_S over the mean of the
calibrations on either side of it.  Raw wall times are kept in the record.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` splits the run
into an untraced and a traced half and prints the per-module metrics (see
tracing.py).  The last stdout line is one JSON object; the lines before it
give each metric with its unit and context, and the full record (with the
environment block and, when traced, every span) is written to
``perfbench/out/``.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy import special

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
GOLDEN = Path(__file__).with_name("golden.json")

DEFAULT_SEED = 0
SETUP_STARTS = 5       # cold interpreters per run behind setup_s
IMPORTTIME_STARTS = 3  # cold interpreters per traced run behind *.import_s
# Time of calibration() at the reference host speed: the fast state of the
# 2-vCPU Xeon VM (Python 3.11) the benchmark was tuned on.
CALIBRATION_REF_S = 0.0062
_CALIBRATION_ROW = np.random.default_rng(0).random(2048)
# Documented CSV header of sweep/reproduce output (README).
CSV_HEADER = ("p,n,W,J,prior,family,trials,seed,mi_mean,mi_std,mi_stderr,"
              "mi_predicted,relative_gap,log_base").split(",")
# An ensemble mean this far from its large-n predictor is wrong, not noisy:
# at the committed seed the largest gap is 0.6% (fig3) and 0.03% (IID sweep).
MAX_RELATIVE_GAP = 0.05

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "trials_per_s": "1/s", "peak_rss_mb": "MB"}
IMPORT_MODULES = ("asymptotic", "ensemble", "spectral", "patterns", "model", "cli")
PER_LAYER_UNITS = {
    **{f"{m}.import_s": "s" for m in IMPORT_MODULES},
    "import.scipy_integrate_s": "s", "import.scipy_special_s": "s",
    "ensemble.trial_seed_calls": "count/op", "ensemble.trial_seed_s": "s/op",
    "ensemble.rng_constructions": "count/op", "ensemble.fft_calls": "count/op",
    "ensemble.fft_points": "count/op", "ensemble.run_ensemble_s": "s/op",
    "ensemble.trials": "count/op", "ensemble.pools_created": "count/op",
    "ensemble.pool_s": "s/op", "ensemble.pool_speedup": "ratio",
    "ensemble.pool_child_rss_mb": "MB",
    "asymptotic.explog_calls": "count/op", "asymptotic.explog_s": "s/op",
    "asymptotic.dc_quad_calls": "count/op", "asymptotic.dc_quad_s": "s/op",
    "asymptotic.predict_calls": "count/op", "asymptotic.predict_s": "s/op",
    "asymptotic.golden_evals": "count/op",
    "patterns.gen_mls_s": "s/op", "patterns.gen_mura_s": "s/op",
    "patterns.generated_points": "count/op", "patterns.fft_calls": "count/op",
    "patterns.fft_points": "count/op", "patterns.save_s": "s/op",
    "patterns.load_s": "s/op", "patterns.bytes_saved": "B/op",
    "patterns.bytes_loaded": "B/op",
    "model.spectral_weights_calls": "count/op",
    "model.spectral_weights_points": "count/op", "model.spectral_weights_s": "s/op",
    "spectral.mutual_information_s": "s/op", "spectral.mi_excluding_dc_s": "s/op",
    "spectral.jensen_bound_s": "s/op", "spectral.fft_calls": "count/op",
    "spectral.fft_points": "count/op", "spectral.fft_bytes_computed": "B/op",
    "cli.calls": "count/op", "cli.self_s": "s/op", "cli.files_written": "count/op",
    "cli.bytes_written": "B/op",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Sweep:
    """What a correct sweep CSV of a workload holds at any seed."""
    csv: str
    n: int
    trials: int
    grid: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple          # argv templates; {out} = op dir, {seed} = seed
    seeded: bool             # do the outputs depend on the seed?
    sweep: Sweep | None = None
    workers: int = 1         # fills {workers}

    def argv(self, out, seed, workers=None):
        fields = {"out": out, "seed": seed, "workers": workers or self.workers}
        return [[tok.format(**fields) for tok in cmd] for cmd in self.commands]

    @property
    def trials_per_op(self):
        """Ensemble trials per op; commands per op where there is no ensemble."""
        if self.sweep is None:
            return len(self.commands)
        return self.sweep.trials * len(self.sweep.grid)


def _grid(start, stop, step):
    return tuple(round(start + k * step, 12)
                 for k in range(int(math.floor((stop - start) / step + 1e-9)) + 1))


WORKLOADS = {w.name: w for w in (
    # The paper's headline ensemble-vs-predictor curve; the per-trial loop
    # (seed, generator, FFT) is nearly all of it, the 19 predictions <1%.
    Workload("fig3-1f", (
        ("reproduce", "fig3", "--workers", "1", "--seed", "{seed}",
         "--out", "{out}/fig3.csv"),
    ), seeded=True, sweep=Sweep("fig3.csv", 249, 1000, _grid(0.05, 0.95, 0.05))),
    # The only workload where the process pool carries the cost (one pool
    # per p today), plus mask draws and FFTs at an MLS-sized n.
    Workload("sweep-iid-pool", (
        ("sweep", "--prior", "iid", "--n", "4095", "--trials", "1000",
         "--p-grid", "0.1:0.9:0.2", "--W", "0.01", "--workers", "{workers}",
         "--seed", "{seed}", "--out", "{out}/sweep.csv"),
    ), seeded=True, sweep=Sweep("sweep.csv", 4095, 1000, _grid(0.1, 0.9, 0.2)),
        workers=2),
    # Only the asymptotic layer: 1,700,025 scalar explog_exp1 calls, 25 DC
    # quadratures, 22 golden-section evaluations; no ensemble, no FFT.
    Workload("predict-1f", (
        ("optimize-p", "--prior", "1f", "--n", "100001", "--W", "0.01"),
        ("predict", "bernoulli-1f", "--n", "1000001", "--p", "0.3", "--W", "0.01"),
        ("predict", "gaussian-1f", "--n", "100001", "--rho-j", "1", "--W", "0.01"),
        ("predict", "flat-1f", "--n", "1000001", "--W", "0.01"),
        ("reproduce", "fig2", "--points", "25", "--out", "{out}/fig2.csv"),
    ), seeded=False),
    # Pattern generators, spectral weights at n~1e6, 8 FFTs over 3,080,190
    # points, and pattern-file writes beside reads; no ensemble, no predictor.
    Workload("exact-mask", (
        ("generate", "--family", "mls", "--degree", "20", "--out", "{out}/mls20"),
        ("mi", "--pattern-file", "{out}/mls20.txt", "--prior", "1f", "--W", "0.01"),
        ("mi", "--family", "mls", "--degree", "18", "--W", "0.01"),
        ("generate", "--family", "mura", "--n", "65537", "--out", "{out}/mura"),
        ("mi", "--pattern-file", "{out}/mura.txt", "--W", "0.01"),
    ), seeded=False),
)}


####################### one op #######################

@dataclass
class Op:
    seconds: float      # wall time of the op's commands
    scaled: float       # the same at the reference host speed
    digests: dict       # output item -> sha256 of its normalised bytes
    files: int
    bytes: int
    error: str | None   # why the op failed, None if it ran cleanly


def _normalise(path, data, out):
    """Drop manifest timestamps and make op-dir paths relative."""
    if path.name.endswith(".manifest.json"):
        record = json.loads(data)
        record.pop("timestamp", None)
        data = json.dumps(record, sort_keys=True).encode()
    return data.replace(str(out).encode(), b"{out}")


def _check_sweep(sweep, seed, text):
    rows = list(csv.DictReader(io.StringIO(text)))
    header = text.split("\n", 1)[0].split(",")
    if header != CSV_HEADER:
        return f"{sweep.csv}: header {header}"
    if [float(r["p"]) for r in rows] != list(sweep.grid):
        return f"{sweep.csv}: p column {[r['p'] for r in rows]}"
    for r in rows:
        if (int(r["n"]), int(r["trials"]), int(r["seed"])) != (sweep.n, sweep.trials, seed):
            return f"{sweep.csv}: row {r}"
        gap = float(r["relative_gap"])
        if not (float(r["mi_mean"]) > 0 and gap <= MAX_RELATIVE_GAP):
            return f"{sweep.csv}: ensemble mean off its predictor at p={r['p']} (gap {gap})"
    return None


def run_op(cli, workload, seed, out, scale, tracer=None, workers=None):
    """Run one op in a fresh directory ``out``; hash and check its outputs.
    ``scale`` rescales each command's wall time to reference host speed."""
    out.mkdir(parents=True)
    digests, error = {}, None
    elapsed = scaled = 0.0
    try:
        for i, argv in enumerate(workload.argv(out, seed, workers)):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("always")  # same work on every op
                t0 = time.perf_counter()
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer.span("cli.main", "cli.main"):
                        code = cli.main(argv)
                seconds = time.perf_counter() - t0
            elapsed += seconds
            scaled += scale(seconds)
            digests[f"cmd{i}.stdout"] = hashlib.sha256(
                stdout.getvalue().replace(str(out), "{out}").encode()).hexdigest()
            if code != 0:
                error = f"exit {code}: {' '.join(argv)}"
                break
    except Exception:  # an op that raises is a failed op; keep the loop going
        error = traceback.format_exc(limit=-3)
    files = sorted(p for p in out.rglob("*") if p.is_file())
    size = 0
    for path in files:
        data = path.read_bytes()
        size += len(data)
        digests[path.name] = hashlib.sha256(_normalise(path, data, out)).hexdigest()
        if error is None and workload.sweep and path.name == workload.sweep.csv:
            error = _check_sweep(workload.sweep, seed, data.decode())
    shutil.rmtree(out)
    return Op(elapsed, scaled, digests, len(files), size, error)


def _mismatch(op, reference):
    if op.error is not None:
        return op.error
    if reference is not None and op.digests != reference:
        bad = sorted(k for k in set(op.digests) | set(reference)
                     if op.digests.get(k) != reference.get(k))
        return f"outputs differ from the reference: {bad}"
    return None


####################### measurements #######################

def _cold(args):
    """Run a fresh interpreter that imports apmi.cli; return (seconds, stderr)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args, "-c", "import apmi.cli"],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold import failed: {proc.stderr.strip()}")
    return elapsed, proc.stderr


def setup_seconds(run):
    return statistics.median(run.scale(_cold([])[0]) for _ in range(SETUP_STARTS))


def _cumulative(entries, module):
    """Cumulative seconds of ``module``'s first import.  A package that scipy
    loads lazily gets no line of its own; then its outermost submodule lines
    are summed."""
    for _, seconds, name in entries:
        if name == module:
            return seconds
    inner = [(depth, seconds) for depth, seconds, name in entries
             if name.startswith(module + ".")]
    top = min((depth for depth, _ in inner), default=None)
    return sum(seconds for depth, seconds in inner if depth == top)


def import_breakdown():
    """Median cumulative import time per module, from ``-X importtime``."""
    wanted = {f"apmi.{m}": f"{m}.import_s" for m in IMPORT_MODULES}
    wanted |= {"scipy.integrate": "import.scipy_integrate_s",
               "scipy.special": "import.scipy_special_s"}
    samples = {metric: [] for metric in wanted.values()}
    for _ in range(IMPORTTIME_STARTS):
        entries = []  # (depth, cumulative seconds, module)
        for line in _cold(["-X", "importtime"])[1].splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, cumulative, module = line.split("|")
                if cumulative.strip().isdigit():
                    depth = len(module) - len(module.lstrip())
                    entries.append((depth, int(cumulative) / 1e6, module.strip()))
        for module, metric in wanted.items():
            samples[metric].append(_cumulative(entries, module))
    return {metric: statistics.median(v) for metric, v in samples.items()}


def tail(samples):
    """(value, percentile, samples beyond it) for the highest percentile with
    at least ten samples beyond it, floored at the (upper) median: below
    twenty-one samples that percentile would not be a tail."""
    ordered = sorted(samples)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def calibration():
    """Median time of three runs of a fixed kernel: the host's current speed,
    measured between commands.  The kernel does the kinds of work apmi's hot
    paths do (scalar scipy.special calls, generator construction and small
    FFTs, float text round-trips) without calling apmi, so a change to apmi
    cannot move it."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0.0
        for k in range(1, 1500):
            x = 0.001 * k
            if np.isfinite(x):
                total += math.exp(x) * float(special.exp1(x))
        for k in range(50):
            seed = np.random.SeedSequence((7, k)).generate_state(1, np.uint64)[0]
            row = np.random.default_rng(seed).random(256)
            total += float(np.abs(np.fft.fft(row)).sum())
        text = "\n".join(repr(float(x)) for x in _CALIBRATION_ROW)
        total += sum(float(t) for t in text.split())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(load_start):
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "sched_affinity": affinity, "loadavg_start": load_start,
            "loadavg_end": _loadavg()}


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


####################### a run #######################

class Run:
    """One benchmark run of one workload: ops, checks and metrics."""

    def __init__(self, workload, seed, golden):
        import apmi.cli
        self.cli = apmi.cli
        self.workload = workload
        self.seed = seed
        self.reference = golden if (seed == DEFAULT_SEED or not workload.seeded) else None
        OUT.mkdir(parents=True, exist_ok=True)
        # fixed-length op paths, so the bytes the CLI writes repeat exactly
        self.scratch = Path(tempfile.mkdtemp(prefix="ops-", dir=OUT))
        self.attempted = 0
        self.failures = []
        self.ops = 0
        self._calibration = calibration()

    def scale(self, seconds):
        """Rescale a wall time measured since the last calibration to the
        reference host speed, by the mean of the calibrations around it."""
        before = self._calibration
        self._calibration = calibration()
        return seconds * CALIBRATION_REF_S / ((before + self._calibration) / 2)

    def op(self, tracer=None):
        op = self._run(tracer)
        problem = _mismatch(op, self.reference)
        if problem is not None:
            self.failures.append(problem)
        elif self.reference is None:
            self.reference = op.digests  # later ops must repeat it exactly
        return op

    def _run(self, tracer=None, workers=None):
        self.ops += 1
        self.attempted += 1
        return run_op(self.cli, self.workload, self.seed,
                      self.scratch / f"op{self.ops:06d}", self.scale, tracer, workers)

    def loop(self, seconds, tracer=None):
        """Closed loop for ``seconds``; at least one op."""
        ops = []
        deadline = time.perf_counter() + seconds
        while not ops or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.op = self.ops + 1
            ops.append(self.op(tracer))
        return ops

    def worker_invariance(self):
        """Untimed workers=1 pass of the pool workload; its CSV must equal
        the workers=2 one.  Returns its op time."""
        op = self._run(workers=1)
        key = self.workload.sweep.csv
        if op.error is not None:
            self.failures.append(op.error)
        elif self.reference is None or op.digests[key] != self.reference[key]:
            self.failures.append("workers=1 CSV differs from workers=2")
        return op.scaled


def end_to_end(run, seconds, lines):
    run.op()  # warm-up: lazy set-up, caches, and the reference digests
    ops = run.loop(seconds)
    times = [op.scaled for op in ops]
    value, pct, beyond = tail(times)
    metrics = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "trials_per_s": run.workload.trials_per_op * len(ops) / sum(times),
        "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
    }
    child_rss = _rss_mb(resource.RUSAGE_CHILDREN)
    if run.workload.workers > 1:
        run.worker_invariance()
    metrics["setup_s"] = setup_seconds(run)
    unit = "ensemble trial" if run.workload.sweep else "CLI command"
    lines += [
        f"op_p50_s {metrics['op_p50_s']:.6f} s (n={len(times)} timed ops; "
        f"unscaled wall p50 {statistics.median(op.seconds for op in ops):.6f} s)",
        f"op_tail_s {value:.6f} s (p{pct:.1f}, {beyond} samples beyond, n={len(times)})",
        f"trials_per_s {metrics['trials_per_s']:.3f} 1/s "
        f"(trial = one {unit}; {run.workload.trials_per_op} per op)",
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (benchmark process); "
        f"{child_rss:.1f} MB its largest child (pool workers; else the launcher's)",
        f"setup_s {metrics['setup_s']:.6f} s (median of {SETUP_STARTS} cold "
        "'import apmi.cli' interpreters)",
    ]
    return metrics, {"op_seconds": [op.seconds for op in ops], "op_scaled_seconds": times,
                     "tail_percentile": pct,
                     "tail_beyond": beyond, "pool_child_rss_mb": child_rss}


def per_layer(run, seconds, lines):
    from tracing import Tracer

    run.op()  # warm-up
    untraced = statistics.median(op.scaled for op in run.loop(seconds / 2))
    tracer = Tracer()
    with tracer.installed():
        ops = run.loop(seconds / 2, tracer)
    traced = statistics.median(op.scaled for op in ops)
    child_rss = _rss_mb(resource.RUSAGE_CHILDREN)
    speedup = 0.0
    if run.workload.workers > 1:
        speedup = run.worker_invariance() / untraced
    k = len(ops)
    metrics = {
        **import_breakdown(),
        "ensemble.pool_speedup": speedup,
        "ensemble.pool_child_rss_mb": child_rss,
        "cli.calls": tracer.count["cli.main_calls"] / k,
        "cli.self_s": tracer.self_time("cli.main") / k,
        "cli.files_written": sum(op.files for op in ops) / k,
        "cli.bytes_written": sum(op.bytes for op in ops) / k,
        "trace.overhead_s": traced - untraced,
    }
    for name, unit in PER_LAYER_UNITS.items():  # the rest are tracer totals per op
        if name not in metrics:
            total = tracer.time[name[:-2]] if unit == "s/op" else tracer.count[name]
            metrics[name] = total / k
    metrics = {name: metrics[name] for name in PER_LAYER_UNITS}
    lines += [f"{name} {value!r} {PER_LAYER_UNITS[name]}" for name, value in metrics.items()]
    lines += [
        f"per-op layer metrics are averages over {k} traced ops; untraced op_p50 "
        f"{untraced:.6f} s, traced {traced:.6f} s",
        f"*.import_s are cumulative medians of {IMPORTTIME_STARTS} cold interpreters: "
        "cli.import_s includes the whole apmi package, and scipy.integrate "
        "includes the scipy.special it loads first",
        "spectral.fft_bytes_computed is computed from array sizes "
        "(input + output nbytes), not measured memory traffic",
        "work inside process-pool children is not traced: the parent sees it "
        "only as ensemble.pool_s",
    ]
    if run.workload.workers == 1:
        lines.append("ensemble.pool_speedup is 0: this workload builds no pool")
    return metrics, {"spans": tracer.dump(), "traced_ops": k,
                     "untraced_op_p50_s": untraced, "traced_op_p50_s": traced}


def run_workload(name, seed, seconds, trace, golden=None):
    """Run one workload; return (result JSON object, info lines, detail record)."""
    workload = WORKLOADS[name]
    if golden is None:
        golden = json.loads(GOLDEN.read_text())
    load_start = _loadavg()
    run = Run(workload, seed, golden.get(name))
    lines = []
    try:
        metrics, detail = (per_layer if trace else end_to_end)(run, seconds, lines)
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    failed = len(run.failures)
    lines.append(f"fail_ratio {failed / run.attempted!r} ratio "
                 f"({failed} failed of {run.attempted} attempted ops)")
    lines += [f"failure: {f}" for f in run.failures[:5]]
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(load_start), "result": result,
              "failures": run.failures, **detail}
    return result, lines, record


def write_golden():
    """Record the digests of one op per workload at DEFAULT_SEED."""
    import apmi.cli
    golden = {}
    for name, workload in WORKLOADS.items():
        op = run_op(apmi.cli, workload, DEFAULT_SEED, OUT / f"golden-{os.getpid()}",
                    scale=lambda seconds: seconds)
        if op.error is not None:
            sys.exit(f"{name}: {op.error}")
        golden[name] = op.digests
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "apmi" / "cli.py").is_file():
        print(f"error: no apmi source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result, lines, record = run_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(record["environment"]))
    print("\n".join(lines))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
