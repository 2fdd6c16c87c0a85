"""Command-line interface: generation, evaluation, prediction, sweeps.

Output conventions
------------------
Scalar commands (mi, predict, optimize-p) print one JSON object to stdout;
table commands (sweep, reproduce fig2/fig3) write a CSV with the fixed header

    p,n,W,J,prior,family,trials,seed,mi_mean,mi_std,mi_stderr,mi_predicted,relative_gap,log_base

Every command writes its files through one writer, _write_outputs, with a
manifest named after its first output, the suffix replaced (fig3.csv ->
fig3.manifest.json, mls20.txt -> mls20.manifest.json).  It records the
command, all resolved parameters, the master seed, the tool version and a
timestamp, so any run can be reproduced from its manifest.  Floats are
printed with 12 significant digits.  Files are written atomically (tmp +
rename), so failures never leave partial outputs behind; --out must name a
file, and main checks it before any command does work.  The library
returns MI in nats; --log-base bits converts each value as it is printed.
A relative gap has no unit and prints the same in either base.

Exit codes: 0 success, 2 argument error (an InvalidArgumentError, which
includes DegenerateNoiseError, an OSError or a MemoryError), 3 numerical
failure (a NumericalError, which includes FlatnessCheckError).

Each command, down to its reproduce target, predictor, pattern family or
prior, takes only the options it reads: any other is an argument error, one
line like every argument error.  A key=value config file (``--config``)
gives each key that the command line does not give as that flag, so flags
win; a flag under either spelling of W (W_SPELLINGS) overrides both keys.
Options follow reproduce's target and are spelled in full: no prefix
of an option is accepted.  APMI_WORKERS sets the default worker count of
sweep and reproduce fig3.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .asymptotic import BERNOULLI_PREDICTOR, PREDICTORS, optimal_p_iid, optimal_p_onef, predict
from .errors import InvalidArgumentError, NumericalError
from .model import (METRICS, PATTERN_FAMILIES, RHO_MODES, NoiseModel, ScenePrior, db_to_linear,
                    effective_n, to_log_base, write_atomic)

CSV_HEADER = ("p,n,W,J,prior,family,trials,seed,mi_mean,mi_std,mi_stderr,"
              "mi_predicted,relative_gap,log_base")

# Upper bound on the points of a p grid (each runs an ensemble) and of the
# fig2 W grid.
MAX_GRID_POINTS = 10_000

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


####################### formatting / small helpers #######################

def _g12(x) -> str:
    """Render a float with 12 significant digits."""
    return f"{float(x):.12g}"


def _j12(x) -> float:
    """Round a float to 12 significant digits for JSON output."""
    return float(_g12(x))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidArgumentError(message)


def _require_options(args, names, what: str, *offered) -> None:
    """Each named option must be given (W is left to _resolve_w), and no
    other option in the ``offered`` tuples may be: it would not be read."""
    for name in names:
        _require(name == "W" or getattr(args, name) is not None,
                 f"--{name.replace('_', '-')} is required for {what}")
    for flag in sorted({name.replace("_", "-") for name in set().union(*offered) - set(names)}):
        _require(flag not in args.given, f"{what} does not read --{flag}")


def _resolve_workers(args) -> int:
    """--workers if given, else APMI_WORKERS, else 1.  Read only by the
    commands that run ensembles, so a bad APMI_WORKERS breaks no other."""
    if args.workers is not None:
        return args.workers
    raw = os.environ.get("APMI_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidArgumentError(
            f"APMI_WORKERS must be an integer, got {raw!r}") from exc
    _require(value >= 1, f"APMI_WORKERS must be >= 1, got {value}")
    return value


W_SPELLINGS = {"W", "W-db"}  # two spellings of one value, W


def _resolve_w(args, default: float | None = None) -> float:
    """Pick W from --W or --W-db (power dB); they are mutually exclusive."""
    _require(args.W is None or args.W_db is None, "give either --W or --W-db, not both")
    if args.W is None and args.W_db is None:
        _require(default is not None, "one of --W or --W-db is required")
        return default
    return float(args.W) if args.W_db is None else db_to_linear(args.W_db)


def _parse_p_grid(text: str) -> list[float]:
    """Parse 'start:stop:step' or a comma list of at least one p in (0,1)."""
    text = text.strip()
    ranged = ":" in text
    parts = text.split(":") if ranged else [x for x in text.split(",") if x.strip()]
    _require(not ranged or len(parts) == 3,
             f"grid must be start:stop:step or a comma list, got {text!r}")
    try:
        grid = [float(x) for x in parts]
    except ValueError:
        raise InvalidArgumentError(f"grid values must be numbers, got {text!r}") from None
    if ranged:
        start, stop, step = grid
        _require(step > 0, f"grid step must be positive, got {step}")
        span = (stop - start) / step + 1e-9
        _require(math.isfinite(span) and span < MAX_GRID_POINTS,
                 f"grid {text!r} has more than {MAX_GRID_POINTS} points")
        grid = [round(start + k * step, 12) for k in range(math.floor(span) + 1)]
    _require(len(grid) > 0, "empty p grid")
    for p in grid:
        _require(0.0 < p < 1.0, f"grid p values must lie in (0, 1), got {p}")
    return grid


####################### output files #######################

def _write_outputs(files: dict, command: str, parameters: dict,
                   master_seed: int | None = None) -> Path:
    """Write ``files`` ({path: text chunks}) and their manifest in one
    write_atomic call, so all of them or none, and return the manifest's
    path: the first file's path with its suffix replaced by .manifest.json."""
    manifest = {
        "command": command,
        "parameters": parameters,
        "master_seed": master_seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if master_seed is not None:
        from .patterns import SEED_POLICY  # only the seeded sweeps get here
        manifest["seed_policy"] = SEED_POLICY
    path = Path(next(iter(files))).with_suffix(".manifest.json")
    write_atomic({**files, path: [json.dumps(manifest, indent=2, sort_keys=True) + "\n"]})
    return path


def _emit_scalar(payload: dict, args) -> int:
    """Print a scalar JSON record, its floats to 12 significant digits;
    optionally persist it with a manifest first, so a failed write prints
    nothing.  A non-finite float, which JSON cannot hold, is an argument
    error."""
    bad = sorted(k for k, v in payload.items() if isinstance(v, float) and not math.isfinite(v))
    _require(not bad, f"{', '.join(bad)} not finite: the noise power is too small")
    payload = {k: _j12(v) if isinstance(v, float) else v for k, v in payload.items()}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        params = {k: v for k, v in payload.items() if k != "command"}
        _write_outputs({args.out: [text + "\n"]}, payload["command"], params)
    print(text)
    if args.out:
        print(f"wrote {Path(args.out)}", file=sys.stderr)
    return EXIT_OK


def _emit_table(command: str, rows: list[list[str]], params: dict, out: str,
                master_seed: int | None) -> int:
    """Write rows (in CSV_HEADER order) as a CSV with its manifest, and print
    the rows/csv/manifest lines."""
    out = Path(out)
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([CSV_HEADER.split(","), *rows])
    manifest = _write_outputs({out: [text.getvalue()]}, command,
                              {**params, "out": str(out)}, master_seed)
    print(f"rows: {len(rows)}")
    print(f"csv: {out}")
    print(f"manifest: {manifest}")
    return EXIT_OK


####################### config file #######################

def _read_config_pairs(path: str) -> list[tuple[str, str]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from None
    pairs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (t.strip() for t in line.partition("="))
        _require(bool(sep and key and value),
                 f"{path}: expected 'key = value', got {raw.strip()!r}")
        key = key.replace("_", "-")
        _require(key not in ("help", "config"), f"{path}: {key!r} cannot be set in a config file")
        pairs.append((key, value))
    return pairs


def _given(argv: list[str]) -> set[str]:
    """The long options named in argv.  No prefix of an option is accepted
    and no value token starts with '--', so each such token names one."""
    return {tok[2:].partition("=")[0] for tok in argv if tok.startswith("--")}


def _inject_config(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` into option tokens appended to argv, one
    pair for each key that argv does not give, so the explicit flags win; a
    flag under either of W_SPELLINGS gives both."""
    cfg = None
    for i, tok in enumerate(argv):
        if tok == "--config":
            _require(i + 1 < len(argv), "--config needs a file path")
            cfg = argv[i + 1]
            break
        if tok.startswith("--config="):
            cfg = tok.split("=", 1)[1]
            break
    if cfg is None:
        return argv
    given = _given(argv)
    if given & W_SPELLINGS:
        given |= W_SPELLINGS
    return argv + [tok for key, value in _read_config_pairs(cfg) if key not in given
                   for tok in (f"--{key}", value)]


####################### parser #######################

class _Parser(argparse.ArgumentParser):
    """Raises each error for main to print as one line; subparsers inherit it."""

    def error(self, message):
        raise InvalidArgumentError(f"{self.prog}: {message}")


@functools.cache  # built on the first main call, not at import; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="apmi", allow_abbrev=False,
        description=("Mutual information of 1D coded-aperture imaging systems: "
                     "exact spectra, asymptotic predictors, Monte Carlo sweeps."),
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Option groups shared by several subcommands (argparse parent parsers).
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None, metavar="FILE",
                        help="key=value defaults for this command (flags win)")
    scene = argparse.ArgumentParser(add_help=False, parents=[config])
    scene.add_argument("--log-base", dest="log_base", choices=["nats", "bits"],
                       default="nats")
    scene.add_argument("--J", type=float, default=1.0,
                       help="scene net radiated power (default 1)")
    noise = argparse.ArgumentParser(add_help=False, parents=[scene])
    noise.add_argument("--W", type=float, default=None,
                       help="thermal noise power (linear units)")
    noise.add_argument("--W-db", dest="W_db", type=float, default=None,
                       help="thermal noise power in dB (10^(x/10))")
    pattern = argparse.ArgumentParser(add_help=False)
    pattern.add_argument("--n", type=int, default=None)
    pattern.add_argument("--degree", type=int, default=None, help="MLS register size")
    pattern.add_argument("--p", type=float, default=None, help="Bernoulli open fraction")
    pattern.add_argument("--seed", type=int, default=0)
    ensemble = argparse.ArgumentParser(add_help=False)
    ensemble.add_argument("--n", type=int, default=250)
    ensemble.add_argument("--trials", type=int, default=1000)
    ensemble.add_argument("--p-grid", dest="p_grid", default="0.05:0.95:0.05",
                          metavar="START:STOP:STEP|P1,P2,...")
    ensemble.add_argument("--seed", type=int, default=0, help="master seed")
    ensemble.add_argument("--rho-mode", dest="rho_mode", choices=list(RHO_MODES),
                          default="realized")
    ensemble.add_argument("--workers", type=int, default=None)

    def command(name, handler, help_text, *parents, subparsers=sub):
        cmd = subparsers.add_parser(name, help=help_text, parents=parents, allow_abbrev=False)
        cmd.set_defaults(handler=handler)
        return cmd

    gen = command("generate", _cmd_generate, "Generate an aperture pattern file.", config, pattern)
    gen.add_argument("--family", required=True, choices=list(PATTERN_FAMILIES))
    gen.add_argument("--out", default="pattern", metavar="BASE",
                     help="output base path (writes BASE.txt and BASE.json)")

    mi = command("mi", _cmd_mi, "Exact mutual information of one pattern.", noise, pattern)
    mi.add_argument("--pattern-file", dest="pattern_file", default=None,
                    metavar="TXT", help="pattern written by 'generate'")
    mi.add_argument("--family", default=None, choices=list(PATTERN_FAMILIES))
    mi.add_argument("--prior", default="iid", help="iid or 1f")
    mi.add_argument("--out", default=None, metavar="JSON")

    pred = command("predict", _cmd_predict, "Closed-form / asymptotic MI predictors.", noise)
    pred.add_argument("which", choices=list(PREDICTORS))
    pred.add_argument("--n", type=int, default=None)
    pred.add_argument("--p", type=float, default=None)
    pred.add_argument("--rho-j", dest="rho_j", type=float, default=None,
                      help="fixed rho*J product (gaussian-1f)")
    pred.add_argument("--form", choices=["midsum", "closed"], default="midsum",
                      help="flat-1f variant")
    pred.add_argument("--bulk-variance", dest="bulk_variance", type=float,
                      default=1.0 / 24.0, help="uniform-iid bulk variance")
    pred.add_argument("--out", default=None, metavar="JSON")

    opt = command("optimize-p", _cmd_optimize_p, "Optimal Bernoulli open fraction.", noise)
    opt.add_argument("--prior", default="iid", help="iid or 1f")
    opt.add_argument("--n", type=int, default=None, help="system size (1/f only)")
    opt.add_argument("--tol", type=float, default=1e-4,
                     help="search tolerance (1/f only); p_star is the midpoint of the final "
                          "bracket, so only about -log10(tol) of its digits are significant")
    opt.add_argument("--out", default=None, metavar="JSON")

    sweep = command("sweep", _cmd_sweep, "Monte Carlo ensemble sweep over p.", noise, ensemble)
    sweep.add_argument("--prior", default="iid", help="iid or 1f")
    sweep.add_argument("--metric", choices=list(METRICS), default=None,
                       help="iid prior only; the 1/f prior records total MI")
    sweep.add_argument("--out", default="sweep.csv", metavar="CSV")

    rep = sub.add_parser("reproduce", help="Canned runs: fig2, fig3, or the selftest battery.",
                         allow_abbrev=False)
    targets = rep.add_subparsers(dest="target", required=True)
    fig2 = command("fig2", _cmd_fig2, "Predictor curves over W.", scene, subparsers=targets)
    fig2.add_argument("--points", type=int, default=25, help="number of W grid points")
    fig2.add_argument("--out", default="fig2.csv", metavar="CSV")
    fig3 = command("fig3", _cmd_fig3, "The 1/f ensemble sweep.", noise, ensemble,
                   subparsers=targets)
    fig3.add_argument("--out", default="fig3.csv", metavar="CSV")
    command("selftest", _cmd_selftest, "The invariant battery.", subparsers=targets)

    return parser


####################### command handlers #######################

def _build_pattern(args):
    from .patterns import PATTERNS  # the pattern layer (and its arrays) loads here
    names, generate = PATTERNS[args.family]
    _require_options(args, names, args.family, *(o for o, _ in PATTERNS.values()))
    return generate(*(getattr(args, name) for name in names))


def _cmd_generate(args) -> int:
    from .patterns import _pattern_files
    pattern = _build_pattern(args)
    params = {
        "family": pattern.family.value,
        "n": pattern.n,
        "degree": args.degree,
        "p": args.p,
        "seed": pattern.seed,
        "out": args.out,
    }
    # The pattern's generator is seeded with the seed itself, not with a trial seed
    # of SEED_POLICY, so the seed is a parameter and not a master seed.
    files = _pattern_files(pattern, args.out)
    _write_outputs(files, "generate", params)  # all three or none
    for label, path in zip(("pattern", "descriptor"), files):
        print(f"{label}: {path}")
    print(f"family: {pattern.family.value}  n: {pattern.n}  rho: {_g12(pattern.rho)}")
    return EXIT_OK


def _cmd_mi(args) -> int:
    from .patterns import PATTERNS, load_pattern
    from .spectral import mutual_information
    if args.pattern_file:
        _require(args.family is None,
                 "give --pattern-file or --family, not both")
        _require_options(args, (), "--pattern-file", *(o for o, _ in PATTERNS.values()))
        pattern = load_pattern(args.pattern_file)
    else:
        _require(args.family is not None,
                 "give --pattern-file or --family")
        pattern = _build_pattern(args)
    prior = ScenePrior.parse(args.prior)
    noise = NoiseModel(_resolve_w(args), args.J)
    result = mutual_information(pattern, prior, noise)
    payload = {
        "command": "mi",
        "family": pattern.family.value,
        "n": pattern.n,
        "prior": prior.value,
        "W": noise.W,
        "J": noise.J,
        "rho": pattern.rho,
        "total": to_log_base(result.total, args.log_base),
        "per_pixel": to_log_base(result.per_pixel, args.log_base),
        "log_base": args.log_base,
    }
    if prior is ScenePrior.IID:
        payload["per_pixel_excl_dc"] = to_log_base(result.per_pixel_excl_dc, args.log_base)
    return _emit_scalar(payload, args)


def _cmd_predict(args) -> int:
    which = args.which
    names, _ = PREDICTORS[which]
    # --p and --rho-j are reported missing before --n, and all of them
    # before the odd-n reduction can warn
    _require_options(args, sorted(names, key=lambda name: name == "n"), which,
                     *(o for o, _ in PREDICTORS.values()))
    params = {name: getattr(args, name) for name in names}
    params["W"] = _resolve_w(args)
    if which.endswith("-1f"):
        params["n"] = effective_n(ScenePrior.ONE_OVER_F, params["n"])
    result = predict(which, **params)
    return _emit_scalar({
        "command": "predict",
        "predictor": which,
        **params,
        "value": to_log_base(result.value, args.log_base),
        "kind": result.kind,
        "method": result.method,
        "est_abs_error": to_log_base(result.est_abs_error, args.log_base),
        "log_base": args.log_base,
    }, args)


def _cmd_optimize_p(args) -> int:
    prior = ScenePrior.parse(args.prior)
    W = _resolve_w(args)
    read = () if prior is ScenePrior.IID else ("n", "tol")
    _require_options(args, read, f"the {'1/f' if read else 'iid'} prior", ("n", "tol"))
    payload = {
        "command": "optimize-p",
        "prior": prior.value,
        "W": W,
        "J": args.J,
        "log_base": args.log_base,
    }
    if prior is ScenePrior.IID:
        p_star = optimal_p_iid(W, args.J)
    else:
        payload["n"] = effective_n(ScenePrior.ONE_OVER_F, args.n)
        payload["tol"] = args.tol
        p_star = optimal_p_onef(payload["n"], W, args.J, tol=args.tol)
    predicted = predict(BERNOULLI_PREDICTOR[prior], n=payload.get("n"), p=p_star, W=W, J=args.J)
    payload["p_star"] = p_star
    payload["predicted_mi"] = to_log_base(predicted.value, args.log_base)
    return _emit_scalar(payload, args)


def _run_sweep(args, command: str, W: float, prior: ScenePrior, metric: str | None = None) -> int:
    """One seeded Bernoulli ensemble per grid p, from the ensemble options in
    args, paired with its predictor and written as a CSV plus manifest."""
    from .ensemble import EnsembleConfig, sweep_p  # only the ensemble commands load it

    p_grid = _parse_p_grid(args.p_grid)
    workers = _resolve_workers(args)
    config = EnsembleConfig(
        n=args.n, trials=args.trials, family="bernoulli", prior=prior,
        noise=NoiseModel(W, args.J), master_seed=args.seed, p=p_grid[0],
        metric=metric, rho_mode=args.rho_mode, workers=workers)
    sweep_rows = sweep_p(config, p_grid)
    rows = [[
        _g12(row.p), str(row.n), _g12(W), _g12(args.J), prior.value, config.family,
        str(row.stats.trials), str(args.seed),
        *(_g12(to_log_base(x, args.log_base))
          for x in (row.stats.mean, row.stats.std, row.stats.stderr, row.predicted)),
        _g12(row.relative_gap), args.log_base,
    ] for row in sweep_rows]
    params = {
        "n": sweep_rows[0].n,  # after the odd-n reduction
        "n_requested": args.n,
        "trials": args.trials,
        "W": _j12(W),
        "J": _j12(args.J),
        "prior": prior.value,
        "family": config.family,
        "p_grid": [_j12(p) for p in p_grid],
        "metric": config.resolved_metric,
        "rho_mode": args.rho_mode,
        "workers": workers,
        "log_base": args.log_base,
    }
    return _emit_table(command, rows, params, args.out, args.seed)


def _cmd_sweep(args) -> int:
    W, prior = _resolve_w(args), ScenePrior.parse(args.prior)
    if prior is ScenePrior.ONE_OVER_F:  # its one metric is total MI, the default
        _require_options(args, (), "the 1/f prior", ("metric",))
    return _run_sweep(args, "sweep", W, prior, args.metric)


def _cmd_fig3(args) -> int:
    """Analytic-vs-simulated 1/f curve: a sweep at its defaults (n=250 -> 249,
    1000 trials, the 0.05 grid) with W=0.01 unless given."""
    return _run_sweep(args, "reproduce fig3", _resolve_w(args, default=0.01),
                      ScenePrior.ONE_OVER_F)


def _cmd_fig2(args) -> int:
    """Predictor curves (flat, Bernoulli 1/2, Bernoulli p*) over a W sweep."""
    # (family column, predictor, p); p "p*" is optimal_p_iid at each W
    curves = (
        ("flat", "flat-iid", None),
        ("bernoulli-half", "bernoulli-iid", 0.5),
        ("bernoulli-pstar", "bernoulli-iid", "p*"),
    )
    J = args.J
    _require(args.points >= 2, f"--points must be >= 2, got {args.points}")
    _require(args.points <= MAX_GRID_POINTS,
             f"--points must be <= {MAX_GRID_POINTS}, got {args.points}")
    # W = 10**y over y = linspace(-3, 3, points) (k*step - 3, the last one 3),
    # by libm pow, whose bits do not hang on the array library's SIMD dispatch
    step = 6.0 / (args.points - 1)
    w_grid = [math.pow(10.0, y) for y in [k * step - 3.0 for k in range(args.points - 1)] + [3.0]]
    rows = []
    for W in w_grid:
        p_star = optimal_p_iid(W, J)
        for family, which, p in curves:
            p = p_star if p == "p*" else p
            value = predict(which, p=p, W=W, J=J).value
            # simulation-only columns stay empty
            rows.append(["" if p is None else _g12(p), "", _g12(W), _g12(J), "iid", family,
                         "", "", "", "", "", _g12(to_log_base(value, args.log_base)), "",
                         args.log_base])
    params = {
        "J": _j12(J),
        "W_grid": [_j12(w) for w in w_grid],
        "points": args.points,
        "curves": [family for family, _, _ in curves],
        "log_base": args.log_base,
    }
    return _emit_table("reproduce fig2", rows, params, args.out, None)


def _cmd_selftest(args) -> int:
    from .checks import selftest  # only this command loads the battery

    return EXIT_OK if selftest() else EXIT_NUMERICAL


####################### dispatch #######################

def main(argv: list[str] | None = None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv2 = _inject_config(raw_argv)
        parser = _build_parser()
        try:
            args = parser.parse_args(argv2)
        except SystemExit as exc:  # argparse exits 0 for --help/--version
            return exc.code
        args.given = _given(argv2)  # read by _require_options, never recorded
        # Below 2**53 a float holds every integer, and an array of such a size
        # either fits or raises MemoryError.
        for name in ("n", "trials"):
            _require((getattr(args, name, 0) or 0) < 2**53,
                     f"--{name} must be below 2**53 ({2**53})")
        # Every command's --out is checked here, before any work: '', '.', '..'
        # and a path ending in a separator name no file (Path drops that
        # separator, while generate appends its suffixes to the raw text).
        out = getattr(args, "out", None)  # reproduce selftest has no --out
        _require(out is None or os.path.basename(out) not in ("", ".", ".."),
                 f"--out must name a file, got {out!r}")
        with warnings.catch_warnings():
            # each warning (e.g. the odd-n reduction) becomes one stderr line
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            return args.handler(args)
    except (InvalidArgumentError, OSError, MemoryError) as exc:
        # a MemoryError may carry no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
