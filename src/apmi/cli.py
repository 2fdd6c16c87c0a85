"""Command-line interface: generation, evaluation, prediction, sweeps.

Output conventions
------------------
Scalar commands (mi, predict, optimize-p) print one JSON object to stdout;
table commands (sweep, reproduce fig2/fig3) write a CSV with the fixed header

    p,n,W,J,prior,family,trials,seed,mi_mean,mi_std,mi_stderr,mi_predicted,relative_gap,log_base

Every output file gets a sibling ``<name>.manifest.json`` recording the
command, all resolved parameters, the master seed, the tool version and a
timestamp, so any run can be reproduced from its manifest.  Floats are
printed with 12 significant digits.  Files are written atomically (tmp +
rename), so failures never leave partial outputs behind.

Exit codes: 0 success, 2 argument error, 3 numerical failure.

A key=value config file (``--config``) supplies defaults for any long
option of the invoked command; explicit command-line flags win.  The
APMI_WORKERS environment variable sets the default worker count for
ensemble commands.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotic import (
    explog_exp1,
    optimal_p_iid,
    optimal_p_onef,
    predict_bernoulli_iid,
    predict_bernoulli_onef,
    predict_flat_iid,
    predict_flat_onef,
    predict_gaussian_onef,
    predict_pinhole,
    predict_uniform_iid,
)
from .ensemble import (
    METRICS,
    RHO_MODES,
    SEED_POLICY,
    EnsembleConfig,
    run_ensemble,
    sweep_p,
)
from .errors import (
    DegenerateNoiseError,
    FlatnessCheckError,
    InvalidArgumentError,
    NumericalError,
)
from .model import (NoiseModel, ScenePrior, db_to_linear, effective_n, gamma,
                    spectral_weights, to_log_base)
from .patterns import (
    gen_bernoulli,
    gen_mls,
    gen_mura,
    gen_pinhole,
    gen_uniform,
    load_pattern,
    save_pattern,
)
from .spectral import circulant_spectrum, jensen_bound, mi_excluding_dc, mutual_information

CSV_HEADER = ("p,n,W,J,prior,family,trials,seed,mi_mean,mi_std,mi_stderr,"
              "mi_predicted,relative_gap,log_base")

# Upper bound on the points of a start:stop:step grid; each point runs an ensemble.
MAX_GRID_POINTS = 10_000

PREDICTORS = ("pinhole", "flat-iid", "bernoulli-iid", "uniform-iid",
              "flat-1f", "gaussian-1f", "bernoulli-1f")

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


def _resolve_w(args, default: float | None = None) -> float:
    """Pick W from --W or --W-db (power dB); they are mutually exclusive."""
    if args.W is not None and args.W_db is not None:
        raise InvalidArgumentError("give either --W or --W-db, not both")
    if args.W_db is not None:
        return db_to_linear(args.W_db)
    if args.W is not None:
        return float(args.W)
    if default is not None:
        return default
    raise InvalidArgumentError("one of --W or --W-db is required")


def _grid_floats(parts: list[str], text: str) -> list[float]:
    try:
        return [float(x) for x in parts]
    except ValueError:
        raise InvalidArgumentError(f"grid values must be numbers, got {text!r}") from None


def _parse_p_grid(text: str) -> list[float]:
    """Parse 'start:stop:step' or a comma list; every p must lie in (0,1)."""
    text = text.strip()
    if not text:
        raise InvalidArgumentError("empty p grid")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidArgumentError(
                f"grid must be start:stop:step or a comma list, got {text!r}")
        start, stop, step = _grid_floats(parts, text)
        _require(step > 0, f"grid step must be positive, got {step}")
        span = (stop - start) / step + 1e-9
        _require(math.isfinite(span) and span < MAX_GRID_POINTS,
                 f"grid {text!r} has more than {MAX_GRID_POINTS} points")
        count = int(math.floor(span)) + 1
        grid = [round(start + k * step, 12) for k in range(max(count, 0))]
    else:
        grid = _grid_floats([x for x in text.split(",") if x.strip()], text)
    for p in grid:
        _require(0.0 < p < 1.0, f"grid p values must lie in (0, 1), got {p}")
    return grid


####################### output files #######################

def _manifest_path(out: Path) -> Path:
    return out.with_suffix(".manifest.json")


def _manifest(command: str, parameters: dict, master_seed: int | None) -> dict:
    payload = {
        "command": command,
        "parameters": parameters,
        "master_seed": master_seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if master_seed is not None:
        payload["seed_policy"] = SEED_POLICY
    return payload


def _write_json_atomic(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv_atomic(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_HEADER.split(","),
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _emit_scalar(payload: dict, args) -> int:
    """Print a scalar JSON record; optionally persist it with a manifest."""
    print(json.dumps(payload, indent=2, sort_keys=True))
    out = getattr(args, "out", None)
    if out:
        out = Path(out)
        _write_json_atomic(out, payload)
        params = {k: v for k, v in payload.items() if k != "command"}
        _write_json_atomic(_manifest_path(out),
                           _manifest(payload["command"], params, None))
        print(f"wrote {out}", file=sys.stderr)
    return EXIT_OK


####################### config file #######################

def _read_config_pairs(path: str) -> list[tuple[str, str]]:
    pairs = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgumentError(
                f"{path}: expected 'key = value', got {raw.strip()!r}")
        key, value = (t.strip() for t in line.split("=", 1))
        if not key or not value:
            raise InvalidArgumentError(
                f"{path}: expected 'key = value', got {raw.strip()!r}")
        pairs.append((key.replace("_", "-"), value))
    return pairs


def _inject_config(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` into option tokens placed right after the
    subcommand, before any explicit flags, so the explicit flags win
    (argparse keeps the last occurrence of an option)."""
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
    subcommand_index = None
    for i, tok in enumerate(argv):
        if not tok.startswith("-"):
            subcommand_index = i
            break
    if subcommand_index is None:
        return argv
    injected: list[str] = []
    for key, value in _read_config_pairs(cfg):
        injected.extend((f"--{key}", value))
    head = argv[:subcommand_index + 1]
    return head + injected + argv[subcommand_index + 1:]


####################### parser #######################

def _add_common(p: argparse.ArgumentParser, *, noise: bool = True) -> None:
    p.add_argument("--config", default=None, metavar="FILE",
                   help="key=value defaults for this command (flags win)")
    p.add_argument("--log-base", dest="log_base", choices=["nats", "bits"],
                   default="nats")
    if noise:
        p.add_argument("--W", type=float, default=None,
                       help="thermal noise power (linear units)")
        p.add_argument("--W-db", dest="W_db", type=float, default=None,
                       help="thermal noise power in dB (10^(x/10))")
        p.add_argument("--J", type=float, default=1.0,
                       help="scene net radiated power (default 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apmi",
        description=("Mutual information of 1D coded-aperture imaging systems: "
                     "exact spectra, asymptotic predictors, Monte Carlo sweeps."),
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="Generate an aperture pattern file.")
    gen.add_argument("--family", required=True,
                     choices=["pinhole", "mls", "mura", "bernoulli", "uniform"])
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--degree", type=int, default=None, help="MLS register size")
    gen.add_argument("--p", type=float, default=None, help="Bernoulli open fraction")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="pattern", metavar="BASE",
                     help="output base path (writes BASE.txt and BASE.json)")
    gen.add_argument("--config", default=None, metavar="FILE")

    mi = sub.add_parser("mi", help="Exact mutual information of one pattern.")
    mi.add_argument("--pattern-file", dest="pattern_file", default=None,
                    metavar="TXT", help="pattern written by 'generate'")
    mi.add_argument("--family", default=None,
                    choices=["pinhole", "mls", "mura", "bernoulli", "uniform"])
    mi.add_argument("--n", type=int, default=None)
    mi.add_argument("--degree", type=int, default=None)
    mi.add_argument("--p", type=float, default=None)
    mi.add_argument("--seed", type=int, default=0)
    mi.add_argument("--prior", default="iid", help="iid or 1f")
    mi.add_argument("--out", default=None, metavar="JSON")
    _add_common(mi)

    pred = sub.add_parser("predict", help="Closed-form / asymptotic MI predictors.")
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
    _add_common(pred)

    opt = sub.add_parser("optimize-p", help="Optimal Bernoulli open fraction.")
    opt.add_argument("--prior", default="iid", help="iid or 1f")
    opt.add_argument("--n", type=int, default=None, help="system size (1/f only)")
    opt.add_argument("--tol", type=float, default=1e-4,
                     help="search tolerance (1/f only)")
    opt.add_argument("--out", default=None, metavar="JSON")
    _add_common(opt)

    sweep = sub.add_parser("sweep", help="Monte Carlo ensemble sweep over p.")
    sweep.add_argument("--prior", default="iid", help="iid or 1f")
    sweep.add_argument("--n", type=int, default=250)
    sweep.add_argument("--trials", type=int, default=1000)
    sweep.add_argument("--p-grid", dest="p_grid", default="0.05:0.95:0.05",
                       metavar="START:STOP:STEP|P1,P2,...")
    sweep.add_argument("--seed", type=int, default=0, help="master seed")
    sweep.add_argument("--metric", choices=list(METRICS), default=None)
    sweep.add_argument("--rho-mode", dest="rho_mode", choices=list(RHO_MODES),
                       default="realized")
    sweep.add_argument("--workers", type=int, default=None)
    sweep.add_argument("--out", default="sweep.csv", metavar="CSV")
    _add_common(sweep)

    rep = sub.add_parser("reproduce",
                         help="Canned runs: fig2, fig3, or the selftest battery.")
    rep.add_argument("target", choices=["fig2", "fig3", "selftest"])
    rep.add_argument("--points", type=int, default=25,
                     help="fig2: number of W grid points")
    rep.add_argument("--n", type=int, default=None)
    rep.add_argument("--trials", type=int, default=None)
    rep.add_argument("--p-grid", dest="p_grid", default=None)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--metric", choices=list(METRICS), default=None)
    rep.add_argument("--rho-mode", dest="rho_mode", choices=list(RHO_MODES),
                     default="realized")
    rep.add_argument("--workers", type=int, default=None)
    rep.add_argument("--out", default=None, metavar="CSV")
    _add_common(rep)

    return parser


####################### pattern construction #######################

def _build_pattern(args):
    family = args.family
    if family == "pinhole":
        _require(args.n is not None, "--n is required for pinhole")
        return gen_pinhole(args.n)
    if family == "mls":
        _require(args.degree is not None, "--degree is required for mls")
        return gen_mls(args.degree)
    if family == "mura":
        _require(args.n is not None, "--n is required for mura")
        return gen_mura(args.n)
    if family == "bernoulli":
        _require(args.n is not None, "--n is required for bernoulli")
        _require(args.p is not None, "--p is required for bernoulli")
        return gen_bernoulli(args.n, args.p, args.seed)
    if family == "uniform":
        _require(args.n is not None, "--n is required for uniform")
        return gen_uniform(args.n, args.seed)
    raise InvalidArgumentError(f"unknown family {family!r}")


####################### command handlers #######################

def _cmd_generate(args) -> int:
    pattern = _build_pattern(args)
    txt_path, json_path = save_pattern(pattern, args.out)
    params = {
        "family": pattern.family.value,
        "n": pattern.n,
        "degree": args.degree,
        "p": args.p,
        "seed": pattern.seed,
        "out": args.out,
    }
    _write_json_atomic(Path(args.out + ".manifest.json"),
                       _manifest("generate", params, pattern.seed))
    print(f"pattern: {txt_path}")
    print(f"descriptor: {json_path}")
    print(f"family: {pattern.family.value}  n: {pattern.n}  rho: {_g12(pattern.rho)}")
    return EXIT_OK


def _cmd_mi(args) -> int:
    if args.pattern_file:
        _require(args.family is None,
                 "give --pattern-file or --family, not both")
        pattern = load_pattern(args.pattern_file)
    else:
        _require(args.family is not None,
                 "give --pattern-file or --family")
        pattern = _build_pattern(args)
    prior = ScenePrior.parse(args.prior)
    noise = NoiseModel(_resolve_w(args), args.J)
    result = mutual_information(pattern, prior, noise, log_base=args.log_base)
    payload = {
        "command": "mi",
        "family": pattern.family.value,
        "n": pattern.n,
        "prior": prior.value,
        "W": _j12(noise.W),
        "J": _j12(noise.J),
        "rho": _j12(pattern.rho),
        "total": _j12(result.total),
        "per_pixel": _j12(result.per_pixel),
        "log_base": result.log_base,
    }
    if prior is ScenePrior.IID:
        payload["per_pixel_excl_dc"] = _j12(result.per_pixel_excl_dc)
    return _emit_scalar(payload, args)


def _cmd_predict(args) -> int:
    which = args.which
    J = args.J

    def need_n() -> int:
        _require(args.n is not None, f"--n is required for {which}")
        return args.n

    if which == "pinhole":
        result = predict_pinhole(need_n(), _resolve_w(args), J)
        params = {"n": args.n, "W": _resolve_w(args), "J": J}
    elif which == "flat-iid":
        result = predict_flat_iid(_resolve_w(args), J)
        params = {"W": _resolve_w(args), "J": J}
    elif which == "bernoulli-iid":
        _require(args.p is not None, "--p is required for bernoulli-iid")
        result = predict_bernoulli_iid(args.p, _resolve_w(args), J)
        params = {"p": args.p, "W": _resolve_w(args), "J": J}
    elif which == "uniform-iid":
        result = predict_uniform_iid(_resolve_w(args), J,
                                     bulk_variance=args.bulk_variance)
        params = {"W": _resolve_w(args), "J": J,
                  "bulk_variance": args.bulk_variance}
    elif which == "flat-1f":
        n = effective_n(ScenePrior.ONE_OVER_F, need_n())
        result = predict_flat_onef(n, _resolve_w(args), J, form=args.form)
        params = {"n": n, "W": _resolve_w(args), "J": J, "form": args.form}
    elif which == "gaussian-1f":
        _require(args.rho_j is not None, "--rho-j is required for gaussian-1f")
        n = effective_n(ScenePrior.ONE_OVER_F, need_n())
        result = predict_gaussian_onef(n, _resolve_w(args), args.rho_j)
        params = {"n": n, "W": _resolve_w(args), "rho_j": args.rho_j}
    else:  # bernoulli-1f
        _require(args.p is not None, "--p is required for bernoulli-1f")
        n = effective_n(ScenePrior.ONE_OVER_F, need_n())
        result = predict_bernoulli_onef(n, args.p, _resolve_w(args), J)
        params = {"n": n, "p": args.p, "W": _resolve_w(args), "J": J}

    payload = {"command": "predict", "predictor": which}
    for key, value in params.items():
        payload[key] = _j12(value) if isinstance(value, float) else value
    payload.update({
        "value": _j12(to_log_base(result.value, args.log_base)),
        "kind": result.kind,
        "method": result.method,
        "est_abs_error": _j12(to_log_base(result.est_abs_error, args.log_base)),
        "log_base": args.log_base,
    })
    return _emit_scalar(payload, args)


def _cmd_optimize_p(args) -> int:
    prior = ScenePrior.parse(args.prior)
    W = _resolve_w(args)
    J = args.J
    payload = {
        "command": "optimize-p",
        "prior": prior.value,
        "W": _j12(W),
        "J": _j12(J),
        "log_base": args.log_base,
    }
    if prior is ScenePrior.IID:
        p_star = optimal_p_iid(W, J)
        predicted = predict_bernoulli_iid(p_star, W, J).value
    else:
        _require(args.n is not None, "--n is required for the 1/f prior")
        n = effective_n(ScenePrior.ONE_OVER_F, args.n)
        p_star = optimal_p_onef(n, W, J, tol=args.tol)
        predicted = predict_bernoulli_onef(n, p_star, W, J).value
        payload["n"] = n
        payload["tol"] = _j12(args.tol)
    payload["p_star"] = _j12(p_star)
    payload["predicted_mi"] = _j12(to_log_base(predicted, args.log_base))
    return _emit_scalar(payload, args)


def _sweep_csv_row(row, config: EnsembleConfig, W: float, J: float) -> dict:
    stats = row.stats
    return {
        "p": _g12(row.p),
        "n": str(row.n),
        "W": _g12(W),
        "J": _g12(J),
        "prior": config.prior.value,
        "family": config.family,
        "trials": str(stats.trials),
        "seed": str(config.master_seed),
        "mi_mean": _g12(stats.mean),
        "mi_std": _g12(stats.std),
        "mi_stderr": _g12(stats.stderr),
        "mi_predicted": _g12(row.predicted),
        "relative_gap": _g12(row.relative_gap),
        "log_base": stats.log_base,
    }


def _run_sweep_to_csv(*, command: str, n: int, trials: int, W: float, J: float,
                      prior: ScenePrior, p_grid: list[float], master_seed: int,
                      metric: str | None, rho_mode: str, workers: int,
                      log_base: str, out_path: str) -> int:
    n_requested = n
    n = effective_n(prior, n)
    config = EnsembleConfig(
        n=n, trials=trials, family="bernoulli", prior=prior,
        noise=NoiseModel(W, J), master_seed=master_seed,
        p=p_grid[0] if p_grid else 0.5, metric=metric,
        rho_mode=rho_mode, log_base=log_base, workers=workers)
    rows = sweep_p(config, p_grid)
    out = Path(out_path)
    _write_csv_atomic(out, [_sweep_csv_row(r, config, W, J) for r in rows])
    params = {
        "n": n,
        "n_requested": n_requested,
        "trials": trials,
        "W": _j12(W),
        "J": _j12(J),
        "prior": prior.value,
        "family": "bernoulli",
        "p_grid": [_j12(p) for p in p_grid],
        "metric": config.resolved_metric,
        "rho_mode": rho_mode,
        "workers": workers,
        "log_base": log_base,
        "out": str(out),
    }
    _write_json_atomic(_manifest_path(out), _manifest(command, params, master_seed))
    print(f"rows: {len(rows)}")
    print(f"csv: {out}")
    print(f"manifest: {_manifest_path(out)}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    return _run_sweep_to_csv(
        command="sweep",
        n=args.n,
        trials=args.trials,
        W=_resolve_w(args),
        J=args.J,
        prior=ScenePrior.parse(args.prior),
        p_grid=_parse_p_grid(args.p_grid),
        master_seed=args.seed,
        metric=args.metric,
        rho_mode=args.rho_mode,
        workers=_resolve_workers(args),
        log_base=args.log_base,
        out_path=args.out,
    )


def _cmd_fig2(args) -> int:
    """Predictor curves (flat, Bernoulli 1/2, Bernoulli p*) over a W sweep."""
    J = args.J
    _require(args.points >= 2, f"--points must be >= 2, got {args.points}")
    w_grid = np.logspace(-3.0, 3.0, args.points)
    rows = []
    for W in w_grid:
        W = float(W)
        p_star = optimal_p_iid(W, J)
        curves = (
            ("flat", "", predict_flat_iid(W, J).value),
            ("bernoulli-half", "0.5", predict_bernoulli_iid(0.5, W, J).value),
            ("bernoulli-pstar", _g12(p_star),
             predict_bernoulli_iid(p_star, W, J).value),
        )
        for family, p_text, value in curves:
            rows.append({
                "p": p_text, "n": "", "W": _g12(W), "J": _g12(J),
                "prior": "iid", "family": family, "trials": "", "seed": "",
                "mi_mean": "", "mi_std": "", "mi_stderr": "",
                "mi_predicted": _g12(to_log_base(value, args.log_base)), "relative_gap": "",
                "log_base": args.log_base,
            })
    out = Path(args.out or "fig2.csv")
    _write_csv_atomic(out, rows)
    params = {
        "J": _j12(J),
        "W_grid": [_j12(w) for w in w_grid],
        "points": args.points,
        "curves": ["flat", "bernoulli-half", "bernoulli-pstar"],
        "log_base": args.log_base,
        "out": str(out),
    }
    _write_json_atomic(_manifest_path(out), _manifest("reproduce fig2", params, None))
    print(f"rows: {len(rows)}")
    print(f"csv: {out}")
    print(f"manifest: {_manifest_path(out)}")
    return EXIT_OK


def _cmd_fig3(args) -> int:
    """Analytic-vs-simulated 1/f sweep: n=250 -> 249, W=0.01, 1000 trials."""
    return _run_sweep_to_csv(
        command="reproduce fig3",
        n=args.n if args.n is not None else 250,
        trials=args.trials if args.trials is not None else 1000,
        W=_resolve_w(args, default=0.01),
        J=args.J,
        prior=ScenePrior.ONE_OVER_F,
        p_grid=_parse_p_grid(args.p_grid or "0.05:0.95:0.05"),
        master_seed=args.seed,
        metric=args.metric,
        rho_mode=args.rho_mode,
        workers=_resolve_workers(args),
        log_base=args.log_base,
        out_path=args.out or "fig3.csv",
    )


####################### selftest #######################

def _st_mls_flatness() -> None:
    for degree in range(3, 11):
        gen_mls(degree)  # generation enforces the spectral self-check


def _st_mura() -> None:
    gen_mura(13)
    spectrum = circulant_spectrum(gen_pinhole(8))
    if not np.allclose(spectrum.lambda_sq, 1.0, atol=1e-12):
        raise AssertionError("pinhole spectrum is not flat")


def _st_pinhole_identity() -> None:
    for n in (2, 5, 64, 257):
        for W, J in ((0.0, 1.0), (0.01, 1.0), (1.0, 1.0)):
            exact = mutual_information(
                gen_pinhole(n), ScenePrior.IID, NoiseModel(W, J)).per_pixel
            ref = predict_pinhole(n, W, J).value
            if abs(exact - ref) > 1e-12 * abs(ref):
                raise AssertionError(f"n={n} W={W}: {exact} vs {ref}")


def _st_explog_kernel() -> None:
    if explog_exp1(0.0) != 0.0:
        raise AssertionError("explog_exp1(0) != 0")
    ref = 0.5963473623231946  # e * E1(1)
    if abs(explog_exp1(1.0) - ref) > 1e-10:
        raise AssertionError(f"explog_exp1(1) = {explog_exp1(1.0)}")
    # the two evaluation routes must agree where they meet (the points sit
    # 2e-12 apart, so the derivative contributes ~2e-12 of the difference)
    below = explog_exp1(1.0 / 600.0 - 1e-12)
    above = explog_exp1(1.0 / 600.0 + 1e-12)
    if abs(below - above) > 1e-10:
        raise AssertionError("series/identity seam is discontinuous")


def _st_pstar_stationarity() -> None:
    for W, J in ((0.01, 1.0), (1.0, 1.0), (100.0, 1.0)):
        p = optimal_p_iid(W, J)
        residual = p * p * J + 2 * p * W - W
        if abs(residual) > 1e-10 * max(W, 1.0):
            raise AssertionError(f"stationarity residual {residual} at W={W}")
        best = predict_bernoulli_iid(p, W, J).value
        for k in range(1, 100):
            q = k / 100
            if predict_bernoulli_iid(q, W, J).value > best + 1e-12:
                raise AssertionError(f"p*={p} beaten by p={q} at W={W}")


def _st_flat_beats_half() -> None:
    for W in (0.01, 1.0, 100.0):
        half = predict_bernoulli_iid(0.5, W, 1.0).value
        flat = predict_flat_iid(W, 1.0).value
        if not half < flat:
            raise AssertionError(f"W={W}: {half} !< {flat}")


def _st_jensen_frobenius() -> None:
    noise = NoiseModel(0.01, 1.0)
    mls = gen_mls(8)
    gap = jensen_bound(mls, noise) - mi_excluding_dc(mls, noise)
    if abs(gap) > 1e-9:
        raise AssertionError(f"MLS equality gap {gap}")
    for seed in range(20):
        pattern = gen_bernoulli(255, 0.5, seed)
        if jensen_bound(pattern, noise) < mi_excluding_dc(pattern, noise) - 1e-12:
            raise AssertionError(f"bound violated at seed={seed}")
        s = float(pattern.values.sum())
        spectrum = circulant_spectrum(pattern)
        bulk = float(spectrum.lambda_sq.sum() - spectrum.lambda_sq[0])
        if abs(bulk - (255 * s - s * s)) > 1e-9 * 255 ** 2:
            raise AssertionError(f"Frobenius identity off at seed={seed}")


def _st_ensemble_determinism() -> None:
    config = EnsembleConfig(n=64, trials=8, family="bernoulli",
                            prior=ScenePrior.IID, noise=NoiseModel(0.01, 1.0),
                            master_seed=123, p=0.5)
    first = run_ensemble(config)
    second = run_ensemble(config)
    parallel = run_ensemble(replace(config, workers=2))
    if not first == second == parallel:
        raise AssertionError("ensemble results depend on run or worker count")


def _st_model_basics() -> None:
    if spectral_weights(ScenePrior.IID, 4).tolist() != [1.0, 1.0, 1.0, 1.0]:
        raise AssertionError("IID weights are not all-ones")
    ref = [1, 1 / 2, 1 / 3, 1 / 4, 1, 1 / 2, 1 / 3, 1 / 4]
    if not np.allclose(spectral_weights(ScenePrior.ONE_OVER_F, 8), ref,
                       rtol=0, atol=1e-15):
        raise AssertionError("1/f weights at n=8 are wrong")
    if abs(gamma(NoiseModel(0.01, 1.0), 0.5) - 1 / 0.51) > 1e-12:
        raise AssertionError("gamma(0.01, 1, 0.5) != 1/0.51")
    if abs(db_to_linear(-20.0) - 0.01) > 1e-15:
        raise AssertionError("db_to_linear(-20) != 0.01")


def _selftest() -> int:
    checks = [
        ("model basics (weights, gamma, dB)", _st_model_basics),
        ("MLS spectral flatness, degrees 3..10", _st_mls_flatness),
        ("MURA self-check and pinhole spectrum", _st_mura),
        ("pinhole MI identity", _st_pinhole_identity),
        ("exponential-expectation kernel", _st_explog_kernel),
        ("p* stationarity and 0.01-grid dominance", _st_pstar_stationarity),
        ("flat predictor beats Bernoulli(1/2)", _st_flat_beats_half),
        ("Jensen bound and Frobenius identity", _st_jensen_frobenius),
        ("ensemble determinism across workers", _st_ensemble_determinism),
    ]
    failures = 0
    for name, check in checks:
        try:
            check()
        except Exception as exc:  # report every failure, keep going
            failures += 1
            print(f"FAIL  {name}: {exc}")
        else:
            print(f"ok    {name}")
    print(f"selftest: {len(checks) - failures}/{len(checks)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


####################### dispatch #######################

def _dispatch(args) -> int:
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "mi":
        return _cmd_mi(args)
    if args.command == "predict":
        return _cmd_predict(args)
    if args.command == "optimize-p":
        return _cmd_optimize_p(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "reproduce":
        if args.target == "fig2":
            return _cmd_fig2(args)
        if args.target == "fig3":
            return _cmd_fig3(args)
        return _selftest()
    raise InvalidArgumentError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv2 = _inject_config(raw_argv)
        parser = _build_parser()
        try:
            args = parser.parse_args(argv2)
        except SystemExit as exc:
            code = exc.code
            if code is None:
                return EXIT_OK
            return code if isinstance(code, int) else EXIT_USAGE
        with warnings.catch_warnings():
            # each warning (e.g. the odd-n reduction) becomes one stderr line
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            return _dispatch(args)
    except (InvalidArgumentError, DegenerateNoiseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FlatnessCheckError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
