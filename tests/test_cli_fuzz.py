"""Fuzz of the CLI error contract: whatever the arguments and config lines,
`apmi` exits 0, 2 or 3, raises no exception out of `main` (a traceback),
leaves no temporary file behind, writes and prints nothing when it fails,
never writes a hidden file (an output named only by its suffix), never
writes a CSV without a data row, and prints strict JSON (no NaN or
Infinity) from every scalar command that succeeds.  Options and config keys
are spelled in full, so no config line is read as --help or as a prefix of
another option.  An argv may carry its own --out, in which
{tmp} stands for the test's fresh directory."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from apmi.cli import PREDICTORS, main
from apmi.ensemble import METRICS, RHO_MODES
from apmi.patterns import PATTERNS

# Every option that sets an amount of work (n, degree, trials, grid, points,
# workers) and that the drawn variant (family, predictor, prior, target) reads
# is always given on the command line, so it wins over any config line and the
# work stays small: n <= 64, degree <= 10, trials <= 8, <= 5 grid points,
# points <= 50, one worker.  An n or trials of 2**53 or more is drawn too: it
# is rejected before any work.  Each variant draws the options it reads, and
# one draw in four adds one option that it does not read.
# Valid values are drawn three times as often as arbitrary ones, so that
# many draws get past argument parsing into the numerical code.
numbers = st.one_of(st.floats(0, 1), st.floats(0, 1), st.floats(0, 100), st.floats(),
                    st.integers(-3, 3)).map(str)
seeds = st.integers()
grids = st.one_of(st.lists(st.floats(0.01, 0.99).map(str), min_size=1, max_size=5),
                  st.lists(numbers, max_size=5)).map(",".join) | st.text(max_size=6)


def size(low, high):
    """An --n or --trials value in [low, high], or (one time in four) one of
    2**53 or more."""
    small = st.integers(low, high)
    return st.one_of(small, small, small, st.integers(2**53, 10**400))


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def choice(*values):
    """One of `values`, or (one time in four) an arbitrary short string."""
    valid = st.sampled_from(values)
    return st.one_of(valid, valid, valid, st.text(max_size=8))


def always(name, values):
    return values.map(lambda v: f"--{name}={v}")


def maybe(name, values):
    return st.one_of(st.none(), always(name, values))


# Values by option; n and degree set an amount of work, so a variant that
# reads them always gives them.
VALUES = {"n": size(-2, 64), "degree": st.integers(-1, 10), "p": numbers, "seed": seeds,
          "rho-j": numbers, "form": choice("midsum", "closed"), "bulk-variance": numbers,
          "tol": numbers, "J": numbers, "W": numbers, "trials": size(-1, 8),
          "points": st.integers(-1, 50)}


def option(name):
    flag = name.replace("_", "-")
    return (always if flag in ("n", "degree") else maybe)(flag, VALUES[flag])


def unread(names, offered):
    """One time in four, one option of `offered` that is not in `names`."""
    spare = sorted({name.replace("_", "-") for name in offered} - set(names))
    return st.one_of(st.none(), st.none(), st.none(),
                     st.sampled_from(spare).flatmap(lambda flag: always(flag, VALUES[flag])))


def noise(j=True):
    return (st.one_of(always("W", numbers), always("W", numbers), always("W-db", numbers),
                      st.none()),
            st.one_of(st.none(), st.none(), st.none(), always("W-db", numbers)),
            maybe("J", numbers) if j else st.none(), maybe("log-base", choice("nats", "bits")))


PATTERN_OPTIONS = {name for names, _ in PATTERNS.values() for name in names}
PREDICTOR_OPTIONS = {name for names, _ in PREDICTORS.values() for name in names} - {"W"}
ENSEMBLE = (always("n", size(-2, 64)), always("trials", size(-1, 8)),
            always("p-grid", grids), maybe("seed", seeds),
            maybe("rho-mode", choice(*RHO_MODES)), st.just("--workers=1"))
PRIOR = maybe("prior", choice("iid", "1f"))


def pattern(command, *rest):
    """A known family with the options it reads, or (one time in six) any
    --family text with every pattern option."""
    def known(family):
        names = PATTERNS[family][0]
        return st.tuples(st.just(command), st.just(f"--family={family}"),
                         *map(option, names), unread(names, PATTERN_OPTIONS), *rest)
    return st.one_of(*(known(family) for family in PATTERNS),
                     st.tuples(st.just(command), always("family", st.text(max_size=8)),
                               *map(option, sorted(PATTERN_OPTIONS)), *rest))


def predictor(which):
    names = [name for name in PREDICTORS[which][0] if name not in ("W", "J")]
    return st.tuples(st.just("predict"), st.just(which), *map(option, names),
                     unread(PREDICTORS[which][0], PREDICTOR_OPTIONS),
                     *noise(j="J" in PREDICTORS[which][0]))


ARGV = st.one_of(
    pattern("generate"),
    pattern("mi", PRIOR, *noise()),
    *map(predictor, PREDICTORS),
    st.tuples(st.just("predict"), st.text(max_size=8), *noise()),
    st.tuples(st.just("optimize-p"), st.sampled_from([None, "--prior=iid"]),
              unread((), ("n", "tol")), *noise()),
    st.tuples(st.just("optimize-p"), always("prior", choice("1f", "1/f")),
              always("n", size(-2, 64)), maybe("tol", numbers), *noise()),
    st.tuples(st.just("sweep"), PRIOR, *ENSEMBLE, maybe("metric", choice(*METRICS)), *noise()),
    st.tuples(st.just("reproduce"), st.just("fig2"), always("points", st.integers(-1, 50)),
              unread((), ("W", "trials", "seed")), *noise()[2:]),
    st.tuples(st.just("reproduce"), st.just("fig3"), *ENSEMBLE, unread((), ("points",)),
              *noise()),
).map(lambda tokens: [t for t in tokens if t is not None])

CONFIG_KEYS = ("W", "W-db", "J", "log-base", "prior", "family", "p", "seed", "metric",
               "rho-mode", "rho-j", "form", "tol", "pattern-file", "out", "h")
pairs = st.tuples(st.sampled_from(CONFIG_KEYS), st.one_of(numbers, st.text(max_size=8)))
CONFIG = st.one_of(
    st.lists(st.one_of(pairs.map(" = ".join), pairs.map("=".join), st.text(max_size=20)),
             max_size=3).map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")),
    st.just(b""),
    st.binary(max_size=20),
)


@settings(max_examples=150, deadline=None)
@given(ARGV, CONFIG)
@example(["sweep", "--n=8", "--trials=2", "--p-grid=0.5", "--seed=-1", "--workers=1",
          "--W=1"], b"")
@example(["sweep", "--n=8", "--trials=2", "--p-grid=,", "--workers=1", "--W=1"], b"")
@example(["generate", "--family=mls", "--degree=3", "--out={tmp}/sub/"], b"")
@example(["sweep", "--n=8", "--trials=4", "--p-grid=0.5,0.2", "--workers=1", "--W=0",
          "--J=1e-320"], b"")
@example(["predict", "bernoulli-1f", "--n=11", "--p=0.5", "--W=1e-307", "--J=0"], b"")
@example(["predict", "pinhole", f"--n={2**53}", "--W=0.01"], b"")
@example(["predict", "flat-iid", "--W=0.01"], b"h = 1")
@example(["predict", "flat-iid", "--W=0.01", "--out={tmp}/.."], b"")
# one run of each command that succeeds, most with a config key that it reads
@example(["generate", "--family=bernoulli", "--n=8", "--p=0.5", "--seed=3"], b"")
@example(["mi", "--family=mls", "--degree=4", "--prior=1f", "--W=0.01"], b"J = 2")
@example(["predict", "gaussian-1f", "--n=11", "--rho-j=0.5", "--W=0.01"], b"log-base = bits")
@example(["optimize-p", "--prior=1f", "--n=11", "--tol=0.01", "--W=0.01"], b"")
@example(["sweep", "--n=8", "--trials=2", "--p-grid=0.5", "--workers=1", "--W=1"], b"seed = 3")
@example(["reproduce", "fig2", "--points=3"], b"J = 2")
@example(["reproduce", "fig3", "--n=9", "--trials=2", "--p-grid=0.5", "--workers=1"],
         b"W = 0.5")
def test_error_contract(argv, config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_bytes(config)
        out = Path(tmp) / "out.csv"
        argv = [token.replace("{tmp}", tmp) for token in argv]
        if not any(token.startswith("--out") for token in argv):
            argv = [*argv, f"--out={out}"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--config", str(cfg)])
        assert code in (0, 2, 3), (code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        written = sorted(p.name for p in Path(tmp).iterdir() if p != cfg)
        assert not [name for name in written if name.endswith(".tmp")], written
        hidden = list(Path(tmp).rglob(".*"))
        assert hidden == [], hidden
        if code != 0:
            assert written == [], (code, written, stderr.getvalue())
            assert stdout.getvalue() == "", (code, stdout.getvalue(), stderr.getvalue())
        elif argv[0] in ("mi", "predict", "optimize-p"):
            strict_json(stdout.getvalue())
        if out.exists() and argv[0] in ("sweep", "reproduce"):
            assert len(out.read_text().splitlines()) >= 2, out.read_text()
