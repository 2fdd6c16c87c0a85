"""Each command takes only the options it reads.

The table test crosses every option that the parser accepts for a command
with each variant of that command (pattern family, --pattern-file,
predictor, prior, reproduce target).  A given option is either read, so that
a value other than the base run's changes some stdout byte or written file,
or an argument error: exit 2, one `error:` line naming it, empty stdout and
no file.  An option with choices must have some choice that changes the
run, or reject every choice.  A new option, family, predictor or target
enters the tables by itself; one without an entry in VARIANTS or ALT fails."""

import json
from pathlib import Path

import pytest

from apmi.asymptotic import PREDICTORS
from apmi.cli import _build_parser, main
from apmi.model import PATTERN_FAMILIES


def _subcommands(parser):
    return parser._subparsers._group_actions[0].choices if parser._subparsers else {}


def _options(parser):
    return [action.option_strings[-1] for action in parser._actions
            if action.option_strings and action.dest != "help"]


COMMANDS = _subcommands(_build_parser())
FLAT_PATTERN = {"pinhole": {"--n": "5"}, "mls": {"--degree": "3"}, "mura": {"--n": "5"},
                "bernoulli": {"--n": "5", "--p": "0.5"}, "uniform": {"--n": "5"}}
ENSEMBLE = {"--n": "5", "--trials": "2", "--p-grid": "0.5", "--workers": "1"}
W = {"--W": "0.01"}
# Each variant's argv prefix (the options that pick the variant) and the
# options of its base run, which runs with exit 0.
VARIANTS = {
    **{("generate", "--family", family): options for family, options in FLAT_PATTERN.items()},
    **{("mi", "--family", family): {**options, **W} for family, options in FLAT_PATTERN.items()},
    ("mi", "--pattern-file", "{mask}"): W,
    ("predict", "pinhole"): {"--n": "5", **W},
    ("predict", "flat-iid"): W,
    ("predict", "bernoulli-iid"): {"--p": "0.5", **W},
    ("predict", "uniform-iid"): W,
    ("predict", "flat-1f"): {"--n": "5", **W},
    ("predict", "gaussian-1f"): {"--n": "5", "--rho-j": "1", **W},
    ("predict", "bernoulli-1f"): {"--n": "5", "--p": "0.5", **W},
    ("optimize-p", "--prior", "iid"): W,
    ("optimize-p", "--prior", "1f"): {"--n": "5", **W},
    ("sweep",): {**ENSEMBLE, **W},
    ("sweep", "--prior", "1f"): {**ENSEMBLE, **W},
    ("reproduce", "fig2"): {"--points": "2"},
    ("reproduce", "fig3"): ENSEMBLE,
    ("reproduce", "selftest"): {},
}
# The value each option takes in place of its base value (or its default).
ALT = {"--n": "13", "--degree": "4", "--p": "0.9", "--seed": "1", "--W": "0.1",
       "--W-db": "-10", "--J": "2", "--log-base": "bits", "--prior": "1f", "--rho-j": "0.5",
       "--form": "closed", "--bulk-variance": "0.1", "--tol": "0.001", "--trials": "3",
       "--p-grid": "0.3", "--metric": "per_pixel", "--rho-mode": "nominal", "--workers": "2",
       "--points": "3", "--out": "alt.out", "--config": "{config}",
       "--pattern-file": "{mask}", "--family": "pinhole"}


def _parser_of(prefix):
    parser = COMMANDS[prefix[0]]
    return _subcommands(parser).get(prefix[1], parser) if len(prefix) > 1 else parser


PAIRS = [(prefix, option) for prefix in VARIANTS for option in _options(_parser_of(prefix))
         if option not in prefix]


def test_variants_cover_every_command_and_choice():
    assert {prefix[0] for prefix in VARIANTS} == set(COMMANDS)
    for command in ("generate", "mi"):
        assert {p[2] for p in VARIANTS if p[:2] == (command, "--family")} == set(PATTERN_FAMILIES)
    assert {p[1] for p in VARIANTS if p[0] == "predict"} == set(PREDICTORS)
    assert {p[1] for p in VARIANTS if p[0] == "reproduce"} == set(
        _subcommands(COMMANDS["reproduce"]))
    for prefix, options in VARIANTS.items():
        assert all(ALT[option] != value for option, value in options.items()), prefix


def _run(capsys, monkeypatch, run_dir, argv):
    """Run argv in a fresh run_dir; return the exit code, stdout, stderr and
    the files written there (manifests without their timestamp)."""
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    code = main(argv)
    out, err = capsys.readouterr()
    files = {}
    for path in sorted(run_dir.rglob("*")):
        text = path.read_text()
        if path.name.endswith(".manifest.json"):
            record = json.loads(text)
            record.pop("timestamp")
            text = json.dumps(record, sort_keys=True)
        files[str(path.relative_to(run_dir))] = text
    return code, out, err, files


@pytest.fixture
def argv(tmp_path, capsys):
    """argv(prefix, options): the variant's tokens and the options, with {mask}
    naming a generated MLS mask and {config} a config file that sets --out."""
    assert main(["generate", "--family", "mls", "--degree", "3",
                 "--out", str(tmp_path / "mask")]) == 0
    config = tmp_path / "run.cfg"
    config.write_text("out = from-config.out\n")
    fields = {"mask": str(tmp_path / "mask.txt"), "config": str(config)}
    capsys.readouterr()

    def make(prefix, options):
        tokens = [*prefix, *(t for kv in options.items() for t in kv)]
        return [token.format(**fields) for token in tokens]
    return make


@pytest.mark.parametrize("prefix, option", PAIRS, ids=[" ".join(p[:2]) + f" {o}" for p, o in PAIRS])
def test_each_given_option_is_read_or_rejected(capsys, tmp_path, monkeypatch, argv,
                                               prefix, option):
    base = VARIANTS[prefix]
    code, *base_run = _run(capsys, monkeypatch, tmp_path / "base", argv(prefix, base))
    assert code == 0, base_run
    # --W and --W-db are exclusive: the dB value takes the place of --W
    options = {k: v for k, v in base.items() if not (option == "--W-db" and k == "--W")}
    code, out, err, files = _run(capsys, monkeypatch, tmp_path / "alt",
                                 argv(prefix, {**options, option: ALT[option]}))
    if code == 0:
        assert (out, files) != (base_run[0], base_run[2]), "given but not read"
    else:
        assert (code, out, files) == (2, "", {}), err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert option.lstrip("-") in err, err


CHOICES = [(prefix, action.option_strings[-1], action.choices) for prefix in VARIANTS
           for action in _parser_of(prefix)._actions
           if action.choices and action.option_strings and action.option_strings[-1] not in prefix]


@pytest.mark.parametrize("prefix, option, choices", CHOICES,
                         ids=[" ".join(p).format(mask="FILE") + f" {o}" for p, o, _ in CHOICES])
def test_each_choice_option_can_change_the_run(capsys, tmp_path, monkeypatch, argv,
                                               prefix, option, choices):
    """An option with choices is offered only where it can change the run:
    some choice exits 0 and changes the output, or every choice exits 2."""
    code, *base_run = _run(capsys, monkeypatch, tmp_path / "base", argv(prefix, VARIANTS[prefix]))
    assert code == 0, base_run
    codes, changed = [], False
    for i, choice in enumerate(choices):
        code, out, _, files = _run(capsys, monkeypatch, tmp_path / f"choice{i}",
                                   argv(prefix, {**VARIANTS[prefix], option: choice}))
        codes.append(code)
        changed |= code == 0 and (out, files) != (base_run[0], base_run[2])
    assert changed or codes == [2] * len(choices), dict(zip(choices, codes))


# Options that a reproduce target's parser does not have: what the shared
# parser of every target accepted and dropped.
NOT_ACCEPTED = [
    ("fig2", "--W", "0.5"), ("fig2", "--W-db", "-3"), ("fig2", "--n", "9"),
    ("fig2", "--trials", "5"), ("fig2", "--p-grid", "0.5"), ("fig2", "--seed", "7"),
    ("fig2", "--metric", "total"), ("fig2", "--rho-mode", "nominal"), ("fig2", "--workers", "3"),
    ("fig3", "--points", "3"), ("fig3", "--metric", "total"),
    ("selftest", "--W", "3"), ("selftest", "--trials", "5"), ("selftest", "--points", "9"),
    ("selftest", "--config", "run.cfg"), ("selftest", "--out", "x.csv"),
    *(("selftest", "--out", out) for out in ("", ".", "..", "sub/", "sub/.")),
]


@pytest.mark.parametrize("target, option, value", NOT_ACCEPTED)
def test_reproduce_target_rejects_what_it_does_not_read(capsys, tmp_path, monkeypatch,
                                                       target, option, value):
    """Exit 2 with one line, nothing printed or written, and no work done."""
    def work_ran(*_args, **_kwargs):
        raise AssertionError("the target ran")
    for name in ("apmi.cli.optimal_p_iid", "apmi.ensemble.sweep_p", "apmi.checks.selftest"):
        monkeypatch.setattr(name, work_ran)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("")
    code, out, err = main(["reproduce", target, option, value]), *capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: apmi: unrecognized arguments: {option} {value}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("argv", [
    (), ("predict", "parabolic"), ("mi", "--W", "x"), ("sweep", "--tri", "3"),
    ("reproduce", "fig9"), ("reproduce", "fig2", "--trials", "5"), ("reproduce",),
    ("predict", "flat-iid", "--W"), ("generate", "--family", "mls", "--degree", "3", "x"),
])
def test_every_argument_error_is_one_line(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = main(list(argv)), *capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: apmi") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [("--help",), ("reproduce", "fig2", "--help"), ("--version",)])
def test_help_and_version_still_exit_0(capsys, argv):
    code, out, err = main(list(argv)), *capsys.readouterr()
    assert (code, err) == (0, "") and out


def test_per_target_help_lists_only_its_options(capsys):
    helps = {}
    for target in ("fig2", "fig3", "selftest"):
        assert main(["reproduce", target, "--help"]) == 0
        helps[target] = capsys.readouterr().out
    assert "--points" in helps["fig2"] and "--W" not in helps["fig2"]
    assert "--trials" not in helps["fig2"]
    assert "--W-db" in helps["fig3"] and "--points" not in helps["fig3"]
    assert "--out" not in helps["selftest"] and "--config" not in helps["selftest"]


class TestConfigWithTargets:
    """Config keys act as flags given after the command line's own options,
    so they reach a reproduce target, and a key that it does not read is an
    error like its flag."""

    def run(self, capsys, tmp_path, config, *argv):
        (tmp_path / "run.cfg").write_text(config)
        code = main([*argv, "--config", str(tmp_path / "run.cfg"),
                     "--out", str(tmp_path / "out" / "x.csv")])
        out, err = capsys.readouterr()
        manifest = tmp_path / "out" / "x.manifest.json"
        return code, out, err, json.loads(manifest.read_text()) if manifest.exists() else None

    def test_fig3_reads_its_keys(self, capsys, tmp_path):
        code, _, _, manifest = self.run(capsys, tmp_path, "W = 0.5\ntrials = 3\n",
                                        "reproduce", "fig3", "--n", "5", "--p-grid", "0.5")
        assert code == 0
        assert (manifest["parameters"]["W"], manifest["parameters"]["trials"]) == (0.5, 3)

    def test_fig2_reads_its_keys(self, capsys, tmp_path):
        code, _, _, manifest = self.run(capsys, tmp_path, "J = 2\n", "reproduce", "fig2",
                                        "--points", "2")
        assert code == 0 and manifest["parameters"]["J"] == 2.0

    @pytest.mark.parametrize("argv, config, key, value", [
        (("reproduce", "fig3", "--n", "5", "--trials", "2", "--p-grid", "0.5", "--W", "0.1"),
         "W = 0.5\n", "W", 0.1),
        (("reproduce", "fig2", "--points", "2", "--J", "3"), "J = 2\n", "J", 3.0),
    ])
    def test_explicit_flag_wins(self, capsys, tmp_path, argv, config, key, value):
        code, _, _, manifest = self.run(capsys, tmp_path, config, *argv)
        assert code == 0 and manifest["parameters"][key] == value

    @pytest.mark.parametrize("argv, config", [
        (("reproduce", "fig3", "--n", "5", "--trials", "2", "--p-grid", "0.5"), "points = 3\n"),
        (("reproduce", "fig2", "--points", "2"), "W = 0.5\n"),
        (("predict", "flat-iid", "--W", "0.01"), "n = 5\n"),
        (("optimize-p", "--W", "0.01"), "tol = 0.01\n"),
    ])
    def test_unread_key_exits_2(self, capsys, tmp_path, argv, config):
        code, out, err, _ = self.run(capsys, tmp_path, config, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert config.partition(" ")[0] in err
        assert not (tmp_path / "out").exists()

    def test_config_before_the_predictor(self, capsys, tmp_path):
        (tmp_path / "run.cfg").write_text("W = 0.5\n")
        code = main(["predict", "--config", str(tmp_path / "run.cfg"), "flat-iid"])
        out, _ = capsys.readouterr()
        assert code == 0 and json.loads(out)["W"] == 0.5

    def test_options_follow_the_target(self, capsys, tmp_path):
        (tmp_path / "run.cfg").write_text("W = 0.5\n")
        code = main(["reproduce", "--config", str(tmp_path / "run.cfg"), "fig3"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "") and err.count("\n") == 1
