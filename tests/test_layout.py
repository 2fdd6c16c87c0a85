"""Each concept is computed in one place: guards against the copies that the
package once had (several FFT -> log1p sums, several nats-to-bits
conversions, two odd-n reducers) growing back."""

import ast
import functools
import importlib
import inspect
import re
from pathlib import Path

import apmi
from apmi import asymptotic, cli, ensemble, errors, model, patterns, spectral

PACKAGE = Path(apmi.__file__).resolve().parent


def occurrences(pattern: str) -> dict[str, int]:
    """Source file name -> number of matches of `pattern`, for files with any."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        count = len(re.findall(pattern, path.read_text()))
        if count:
            found[path.name] = count
    return found


def test_one_fft_call_site():
    assert occurrences(r"np\.fft\.fft\(") == {"spectral.py": 1}


def test_one_spectrum_per_pattern():
    """A pattern's power spectrum is its lambda_sq, taken once through
    power_spectrum unless the row proves its label; the generators' self-check
    measures the row's own FFT.  No second spectrum type or helper computes it."""
    assert occurrences(r"circulant_spectrum|SpectrumResult|bulk_power") == {}
    assert occurrences(r"power_spectrum\(").get("patterns.py") == 2
    for entry in (patterns.AperturePattern.lambda_sq.func, patterns._check_spectrum):
        assert inspect.getsource(entry).count("power_spectrum(") == 1, entry.__qualname__


def test_one_theorem_path_per_row():
    """Whether a row takes its spectrum by theorem depends on its values alone:
    _proven is a cached property of every pattern, computed by _proves_label,
    and no code assigns it, so a loaded row and a generated one take one path."""
    proven = vars(patterns.AperturePattern)["_proven"]
    assert isinstance(proven, functools.cached_property)
    assert "return _proves_label(self)" in inspect.getsource(proven.func)
    assert occurrences(r"\b_proven\b\s*=(?!=)|[\"']_proven[\"']") == {}
    assert "__setattr__" not in inspect.getsource(patterns.load_pattern)


def test_one_quadratic_residue_construction():
    """gen_mura and the theorem-spectrum proof of a loaded mura row build the
    quadratic-residue row in one place, patterns._qr_row."""
    assert occurrences(r"i \* i %") == {"patterns.py": 1}
    assert "i * i %" in inspect.getsource(patterns._qr_row)


def test_one_draw_site_and_one_pool_site_in_ensemble():
    """The ensemble seeds generators in one place and builds at most one
    process pool per call, whatever the grid."""
    assert occurrences(r"default_rng\(")["ensemble.py"] == 1
    assert occurrences(r"ProcessPoolExecutor\(")["ensemble.py"] == 1


def test_one_pattern_file_byte_encoder_and_decoder():
    """0/1 pattern files are written by one byte encoder and read by one
    byte decoder."""
    assert occurrences(r"\.tobytes\(") == {"patterns.py": 1}
    assert occurrences(r"\bfrombuffer\(") == {"patterns.py": 1}


def test_one_path_per_pattern_file_job():
    """Every command writes its files and manifest through one writer,
    cli._write_outputs, which makes the one write_atomic call of the CLI under
    one manifest-path rule; --out is checked in one place, and a descriptor's
    metadata is checked for strict JSON once.  generate has no rollback of its
    own; load_pattern reads a file once and never rewinds it; and the explog
    series has one body, for floats and arrays."""
    source = (PACKAGE / "cli.py").read_text()
    assert "patterns.py" not in occurrences(r"\bseek(?:able)?\(")
    assert "cli.py" not in occurrences(r"\bos\.remove\(")
    assert source.count("write_atomic(") == 1
    assert "write_atomic(" in inspect.getsource(cli._write_outputs)
    assert inspect.getsource(cli._cmd_generate).count("_write_outputs(") == 1
    assert source.count('".manifest.json"') == 1 and source.count("must name a file") == 1
    assert occurrences(r"_strict_json|_manifest_path|_out_path") == {}
    assert inspect.signature(patterns._read_binary).parameters["data"].annotation is bytes
    assert occurrences(r"for k in range\(1, 8\)") == {"asymptotic.py": 1}


def test_one_log_base_conversion():
    assert occurrences(r"/\s*LN2\b") == {"model.py": 1}
    assert re.search(r"/\s*LN2\b", inspect.getsource(model.to_log_base))
    # no other module holds its own ln 2 either
    assert set(occurrences(r"\bLN2\b")) == {"model.py"}
    assert occurrences(r"log\(2") == {"model.py": 1}


def test_log_base_only_at_the_cli():
    """The library computes in nats; only the CLI converts what it prints."""
    found = occurrences(r"\bto_log_base\(")
    assert set(found) == {"cli.py", "model.py"} and found["model.py"] == 1
    for name in ("spectral.py", "ensemble.py", "asymptotic.py", "patterns.py", "checks.py"):
        assert "log_base" not in (PACKAGE / name).read_text(), name


def test_one_degenerate_noise_raise():
    """A scalar noise power without a finite inverse is rejected in one
    place, model.inverse_noise, which gamma and every predictor call."""
    assert occurrences(r"raise DegenerateNoiseError\b") == {"model.py": 1}
    assert "raise DegenerateNoiseError" in inspect.getsource(model.inverse_noise)
    assert "inverse_noise(" in inspect.getsource(model.gamma)
    assert occurrences(r"_invertible|no finite noise power") == {}


def test_one_odd_n_reducer():
    assert occurrences("odd-n formula") == {"model.py": 1}


def test_one_odd_n_guard():
    """The 1/f formulas' odd-n check lives beside the reducer, in model.check_odd_n."""
    assert occurrences(r"need odd n >= 5") == {"model.py": 1}
    assert "need odd n >= 5" in inspect.getsource(model.check_odd_n)


def test_gaussian_shot_term_from_noise_model():
    """A gaussian ensemble reads its rho*J product from NoiseModel.J; no
    config field holds a second copy."""
    assert occurrences(r"rho_j_fixed") == {}


def test_explog_splits_arrays_one_way():
    """explog_exp1 sends every array through one masked split; no shortcut
    runs a branch on the whole array."""
    source = inspect.getsource(asymptotic.explog_exp1)
    assert len(re.findall(r"\b_explog_identity\b", source)) == 1
    assert not re.search(r"_explog_(?:identity|series)\(arr\)", source)


def test_one_e1_head_rule():
    """_bulk_sum's head follows one rule for both terms at every SNR: its code
    (the docstring aside) compares s with no number, holds 4096 only in the
    top > 4096 test and takes no flag for the term's kind, so no s fork, no
    s-dependent head and no per-term rule grow back, nor the chunked extraction
    sum that long heads once needed."""
    function = ast.parse(inspect.getsource(asymptotic._bulk_sum)).body[0]
    code = ast.unparse(function.body[1:])
    assert ast.get_docstring(function) and not re.search(r"\bs\s*[<>]=?\s*[\d.]", code)
    assert code.count("4096") == 1 and "top > 4096" in code
    assert code.count("max(30, min(branch, 64))") == 1 and "2.4" not in code
    assert [a.arg for a in function.args.args] == ["term", "series", "s", "top", "ends"]
    assert occurrences(r"_exact_fsum|_BULK_CHUNK|\be1\b") == {}


def test_one_predictor_registry():
    """asymptotic.PREDICTORS is the one predictor dispatch: the CLI and the
    ensemble call no predict_* function and import none."""
    assert occurrences(r"(?m)^PREDICTORS = ") == {"asymptotic.py": 1}
    calls = occurrences(r"\bpredict_\w+")
    assert "cli.py" not in calls and "ensemble.py" not in calls, calls
    assert occurrences("_matching_prediction") == {}
    assert cli.PREDICTORS is asymptotic.PREDICTORS


def test_one_home_for_mask_families():
    """patterns.PATTERNS is the one generator registry and patterns.RANDOM_DRAWS
    the one random-row table: the CLI names no generator, the ensemble
    defines no draw table, and each module seeds generators in one place.
    The CLI's --family choices and PATTERNS' keys are model.PATTERN_FAMILIES."""
    assert occurrences(r"(?m)^PATTERNS = ") == {"patterns.py": 1}
    assert occurrences(r"(?m)^PATTERN_FAMILIES = ") == {"model.py": 1}
    assert tuple(patterns.PATTERNS) == model.PATTERN_FAMILIES
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    for name in ("generate", "mi"):
        family, = (a for a in commands[name]._actions if a.dest == "family")
        assert family.choices == list(model.PATTERN_FAMILIES), name
    assert "cli.py" not in occurrences(r"\bgen_\w+")
    assert occurrences(r"(?m)^\w*DRAWS\w* = ") == {"patterns.py": 1}
    assert "ensemble.py" not in occurrences(r"standard_normal|\(u < p\)")
    assert ensemble.FAMILIES == tuple(patterns.RANDOM_DRAWS)
    assert occurrences(r"must be finite and \{") == {"model.py": 1}
    assert occurrences(r"\bDRAWS\b|\b_check_p\b|_eval_range_star") == {}
    assert occurrences(r"default_rng\(") == {"ensemble.py": 1, "patterns.py": 1}


def test_one_home_per_rule():
    """The MLS and MURA generators share one spectral self-check, the random-mask
    1/f predictors one body, the ensemble reads each metric's pairing from
    model.METRICS, and the predictors reach the open-fraction check without
    the pattern layer."""
    assert occurrences(r"\b_levels\b|\b_check_flat\b") == {}
    assert occurrences(r"raise FlatnessCheckError\b") == {"patterns.py": 1}
    source = (PACKAGE / "asymptotic.py").read_text()
    assert len(re.findall(r"(?<!def )_normal_expect_log\(", source)) == 1
    assert len(re.findall(r"\* EXPLOG_ABS_TOL", source)) == 1
    metric_names = "|".join(model.METRICS)
    assert not re.search(rf"[\"'](?:{metric_names})[\"']", inspect.getsource(ensemble._check_kinds))
    assert not re.findall(r"(?m)^from \.(?:patterns|spectral) import", source)
    assert set(re.findall(r"(?m)^from \.(\w+) import", source)) == {"errors", "model"}


def test_one_home_per_rule_round_three():
    """model.check_int is the one seed rule, called by every entry that takes a
    seed; the 0/1 rule of pinhole, mls and mura rows is raised only in
    AperturePattern; --W and --W-db are named as one pair once in cli.py; and
    fig3, whose 1/f prior records total MI only, offers no --metric."""
    assert occurrences(r"(?m)^def check_int\b") == {"model.py": 1}
    assert occurrences(r"seed\s*<\s*0|_check_seed\b") == {}
    for entry in (patterns._draw, patterns.AperturePattern.__post_init__, patterns.load_pattern,
                  ensemble.EnsembleConfig.__post_init__, ensemble.trial_seed):
        assert "check_int(" in inspect.getsource(entry), entry.__qualname__
    assert occurrences("needs a row of only 0s and 1s") == {"patterns.py": 1}
    assert "needs a row of only 0s and 1s" in inspect.getsource(patterns.AperturePattern)
    assert occurrences(r"""["']W["'], ["']W-db["']""") == {"cli.py": 1}
    assert "W_SPELLINGS" in inspect.getsource(cli._inject_config)
    reproduce = cli._build_parser()._subparsers._group_actions[0].choices["reproduce"]
    fig3 = reproduce._subparsers._group_actions[0].choices["fig3"]
    assert "--metric" not in [flag for action in fig3._actions for flag in action.option_strings]


def test_one_home_per_rule_round_four():
    """model.check_int is the one integer rule of seeds and sizes, called by every
    entry that takes a size, with no hand-written size check beside it; a
    pattern's family and an ensemble's prior and noise are checked as members
    of their types where they are held; and load_pattern has one except clause
    for a row's errors, which names a file for each and re-raises none bare."""
    assert occurrences(r"(?m)^def check_int\b") == {"model.py": 1}
    assert occurrences(r"need n >=|need trials|need workers|bound needs|check_seed"
                       r"|APMI_WORKERS must be >=|points must be >=") == {}
    for entry in (patterns.gen_pinhole, patterns.gen_mls, patterns.gen_mura, patterns._draw,
                  model.spectral_weights, model.check_odd_n, asymptotic.predict_pinhole,
                  spectral.jensen_bound, ensemble.EnsembleConfig.__post_init__,
                  cli._resolve_workers, cli._cmd_fig2):
        assert "check_int(" in inspect.getsource(entry), entry.__qualname__
    for entry in (asymptotic.predict_flat_onef, asymptotic.predict_gaussian_onef,
                  asymptotic.predict_bernoulli_onef, asymptotic.optimal_p_onef):
        assert "check_odd_n(" in inspect.getsource(entry), entry.__qualname__
    assert re.search(r"isinstance\(self\.family, PatternFamily\)",
                     inspect.getsource(patterns.AperturePattern))
    config = inspect.getsource(ensemble.EnsembleConfig)
    assert "isinstance(" in config and '("prior", ScenePrior), ("noise", NoiseModel)' in config
    loader = inspect.getsource(patterns.load_pattern)
    assert loader.count("except InvalidArgumentError") == 1
    assert not re.search(r"(?m)^\s*raise\s*$", loader)


def test_one_home_per_rule_round_five():
    """model.check_real is the one rule of real arguments: W and J, every open
    fraction p, gamma's rho, rho_j, tol, bulk_variance and a dB value go through
    it, as does every grid p of the CLI, with no check_p and no hand-written
    finiteness or range raise beside it."""
    assert occurrences(r"(?m)^def check_real\b") == {"model.py": 1}
    assert occurrences(r"\bcheck_p\b|noise powers must|transmissivity must|\d < p < \d"
                       r"|must lie in \[0, 1\], got|must lie in \(0, 1\)"
                       r"|must be finite and positive") == {}
    assert occurrences(r"\bfloat\(p\)") == {}
    for entry in (model.NoiseModel.__post_init__, model.gamma, model.db_to_linear,
                  patterns.gen_bernoulli, asymptotic.predict_bernoulli_iid,
                  asymptotic.predict_uniform_iid, asymptotic.predict_gaussian_onef,
                  asymptotic.predict_bernoulli_onef, asymptotic.optimal_p_onef,
                  ensemble.EnsembleConfig.__post_init__, ensemble.sweep_p, cli._parse_p_grid):
        assert "check_real(" in inspect.getsource(entry), entry.__qualname__
    assert "isfinite" not in inspect.getsource(model.NoiseModel)
    assert "no finite linear value" in inspect.getsource(model.db_to_linear)


def test_one_flat_mask_mi_body():
    """The 1/f MI of a flat mask has one body, asymptotic._flat_onef, which
    predict_flat_onef's midsum and the MLS theorem (mls_mi_sums) both call.
    The theorem is the one MLS MI of mi --family mls and of a proven loaded mls
    row, and the CLI names no generator and no MLS spectrum level on that path."""
    assert occurrences(r"_bulk_sum\(np\.log1p") == {"asymptotic.py": 1}
    assert "_bulk_sum(np.log1p" in inspect.getsource(asymptotic._flat_onef)
    for entry in (asymptotic.predict_flat_onef, asymptotic.mls_mi_sums):
        assert "_flat_onef(" in inspect.getsource(entry), entry.__qualname__
    for entry in (cli._cmd_mi, spectral.mutual_information):
        assert "mls_mi_sums(" in inspect.getsource(entry), entry.__qualname__
    assert occurrences(r"\(n \+ 1\) / 4\) / n") == {"asymptotic.py": 1}
    assert "gen_mls" not in inspect.getsource(cli)
    assert occurrences(r"(?m)^MLS_POLYNOMIALS\b") == {"model.py": 1}
    assert "MLS_POLYNOMIALS" in inspect.getsource(model.mls_length)
    assert "mls_length(" in inspect.getsource(patterns.gen_mls)


def test_one_home_for_the_onef_pair_range():
    """The last 1/f mirror pair k is computed in one place, the numpy-free, non-public
    model.onef_last_pair: spectral_weights builds its odd-n weights from it, mls_mi_sums
    sums to it, and the three 1/f predictors stop one pair short through one expression
    (item 14); asymptotic.py computes no pair range of its own."""
    source = inspect.getsource(model.onef_last_pair)
    assert "return (n + 1) // 2" in source and "np" not in re.findall(r"\b\w+\b", source)
    assert occurrences(r"\(n \+ 1\) // 2").get("model.py") == 1
    assert "onef_last_pair" not in model.__all__
    assert "h = onef_last_pair(n)" in inspect.getsource(model.spectral_weights)
    assert not re.search(r"n \+ 2|\(n [-+] 1\) // 2", (PACKAGE / "asymptotic.py").read_text())
    assert "_flat_onef(dc, level, onef_last_pair(n))" in inspect.getsource(asymptotic.mls_mi_sums)
    assert occurrences(r"onef_last_pair\(n\) - 1") == {"asymptotic.py": 1}
    assert "onef_last_pair(n) - 1" in inspect.getsource(asymptotic._predicted_last_pair)
    for entry in (asymptotic.predict_flat_onef, asymptotic._random_onef):
        assert "_predicted_last_pair(n)" in inspect.getsource(entry), entry.__qualname__


def test_numpy_only_in_the_array_layers():
    """Only the layers that are all arrays import numpy at module level, so
    the CLI and the scalar predictors start without it; no module imports
    scipy at module level."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
                     else [])
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(path.stem)
    assert found["numpy"] == {"ensemble", "patterns", "spectral", "checks"}
    assert "scipy" not in found


def test_cli_never_names_numpy():
    """The CLI builds its own grids in math, so no command imports numpy
    through cli.py itself, even inside a function."""
    assert "numpy" not in (PACKAGE / "cli.py").read_text()



def test_dc_quadrature_without_the_integrate_package():
    """The 1/f DC quadrature calls QUADPACK's qagse through asymptotic._qagse,
    never through the scipy.integrate package or its quad wrapper."""
    assert occurrences(r"integrate\.quad|from scipy import integrate") == {}


MODULES = ("asymptotic", "ensemble", "errors", "model", "patterns", "spectral")


def test_package_reexports_every_public_name():
    """A module's __all__ is the one list of its public names (errors.py
    defines only public classes and has none); the package re-exports each
    name as the same object."""
    for module_name in MODULES:
        module = importlib.import_module(f"apmi.{module_name}")
        public = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
        for name in public:
            assert getattr(apmi, name, None) is getattr(module, name), f"{module_name}.{name}"


def test_package_init_imports_no_name_explicitly():
    """apmi/__init__.py re-exports lazily from its module table: it imports
    no module of the package and lists no public name itself.  Each module
    in the table comes after the package modules it imports."""
    source = (PACKAGE / "__init__.py").read_text()
    imports = re.findall(r"(?m)^(?:from|import)\b.*$", source)
    assert imports == ["from importlib import import_module"]
    assert sorted(apmi._MODULES) == sorted(MODULES)
    words = {node.id if isinstance(node, ast.Name) else node.value
             for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.Name, ast.Constant))}
    assert not words & set(apmi.__all__)
    for i, name in enumerate(apmi._MODULES):
        imported = re.findall(r"(?m)^from \.(\w+) import", (PACKAGE / f"{name}.py").read_text())
        assert set(imported) <= set(apmi._MODULES[:i]), name


def test_star_import_and_dir_cover_every_public_name():
    """`from apmi import *` and dir(apmi) give every module's public names."""
    namespace = {}
    exec("from apmi import *", namespace)
    listed = dir(apmi)
    for module_name in MODULES:
        module = importlib.import_module(f"apmi.{module_name}")
        public = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
        for name in public:
            assert namespace.get(name) is getattr(module, name), f"{module_name}.{name}"
            assert name in listed, f"{module_name}.{name}"


def test_two_error_families():
    """Every package error is an InvalidArgumentError (CLI exit 2) or a
    NumericalError (exit 3), and cli.main catches no other package class."""
    families = (errors.InvalidArgumentError, errors.NumericalError)
    assert issubclass(errors.DegenerateNoiseError, errors.InvalidArgumentError)
    assert issubclass(errors.FlatnessCheckError, errors.NumericalError)
    for cls in vars(errors).values():
        if isinstance(cls, type) and cls not in (errors.ApmiError, *families):
            assert sum(issubclass(cls, family) for family in families) == 1, cls
    caught = re.findall(r"except \(?([\w, ]+?)\)? as", inspect.getsource(cli.main))
    assert caught == ["SystemExit", "InvalidArgumentError, OSError, MemoryError",
                      "NumericalError"]
