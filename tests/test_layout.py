"""Each concept is computed in one place: guards against the copies that the
package once had (several FFT -> log1p sums, several nats-to-bits
conversions, two odd-n reducers) growing back."""

import inspect
import re
from pathlib import Path

import apmi
from apmi import asymptotic, cli, model

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


def test_one_log_base_conversion():
    assert occurrences(r"/\s*LN2\b") == {"model.py": 1}
    assert re.search(r"/\s*LN2\b", inspect.getsource(model.to_log_base))
    # no other module holds its own ln 2 either
    assert set(occurrences(r"\bLN2\b")) == {"model.py"}
    assert occurrences(r"log\(2") == {"model.py": 1}


def test_one_odd_n_reducer():
    assert occurrences("odd-n formula") == {"model.py": 1}


def test_one_predictor_registry():
    """asymptotic.PREDICTORS is the one predictor dispatch: the CLI and the
    ensemble call no predict_* function and import none."""
    assert occurrences(r"(?m)^PREDICTORS = ") == {"asymptotic.py": 1}
    calls = occurrences(r"\bpredict_\w+")
    assert "cli.py" not in calls and "ensemble.py" not in calls, calls
    assert occurrences("_matching_prediction") == {}
    assert cli.PREDICTORS is asymptotic.PREDICTORS
