"""Command-line interface: exit codes, output schema, reproducibility."""

import csv
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apmi
from apmi import FlatnessCheckError, NumericalError
from apmi.cli import CSV_HEADER, main
import apmi.cli as cli_module


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*argv, timeout=60):
    """Run the CLI in a fresh interpreter, killed after `timeout` seconds;
    run_subprocess("-c", code) runs Python code there instead."""
    src = str(Path(apmi.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = argv if argv[:1] == ("-c",) else ("-m", "apmi.cli", *argv)
    return subprocess.run([sys.executable, *command], env=env,
                          capture_output=True, text=True, timeout=timeout)


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def read_csv(path):
    with open(path, newline="") as fh:
        header_line = fh.readline().rstrip("\n")
        fh.seek(0)
        return header_line, list(csv.DictReader(fh))


class TestGenerate:
    def test_mls_degree8(self, capsys, tmp_path):
        base = tmp_path / "mask"
        code, out, err = run(capsys, "generate", "--family", "mls",
                             "--degree", "8", "--out", str(base))
        assert code == 0
        lines = (tmp_path / "mask.txt").read_text().splitlines()
        assert len(lines) == 255
        desc = json.loads((tmp_path / "mask.json").read_text())
        assert desc["rho"] == pytest.approx(128 / 255)
        assert (tmp_path / "mask.manifest.json").exists()

    def test_mura_bad_n_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "generate", "--family", "mura",
                             "--n", "6", "--out", str(tmp_path / "m"))
        assert code == 2
        assert "4d+1" in err

    def test_bernoulli_deterministic(self, capsys, tmp_path):
        argv = ["generate", "--family", "bernoulli", "--n", "250",
                "--p", "0.5", "--seed", "7"]
        run(capsys, *argv, "--out", str(tmp_path / "a"))
        run(capsys, *argv, "--out", str(tmp_path / "b"))
        assert ((tmp_path / "a.txt").read_text()
                == (tmp_path / "b.txt").read_text())

    @pytest.mark.parametrize("argv, expected", [
        (("--family", "bernoulli", "--p", "0.5"), lambda: apmi.gen_bernoulli(16, 0.5, 7)),
        (("--family", "uniform"), lambda: apmi.gen_uniform(16, 7)),
    ])
    def test_seed_is_a_parameter_not_a_master_seed(self, capsys, tmp_path, argv, expected):
        """A generated pattern is drawn from a generator seeded with --seed
        itself, so its manifest names no master seed and no trial-seed policy."""
        code, _, _ = run(capsys, "generate", *argv, "--n", "16", "--seed", "7",
                         "--out", str(tmp_path / "a"))
        assert code == 0
        manifest = json.loads((tmp_path / "a.manifest.json").read_text())
        assert manifest["parameters"]["seed"] == 7
        assert manifest["master_seed"] is None and "seed_policy" not in manifest
        loaded = apmi.load_pattern(str(tmp_path / "a.txt"))
        assert loaded.values.tolist() == expected().values.tolist()

    def test_missing_parameter_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--family", "mls",
                           "--out", str(tmp_path / "m"))
        assert code == 2

    @pytest.mark.parametrize("blocked", ["x.txt", "x.json", "x.manifest.json"])
    def test_failed_write_leaves_no_partial_output(self, capsys, tmp_path, blocked):
        """A directory where one of the three files should go fails the run,
        and neither the other files nor a temporary is left behind."""
        (tmp_path / blocked).mkdir()
        code, out, err = run(capsys, "generate", "--family", "mls", "--degree", "4",
                             "--out", str(tmp_path / "x"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == [blocked]


class TestMi:
    def test_pinhole_ln2(self, capsys):
        code, out, _ = run(capsys, "mi", "--family", "pinhole", "--n", "4",
                           "--W", "0", "--J", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["per_pixel"] == pytest.approx(math.log(2), rel=1e-11)
        # floats are emitted with 12 significant digits
        assert "0.69314718056" in out

    def test_db_flag_equivalence(self, capsys):
        _, linear, _ = run(capsys, "mi", "--family", "mls", "--degree", "5",
                           "--W", "0.01")
        _, db, _ = run(capsys, "mi", "--family", "mls", "--degree", "5",
                       "--W-db", "-20")
        assert linear == db

    def test_bits(self, capsys):
        _, nats_out, _ = run(capsys, "mi", "--family", "pinhole", "--n", "4",
                             "--W", "0")
        _, bits_out, _ = run(capsys, "mi", "--family", "pinhole", "--n", "4",
                             "--W", "0", "--log-base", "bits")
        nats, bits = json.loads(nats_out), json.loads(bits_out)
        for key in ("per_pixel", "total", "per_pixel_excl_dc"):
            assert bits[key] == pytest.approx(nats[key] / math.log(2), rel=1e-11), key
        assert bits["log_base"] == "bits"

    def test_pattern_file_round_trip(self, capsys, tmp_path):
        base = tmp_path / "m"
        run(capsys, "generate", "--family", "mls", "--degree", "4",
            "--out", str(base))
        code, out, _ = run(capsys, "mi", "--pattern-file", str(base) + ".txt",
                           "--W", "0.01")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "mls"
        assert payload["n"] == 15
        assert "per_pixel_excl_dc" in payload

    def test_mls20_pattern_file_matches_family(self, capsys, tmp_path):
        """A full-size 0/1 mask read back from its file gives the same stdout
        as the mask generated in place."""
        base = str(tmp_path / "mls20")
        assert run(capsys, "generate", "--family", "mls", "--degree", "20",
                   "--out", base)[0] == 0
        code, from_file, _ = run(capsys, "mi", "--pattern-file", base + ".txt",
                                 "--prior", "1f", "--W", "0.01")
        _, in_place, _ = run(capsys, "mi", "--family", "mls", "--degree", "20",
                             "--prior", "1f", "--W", "0.01")
        assert code == 0
        assert from_file == in_place

    def test_file_and_family_conflict(self, capsys, tmp_path):
        code, _, err = run(capsys, "mi", "--pattern-file", "x.txt",
                           "--family", "pinhole", "--n", "4", "--W", "0.01")
        assert code == 2
        assert "not both" in err

    def test_missing_pattern_file(self, capsys):
        code, _, err = run(capsys, "mi", "--pattern-file",
                           "/nonexistent/mask.txt", "--W", "0.01")
        assert code == 2

    def test_garbage_pattern_file(self, capsys, tmp_path):
        """A non-numeric mask line is a usage error, not a traceback."""
        path = tmp_path / "garbage.txt"
        path.write_text("0.5\nabc\n0.25\n")
        code, _, err = run(capsys, "mi", "--pattern-file", str(path),
                           "--W", "0.01", "--J", "1")
        assert code == 2
        assert err.startswith("error:") and "not a number" in err

    def test_non_utf8_pattern_file(self, capsys, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "mi", "--pattern-file", str(path), "--W", "0.01")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "can't decode" in err

    @pytest.mark.parametrize("descriptor", ["[]", '"x"', '{"metadata": [1]}'])
    def test_non_object_descriptor(self, capsys, tmp_path, descriptor):
        """A descriptor that is not a JSON object, or whose metadata is not
        one, is a usage error, not a traceback."""
        (tmp_path / "m.txt").write_text("1\n0\n1\n")
        (tmp_path / "m.json").write_text(descriptor)
        code, out, err = run(capsys, "mi", "--pattern-file", str(tmp_path / "m.txt"),
                             "--W", "0.1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "m.json: bad descriptor: " in err

    @pytest.mark.parametrize("descriptor", [
        '{"seed": [1, 2], "n": 7, "metadata": {"a": NaN}}', '{"seed": "abc"}',
        '{"seed": -3}', '{"n": 7}', '{"metadata": {"a": 1e999}}'])
    def test_bad_descriptor_value(self, capsys, tmp_path, descriptor):
        """A descriptor value that save_pattern could not write back, or that
        contradicts the mask file, is a usage error."""
        (tmp_path / "m.txt").write_text("0\n1\n1\n")
        (tmp_path / "m.json").write_text(descriptor)
        code, out, err = run(capsys, "mi", "--pattern-file", str(tmp_path / "m.txt"),
                             "--W", "0.1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "m.json: bad descriptor: " in err

    def test_zero_one_family_on_gray_row(self, capsys, tmp_path):
        """A descriptor naming a 0/1 family beside a gray row is a usage error."""
        (tmp_path / "m.txt").write_text("0.5\n0.5\n0.5\n")
        (tmp_path / "m.json").write_text('{"family": "mls"}')
        code, out, err = run(capsys, "mi", "--pattern-file", str(tmp_path / "m.txt"),
                             "--W", "0.1")
        assert code == 2 and out == ""
        assert err == ("error: " + str(tmp_path / "m.json") + ": bad descriptor: "
                       "family 'mls' needs a row of only 0s and 1s\n")

    @pytest.mark.parametrize("descriptor", [None, '{"family": "bernoulli"}'])
    @pytest.mark.parametrize("entry, message", [
        ("2", "pattern entries must lie in [0, 1]"), ("nan", "pattern entries must be finite")])
    def test_bad_row_names_its_file(self, capsys, tmp_path, descriptor, entry, message):
        """A row entry that no pattern may hold is a usage error naming the mask
        file, whether or not a descriptor labels the row."""
        (tmp_path / "m.txt").write_text(f"0\n{entry}\n1\n")
        if descriptor is not None:
            (tmp_path / "m.json").write_text(descriptor)
        code, out, err = run(capsys, "mi", "--pattern-file", str(tmp_path / "m.txt"),
                             "--W", "0.1")
        assert code == 2 and out == ""
        assert err == f"error: {tmp_path / 'm.txt'}: {message}\n"

    def test_noise_flag_rules(self, capsys):
        code, _, err = run(capsys, "mi", "--family", "pinhole", "--n", "4",
                           "--W", "0.01", "--W-db", "-20")
        assert code == 2 and "not both" in err
        code, _, err = run(capsys, "mi", "--family", "pinhole", "--n", "4")
        assert code == 2 and "required" in err

    def test_w_db_overflow_exits_2(self, capsys):
        code, out, err = run(capsys, "mi", "--family", "pinhole", "--n", "4",
                             "--W-db", "4000")
        assert code == 2 and out == ""
        assert err == "error: 4000.0 dB has no finite linear value\n"


class TestPredict:
    def test_flat_iid(self, capsys):
        code, out, _ = run(capsys, "predict", "flat-iid", "--W", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(math.log(1.5), rel=1e-11)
        assert payload["method"] == "closed_form"
        assert "0.405465108108" in out

    def test_bernoulli_iid(self, capsys):
        code, out, _ = run(capsys, "predict", "bernoulli-iid",
                           "--p", "0.5", "--W", "0")
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.361328616888, abs=1e-9)
        assert payload["method"] == "quadrature"
        assert payload["est_abs_error"] > 0

    def test_onef_parity_warning(self, capsys):
        code, out, err = run(capsys, "predict", "bernoulli-1f", "--n", "250",
                             "--p", "0.3", "--W", "0.01")
        assert code == 0
        assert "n reduced to 249 (odd-n formula)" in err
        assert json.loads(out)["n"] == 249

    @pytest.mark.parametrize("argv", [
        ("predict", "flat-1f", "--n", "250", "--W", "0.01"),
        ("optimize-p", "--prior", "1f", "--n", "250", "--W", "0.01"),
        ("sweep", "--prior", "1f", "--n", "250", "--trials", "2",
         "--p-grid", "0.3,0.5", "--W", "0.01"),
        ("reproduce", "fig3", "--n", "250", "--trials", "2", "--p-grid", "0.3,0.5"),
    ])
    def test_onef_parity_warning_is_one_line(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 0
        assert err.replace(f"wrote {tmp_path / 'out'}\n", "") == \
            "warning: n reduced to 249 (odd-n formula)\n"

    @pytest.mark.parametrize("argv", [
        ("predict", "flat-1f", "--n", "4", "--W", "0.01"),
        ("optimize-p", "--prior", "1f", "--n", "4", "--W", "0.01"),
        ("sweep", "--prior", "1f", "--n", "4", "--trials", "2",
         "--p-grid", "0.3,0.5", "--W", "0.01"),
        ("reproduce", "fig3", "--n", "4", "--trials", "2", "--p-grid", "0.3,0.5"),
    ])
    def test_onef_n_reduced_below_5_is_one_error_line(self, capsys, tmp_path, argv):
        """An even --n that the odd-n reduction takes below 5 is one error line, exit 2,
        naming the given n and the n it reduces to: no reduction warning before it, and
        nothing printed or written."""
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err == "error: --n 4 reduces to 3: the 1/f-prior formulas need odd n >= 5, got 3\n"
        assert list(tmp_path.iterdir()) == []

    def test_missing_p_exits_2(self, capsys):
        code, _, err = run(capsys, "predict", "bernoulli-1f", "--n", "250",
                           "--W", "0.01")
        assert code == 2
        assert "--p is required" in err
        # the parity warning must not fire before validation
        assert "n reduced" not in err

    def test_unknown_predictor(self, capsys):
        code, _, _ = run(capsys, "predict", "parabolic", "--W", "0")
        assert code == 2

    def test_blocked_manifest_leaves_no_output(self, capsys, tmp_path):
        """A result whose files cannot be written is not printed either."""
        (tmp_path / "pred.manifest.json").mkdir()
        code, out, err = run(capsys, "predict", "flat-iid", "--W", "0.01",
                             "--out", str(tmp_path / "pred.json"))
        assert code == 2 and out == "" and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["pred.manifest.json"]

    def test_out_file_with_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "pred.json"
        code, out, err = run(capsys, "predict", "flat-iid", "--W", "0",
                             "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text()) == json.loads(out)
        manifest = json.loads((tmp_path / "pred.manifest.json").read_text())
        assert manifest["command"] == "predict"
        assert "tool_version" in manifest and "timestamp" in manifest


class TestOptimizeP:
    def test_iid_frozen(self, capsys):
        _, out, _ = run(capsys, "optimize-p", "--W", "1", "--J", "1")
        assert json.loads(out)["p_star"] == pytest.approx(
            math.sqrt(2) - 1, rel=1e-11)
        _, out, _ = run(capsys, "optimize-p", "--W", "0.01", "--J", "1")
        assert "0.0904987562112" in out

    def test_iid_thermal_limit(self, capsys):
        """J/W = 1e-17 is below float resolution: p* is 1/2, not 0."""
        code, out, _ = run(capsys, "optimize-p", "--W", "1", "--J", "1e-17")
        assert code == 0
        payload = json.loads(out)
        assert payload["p_star"] == 0.5 and payload["predicted_mi"] > 0

    def test_onef(self, capsys):
        code, out, _ = run(capsys, "optimize-p", "--prior", "1f",
                           "--n", "251", "--W", "0.01", "--J", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["p_star"] == pytest.approx(0.18709, abs=1e-3)
        assert payload["predicted_mi"] > 0

    def test_onef_needs_n(self, capsys):
        code, _, err = run(capsys, "optimize-p", "--prior", "1f",
                           "--W", "0.01")
        assert code == 2
        assert "--n is required" in err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tol_exits_2(self, tol):
        proc = run_subprocess("optimize-p", "--prior", "1f", "--n", "101",
                              "--W", "0.01", "--tol", tol)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: tol must be finite and positive, got {float(tol)}\n"

    def test_tol_below_float_resolution_returns(self):
        proc = run_subprocess("optimize-p", "--prior", "1f", "--n", "101",
                              "--W", "0.01", "--tol", "1e-300")
        assert proc.returncode == 0, proc.stderr
        payload = strict_json(proc.stdout)
        assert payload["tol"] == 1e-300
        assert 0.005 < payload["p_star"] < 0.995


class TestSweep:
    def test_csv_schema_and_determinism(self, capsys, tmp_path):
        argv = ["sweep", "--n", "64", "--trials", "6", "--W", "0.01",
                "--p-grid", "0.3,0.5", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code, out, _ = run(capsys, *argv, "--out", str(a))
        assert code == 0
        assert "rows: 2" in out
        run(capsys, *argv, "--out", str(b))
        header, rows = read_csv(a)
        assert header == CSV_HEADER
        assert a.read_text() == b.read_text()
        assert [r["p"] for r in rows] == ["0.3", "0.5"]
        assert rows[0]["n"] == "64"
        assert rows[0]["prior"] == "iid"
        assert float(rows[0]["mi_mean"]) > 0
        manifest = json.loads((tmp_path / "a.manifest.json").read_text())
        assert manifest["master_seed"] == 9
        assert manifest["seed_policy"].startswith("numpy.random.SeedSequence")
        assert manifest["parameters"]["p_grid"] == [0.3, 0.5]

    def test_colon_grid(self, capsys, tmp_path):
        out_csv = tmp_path / "g.csv"
        code, out, _ = run(capsys, "sweep", "--n", "32", "--trials", "4",
                           "--W", "1", "--p-grid", "0.5:0.9:0.2",
                           "--out", str(out_csv))
        assert code == 0
        _, rows = read_csv(out_csv)
        assert [r["p"] for r in rows] == ["0.5", "0.7", "0.9"]

    def test_bad_grid_value(self, capsys, tmp_path):
        """Every grid p lies in the open interval (0, 1), by check_real's rule."""
        for grid, bad in (("0.5,1.5", "1.5"), ("0,0.5", "0.0"), ("0.5,1", "1.0")):
            code, _, err = run(capsys, "sweep", "--n", "32", "--trials", "4",
                               "--W", "1", "--p-grid", grid,
                               "--out", str(tmp_path / "x.csv"))
            assert code == 2
            assert err == f"error: grid p must be finite and in (0, 1), got {bad}\n"
            assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("grid", ["0.1:0.9:1e-12", "0.1:inf:0.1"])
    def test_oversized_grid_rejected(self, capsys, tmp_path, grid):
        code, out, err = run(capsys, "sweep", "--n", "32", "--trials", "4",
                             "--W", "1", "--p-grid", grid,
                             "--out", str(tmp_path / "x.csv"))
        assert code == 2 and out == ""
        assert err == (f"error: grid {grid!r} has more than "
                       f"{cli_module.MAX_GRID_POINTS} points\n")
        assert not (tmp_path / "x.csv").exists()
        assert len(cli_module._parse_p_grid("0.05:0.95:0.05")) == 19

    def test_empty_grid_rejected(self, capsys, tmp_path):
        """An explicitly empty grid (e.g. unset shell var), a range that
        stops below its start, or a list of no values is a usage error."""
        for grid in ("", "0.9:0.1:0.1", ","):
            code, _, err = run(capsys, "sweep", "--n", "32", "--trials", "4",
                               "--W", "1", "--p-grid", grid,
                               "--out", str(tmp_path / "x.csv"))
            assert code == 2 and "empty p grid" in err
            assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("grid", ["a:b:c", "0.5,x"])
    def test_non_numeric_grid_rejected(self, capsys, tmp_path, grid):
        code, _, err = run(capsys, "sweep", "--n", "32", "--trials", "4",
                           "--W", "1", "--p-grid", grid,
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert err == f"error: grid values must be numbers, got {grid!r}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_onef_even_n_reduced(self, capsys, tmp_path):
        out_csv = tmp_path / "f.csv"
        code, _, err = run(capsys, "sweep", "--prior", "1f", "--n", "250",
                           "--trials", "2", "--W", "0.01", "--p-grid", "0.5",
                           "--out", str(out_csv))
        assert code == 0
        assert "n reduced to 249 (odd-n formula)" in err
        _, rows = read_csv(out_csv)
        assert rows[0]["n"] == "249"
        manifest = json.loads((tmp_path / "f.manifest.json").read_text())
        assert manifest["parameters"]["n"] == 249
        assert manifest["parameters"]["n_requested"] == 250

    @pytest.mark.parametrize("prior", ["iid", "1f"])
    def test_bits(self, capsys, tmp_path, prior):
        """--log-base bits divides each MI column by ln 2 and prints the
        relative gap, which has no unit, exactly as the nats run does."""
        # at seed 17 a gap taken from values already in bits (IID, p=0.2)
        # differs from the nats gap in its 12th printed digit
        argv = ["sweep", "--prior", prior, "--n", "63", "--trials", "20",
                "--W", "0.01", "--p-grid", "0.2,0.5", "--seed", "17"]
        rows = {}
        for base in ("nats", "bits"):
            out_csv = tmp_path / f"{base}.csv"
            assert run(capsys, *argv, "--log-base", base, "--out", str(out_csv))[0] == 0
            rows[base] = read_csv(out_csv)[1]
        assert len(rows["nats"]) == len(rows["bits"]) == 2
        for nats, bits in zip(rows["nats"], rows["bits"]):
            for key in ("mi_mean", "mi_std", "mi_stderr", "mi_predicted"):
                assert float(bits[key]) == pytest.approx(
                    float(nats[key]) / math.log(2), rel=1e-11), key
            assert bits["relative_gap"] == nats["relative_gap"]
            assert (nats["log_base"], bits["log_base"]) == ("nats", "bits")
        manifest = json.loads((tmp_path / "bits.manifest.json").read_text())
        assert manifest["parameters"]["log_base"] == "bits"

    def test_worker_env_default(self, capsys, tmp_path, monkeypatch):
        serial = tmp_path / "serial.csv"
        run(capsys, "sweep", "--n", "32", "--trials", "16", "--W", "1",
            "--p-grid", "0.5", "--seed", "3", "--out", str(serial))
        monkeypatch.setenv("APMI_WORKERS", "2")
        pooled = tmp_path / "pooled.csv"
        code, _, _ = run(capsys, "sweep", "--n", "32", "--trials", "16",
                         "--W", "1", "--p-grid", "0.5", "--seed", "3",
                         "--out", str(pooled))
        assert code == 0
        manifest = json.loads((tmp_path / "pooled.manifest.json").read_text())
        assert manifest["parameters"]["workers"] == 2
        assert serial.read_text() == pooled.read_text()

    @pytest.mark.parametrize("argv", [
        ("predict", "flat-iid", "--W", "0.01"),
        ("mi", "--family", "pinhole", "--n", "4", "--W", "1"),
    ])
    def test_bad_worker_env_ignored_without_ensemble(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("APMI_WORKERS", "x")
        code, _, _ = run(capsys, *argv)
        assert code == 0

    def test_bad_worker_env_rejected_by_sweep(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("APMI_WORKERS", "x")
        code, _, err = run(capsys, "sweep", "--n", "32", "--trials", "4",
                           "--W", "1", "--p-grid", "0.5",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "APMI_WORKERS must be an integer" in err
        assert not (tmp_path / "x.csv").exists()


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("W = 0.5\nJ = 2.0\n# comment\n")
        code, out, _ = run(capsys, "mi", "--config", str(cfg),
                           "--family", "pinhole", "--n", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["W"] == 0.5
        assert payload["J"] == 2.0

    def test_explicit_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("W = 0.5\n")
        _, out, _ = run(capsys, "mi", "--config", str(cfg),
                        "--family", "pinhole", "--n", "4", "--W", "0.01")
        assert json.loads(out)["W"] == 0.01

    @pytest.mark.parametrize("flag, value, W", [("--W", "0.25", 0.25), ("--W-db", "-20", 0.01)])
    @pytest.mark.parametrize("key", ["W = 0.5", "W-db = -3"])
    def test_flag_under_either_w_spelling_wins(self, capsys, tmp_path, key, flag, value, W):
        """--W and --W-db set one value, so a flag under either spelling
        overrides a config key under either spelling."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(key + "\n")
        code, _, err = run(capsys, "mi", "--family", "pinhole", "--n", "5", flag, value,
                           "--config", str(cfg), "--out", str(tmp_path / "mi.json"))
        assert code == 0, err
        manifest = json.loads((tmp_path / "mi.manifest.json").read_text())
        assert manifest["parameters"]["W"] == W

    def test_both_w_keys_without_a_flag_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("W = 0.5\nW-db = -3\n")
        code, out, err = run(capsys, "mi", "--family", "pinhole", "--n", "5",
                             "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: give either --W or --W-db, not both\n")

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("zoom = 3\n")
        code, _, _ = run(capsys, "mi", "--config", str(cfg),
                         "--family", "pinhole", "--n", "4", "--W", "1")
        assert code == 2

    def test_non_utf8_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"W = 0.5\n\xff\xfe = 1\n")
        code, out, err = run(capsys, "mi", "--config", str(cfg),
                             "--family", "pinhole", "--n", "4")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, config", [
        (("predict", "flat-iid", "--W", "0.01"), "h = 1\n"),
        (("predict", "flat-iid", "--W", "0.01"), "help = x\n"),
        (("predict", "flat-iid", "--W", "0.01"), "config = other.cfg\n"),
        (("sweep", "--n", "8", "--p-grid", "0.5", "--W", "0.01", "--workers", "1"),
         "tri = 3\n"),
        (("sweep", "--n", "8", "--p-grid", "0.5", "--W", "0.01", "--workers", "1",
          "--tri", "3"), ""),
    ], ids=["h", "help", "config", "tri", "--tri"])
    def test_options_and_keys_spelled_in_full(self, capsys, tmp_path, argv, config):
        """No prefix of an option is read as the option, from a config line or
        the command line, and a config file cannot ask for --help or name a
        second config file: each is exit 2 with nothing printed or written."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out" / "x.csv"),
                             "--config", str(cfg))
        assert code == 2 and out == ""
        assert not (tmp_path / "out").exists()
        key = config.partition(" ")[0]
        if key in ("help", "config"):
            assert err == f"error: {cfg}: {key!r} cannot be set in a config file\n"

    def test_missing_config_file(self, capsys):
        code, _, _ = run(capsys, "mi", "--config", "/nonexistent.cfg",
                         "--family", "pinhole", "--n", "4", "--W", "1")
        assert code == 2


class TestReproduce:
    def test_fig2_orderings(self, capsys, tmp_path):
        out_csv = tmp_path / "fig2.csv"
        code, _, _ = run(capsys, "reproduce", "fig2", "--points", "5",
                         "--out", str(out_csv))
        assert code == 0
        header, rows = read_csv(out_csv)
        assert header == CSV_HEADER
        assert len(rows) == 15
        by_w = {}
        for r in rows:
            by_w.setdefault(r["W"], {})[r["family"]] = float(r["mi_predicted"])
        assert len(by_w) == 5
        for W, curves in by_w.items():
            assert curves["flat"] >= curves["bernoulli-half"]
            assert curves["bernoulli-pstar"] >= curves["bernoulli-half"] - 1e-15
        # strict separation where shot noise dominates
        smallest = min(by_w, key=float)
        gap = (by_w[smallest]["bernoulli-pstar"]
               - by_w[smallest]["bernoulli-half"])
        assert gap > 0.01
        manifest = json.loads((tmp_path / "fig2.manifest.json").read_text())
        assert len(manifest["parameters"]["W_grid"]) == 5

    @pytest.mark.parametrize("points", [25, 200, 1000])
    def test_fig2_w_grid_in_math(self, capsys, tmp_path, monkeypatch, points):
        """fig2 predicts at W = math.pow(10, y) over numpy.linspace(-3, 3, points),
        bit for bit, so its grid does not hang on numpy's SIMD power kernel."""
        import numpy as np
        seen = []
        predict = cli_module.predict
        monkeypatch.setattr(cli_module, "predict",
                            lambda which, **kw: seen.append(kw["W"]) or predict(which, **kw))
        assert run(capsys, "reproduce", "fig2", "--points", str(points),
                   "--out", str(tmp_path / "fig2.csv"))[0] == 0
        exponents = np.linspace(-3.0, 3.0, points).tolist()
        assert [w.hex() for w in seen[::3]] == [math.pow(10.0, y).hex() for y in exponents]
        assert seen[1::3] == seen[::3] == seen[2::3]

    def test_fig3_smoke(self, capsys, tmp_path):
        out_csv = tmp_path / "fig3.csv"
        code, _, err = run(capsys, "reproduce", "fig3", "--n", "64",
                           "--trials", "4", "--p-grid", "0.3",
                           "--out", str(out_csv))
        assert code == 0
        assert "n reduced to 63" in err
        manifest = json.loads((tmp_path / "fig3.manifest.json").read_text())
        assert manifest["command"] == "reproduce fig3"
        assert manifest["parameters"]["W"] == 0.01  # figure default

    def test_selftest_passes(self, capsys):
        code, out, _ = run(capsys, "reproduce", "selftest")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_selftest_checks_survive_optimize_flag(self):
        """The checks raise explicitly, so `python -O` (which strips assert
        statements) still runs every one of them."""
        src = str(Path(apmi.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-O", "-m", "apmi.cli", "reproduce", "selftest"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        names = ["model basics (weights, gamma, dB)",
                 "MLS and MURA theorem spectra vs the FFT, degrees 3..10",
                 "pinhole spectrum",
                 "pinhole MI identity",
                 "pinhole beats MLS at W=1e-3, loses at W=1e-2",
                 "exponential-expectation kernel",
                 "p* stationarity and 0.01-grid dominance",
                 "flat predictor beats Bernoulli(1/2)",
                 "1/f p* above 1/2, nearing it as thermal noise falls",
                 "Jensen bound and Frobenius identity",
                 "ensemble determinism across workers",
                 "exact MI against the dense log det"]
        assert proc.stdout.splitlines() == (
            [f"ok    {name}" for name in names] + ["selftest: 12/12 checks passed"])

    def test_fig2_points_bounded(self, tmp_path):
        out_csv = tmp_path / "fig2.csv"
        proc = run_subprocess("reproduce", "fig2", "--points", "3000000",
                              "--out", str(out_csv))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (f"error: --points must be <= "
                               f"{cli_module.MAX_GRID_POINTS}, got 3000000\n")
        assert not out_csv.exists()


@pytest.mark.parametrize("argv", [
    ("mi", "--family", "bernoulli", "--n", "8", "--p", "0.5", "--W", "1"),
    ("mi", "--family", "uniform", "--n", "8", "--W", "1"),
    ("generate", "--family", "bernoulli", "--n", "8", "--p", "0.5"),
    ("generate", "--family", "uniform", "--n", "8"),
    ("sweep", "--n", "8", "--trials", "2", "--p-grid", "0.5", "--W", "1"),
    ("reproduce", "fig3", "--n", "8", "--trials", "2", "--p-grid", "0.5"),
])
def test_negative_seed_exits_2(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1", "--out", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "got -1" in err
    assert list(tmp_path.iterdir()) == []


def _work_ran(*_args, **_kwargs):
    raise AssertionError("the command did its work before --out was checked")


@pytest.mark.parametrize("out", ["", ".", "..", "sub/", "sub/."])
@pytest.mark.parametrize("argv", [
    ("sweep", "--n", "8", "--trials", "2", "--p-grid", "0.5", "--W", "1"),
    ("generate", "--family", "mls", "--degree", "3"),
    ("mi", "--family", "mls", "--degree", "20", "--W", "0.01"),
    ("predict", "flat-iid", "--W", "0.01"),
    ("optimize-p", "--W", "0.01"),
    ("reproduce", "fig2"),
    ("reproduce", "fig3"),
])
def test_out_without_file_name_rejected(capsys, tmp_path, monkeypatch, argv, out):
    """Every command that writes rejects such an --out with one error line,
    nothing printed and nothing written, before it generates, predicts,
    optimizes or runs an ensemble (each of which would raise here)."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    for target in ("apmi.patterns.gen_mls", "apmi.asymptotic.predict_flat_iid",
                   "apmi.cli.optimal_p_iid", "apmi.ensemble.sweep_p"):
        monkeypatch.setattr(target, _work_ran)
    code, stdout, err = run(capsys, *argv, "--out", out)
    assert code == 2 and stdout == ""
    assert err == f"error: --out must name a file, got {out!r}\n"
    assert list(tmp_path.iterdir()) == [run_dir] and list(run_dir.iterdir()) == []


def test_manifest_named_after_the_first_output(capsys, tmp_path):
    """One rule names every manifest: the first output's path with its
    suffix replaced, so a dotted generate base keeps its dots."""
    def written(*argv):
        out_dir = tmp_path / argv[0]
        assert run(capsys, *argv[1:], "--out", str(out_dir / argv[0]))[0] == 0
        return sorted(path.name for path in out_dir.iterdir())

    assert written("run.v2", "generate", "--family", "mls", "--degree", "3") == [
        "run.v2.json", "run.v2.manifest.json", "run.v2.txt"]
    assert written("x.json", "predict", "flat-iid", "--W", "0.01") == [
        "x.json", "x.manifest.json"]
    assert written("result", "optimize-p", "--W", "0.01") == ["result", "result.manifest.json"]
    assert written("s.v1.csv", "sweep", "--n", "8", "--trials", "2", "--p-grid", "0.5",
                   "--W", "0.01", "--workers", "1") == ["s.v1.csv", "s.v1.manifest.json"]
    _, stdout, _ = run(capsys, "reproduce", "fig2", "--points", "2",
                       "--out", str(tmp_path / "f.csv"))
    assert stdout.endswith(f"manifest: {tmp_path / 'f.manifest.json'}\n")


@pytest.mark.parametrize("trials", ["4", "8"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_zero_noise_trial_exits_2(capsys, tmp_path, workers, trials):
    """The first zero-noise trial of the first p that has one is reported,
    whether or not a pool ran the trials (8 trials at 2 workers use one)."""
    code, out, err = run(capsys, "sweep", "--n", "8", "--trials", trials,
                         "--p-grid", "0.5,0.01", "--W", "0", "--J", "1",
                         "--workers", workers, "--out", str(tmp_path / "z.csv"))
    assert code == 2 and out == ""
    assert err == ("error: trial 0: W + rho*J is zero (rho=0.0); "
                   "supply W > 0 or a family with rho*J > 0\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("mi", "--family", "mls", "--degree", "5"),
    ("sweep", "--n", "8", "--trials", "4", "--p-grid", "0.5,0.2"),
    ("predict", "bernoulli-iid", "--p", "0.3"),
])
def test_noise_without_finite_inverse_exits_2(capsys, tmp_path, argv):
    """W + rho*J = 5e-321 is nonzero, but 1/(W + rho*J) overflows: it is
    rejected like zero noise, with one line and no numpy warnings."""
    code, out, err = run(capsys, *argv, "--W", "0", "--J", "1e-320",
                         "--out", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "too small to invert" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, what", [
    (("mi", "--family", "pinhole", "--n", "3"), "W + rho*J"),
    (("predict", "flat-iid"), "W + J/2"),
])
def test_degenerate_noise_has_one_wording(capsys, argv, what):
    """The exact MI and the predictors reject a total noise power without a
    finite inverse in the same words."""
    code, out, err = run(capsys, *argv, "--W", "1e-320", "--J", "0")
    assert code == 2 and out == ""
    assert err == f"error: {what} is 1e-320, too small to invert\n"


@pytest.mark.parametrize("argv", [
    ("mi", "--family", "mls", "--degree", "5", "--W", "1e-307", "--J", "0"),
    ("sweep", "--n", "31", "--trials", "4", "--p-grid", "0.5", "--W", "1e-307", "--J", "0",
     "--workers", "1"),
    ("sweep", "--n", "31", "--trials", "4", "--p-grid", "0.5", "--W", "1e-307", "--J", "0",
     "--workers", "2"),
    # 8 trials at 2 workers run in a process pool
    ("sweep", "--n", "31", "--trials", "8", "--p-grid", "0.5", "--W", "1e-307", "--J", "0",
     "--workers", "2"),
])
def test_non_finite_result_exits_2(tmp_path, argv):
    """1/(W + rho*J) = 1e307 is finite, but the MI overflows: no NaN or
    Infinity is printed or written, and no numpy warning reaches stderr,
    from the parent or from a pool worker."""
    proc = run_subprocess(*argv, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2 and proc.stdout == "", proc.stdout
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "not finite" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_flat_onef_infinite_dc_skips_the_bulk_sum(capsys, monkeypatch):
    """An infinite DC term makes the flat-1f total infinite whatever the bulk
    sum, so the bulk sum at this n and W is never started."""
    from apmi import asymptotic
    calls, bulk_sum = [], asymptotic._bulk_sum
    monkeypatch.setattr(asymptotic, "_bulk_sum", lambda *a: calls.append(a) or bulk_sum(*a))
    code, out, err = run(capsys, "predict", "flat-1f", "--n", "1000000001",
                         "--W", "1e-300", "--J", "0")
    assert (code, out, calls) == (2, "", [])
    assert err == "error: value not finite: the noise power is too small\n"


# mi --family mls over degrees, priors, W, J and log bases: 608 commands.
MLS_MI_GRID = [("mi", "--family", "mls", "--degree", str(degree), "--prior", prior, "--W", W,
                "--J", J, "--log-base", base)
               for degree in range(2, 21) for prior in ("iid", "1f")
               for W in ("1e-5", "0.01", "1", "100") for J in ("0", "1")
               for base in ("nats", "bits")]


def test_mls_mi_by_theorem_prints_the_fft_bytes(capsys, monkeypatch):
    """mi --family mls prints, byte for byte, what it printed from gen_mls's FFT
    spectrum (mi_sums at the same gamma: the row's mean has the theorem rho's bits)."""
    from apmi import gen_mls
    from apmi.model import spectral_weights
    from apmi.spectral import mi_sums, power_spectrum
    theorem = [run(capsys, *argv) for argv in MLS_MI_GRID]
    assert len(theorem) == 608 and {(code, err) for code, _, err in theorem} == {(0, "")}

    @functools.cache
    def row(n):
        pattern = gen_mls(n.bit_length())
        assert pattern.rho == (n + 1) / 2 / n
        return pattern

    monkeypatch.setattr(cli_module, "mls_mi_sums", lambda n, prior, g: mi_sums(
        power_spectrum(row(n).values), spectral_weights(prior, n), g))
    assert [run(capsys, *argv) for argv in MLS_MI_GRID] == theorem


@pytest.mark.parametrize("prior", ["iid", "1f"])
def test_generated_and_loaded_mura_print_the_same_bytes(capsys, tmp_path, prior):
    """mi --family mura and mi --pattern-file on its generated file take one
    theorem path and print the same bytes.  At n = 41233, W = 100, J = 0 the
    generated row's FFT spectrum printed per_pixel 0.00260953793097, the
    theorem ...098 (mpmath: 0.002609537930975)."""
    argv = ("--prior", prior, "--W", "100", "--J", "0")
    assert run(capsys, "generate", "--family", "mura", "--n", "41233",
               "--out", str(tmp_path / "mura"))[0] == 0
    loaded = run(capsys, "mi", "--pattern-file", str(tmp_path / "mura.txt"), *argv)
    assert loaded[0] == 0
    assert run(capsys, "mi", "--family", "mura", "--n", "41233", *argv) == loaded


def test_mls_mi_overflow_names_every_non_finite_value(capsys):
    """An overflowing DC term leaves the total and, taken from it, the DC-free
    value non-finite, as on the FFT path: one line, exit 2."""
    assert run(capsys, "mi", "--family", "mls", "--degree", "5", "--W", "1e-307", "--J", "0") == (
        2, "", "error: per_pixel, per_pixel_excl_dc, total not finite: "
               "the noise power is too small\n")


@pytest.mark.parametrize("prior", ["iid", "1f"])
def test_mls_mi_builds_no_row_and_makes_no_fft(capsys, monkeypatch, prior):
    """mi --family mls takes its MI from the theorem: it calls no generator and
    makes no FFT."""
    import numpy as np
    from apmi import patterns
    calls = []
    monkeypatch.setattr(np.fft, "fft", lambda *a, **k: calls.append("fft"))
    monkeypatch.setattr(patterns, "gen_mls", lambda *a: calls.append("gen_mls"))
    code, out, err = run(capsys, "mi", "--family", "mls", "--degree", "20", "--prior", prior,
                         "--W", "0.01")
    assert (code, err, calls) == (0, "", [])
    assert json.loads(out)["n"] == (1 << 20) - 1


@pytest.mark.parametrize("argv, W, J", [
    (("optimize-p", "--W", "1e-320", "--J", "1"), 1e-320, 1.0),
])
def test_optimal_p_overflow_names_w_and_j(capsys, tmp_path, argv, W, J):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err == f"error: the closed form of p* is not finite at W={W}, J={J}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("optimize-p", "--W", "0.01", "--J", "0"),
    ("optimize-p", "--W", "1e308", "--J", "1e-308"),
])
def test_optimize_p_thermal_limit_is_half(capsys, argv):
    """Without shot noise, or with J/W below float resolution, the IID p* is
    exactly 1/2, even where W/J overflows."""
    code, out, _ = run(capsys, *argv)
    assert code == 0 and strict_json(out)["p_star"] == 0.5


@pytest.mark.parametrize("J", ["0", "1e-320"])
def test_fig2_thermal_limit(capsys, tmp_path, J):
    """fig2's p* curve is 1/2 at every W when J is 0 or below float resolution of W."""
    out = tmp_path / "fig2.csv"
    code, _, _ = run(capsys, "reproduce", "fig2", "--points", "3", "--J", J, "--out", str(out))
    assert code == 0
    _, rows = read_csv(out)
    assert {row["p"] for row in rows if row["family"] == "bernoulli-pstar"} == {"0.5"}


def test_predictions_call_module_predictors(capsys, tmp_path, monkeypatch):
    """Every command's predictions go through asymptotic.PREDICTORS, which
    looks each function up in apmi.asymptotic when it runs: a patched
    predictor sees one call per prediction (the count a tracer reports)."""
    from apmi import asymptotic
    calls = []
    for name in ("predict_flat_iid", "predict_bernoulli_iid", "predict_bernoulli_onef"):
        original = getattr(asymptotic, name)
        monkeypatch.setattr(asymptotic, name,
                            lambda *a, f=original, name=name: calls.append(name) or f(*a))

    def count(*argv):
        calls.clear()
        assert run(capsys, *argv, "--out", str(tmp_path / "out"))[0] == 0
        return {name: calls.count(name) for name in set(calls)}

    assert count("reproduce", "fig2", "--points", "2") == {
        "predict_flat_iid": 2, "predict_bernoulli_iid": 4}
    assert count("optimize-p", "--W", "0.01") == {"predict_bernoulli_iid": 1}
    assert count("predict", "bernoulli-1f", "--n", "11", "--p", "0.3", "--W", "0.01") == {
        "predict_bernoulli_onef": 1}
    assert count("sweep", "--n", "8", "--trials", "2", "--p-grid", "0.2,0.5",
                 "--W", "0.01") == {"predict_bernoulli_iid": 2}
    assert count("reproduce", "fig3", "--n", "11", "--trials", "2",
                 "--p-grid", "0.2,0.5,0.7") == {"predict_bernoulli_onef": 3}


@pytest.mark.parametrize("argv, err", [
    (("sweep", "--prior", "1f", "--metric", "per_pixel", "--W", "0.01"),
     "error: the 1/f prior does not read --metric\n"),
    (("sweep", "--prior", "iid", "--metric", "total", "--W", "0.01"),
     "error: metric kind mismatch: ensemble 'total' vs prediction 'per_pixel'\n"),
])
def test_metric_mismatch_fails_before_any_trial(capsys, tmp_path, monkeypatch, argv, err):
    """A metric its predictor cannot pair with is rejected before the first
    trial is drawn: at the 1/f prior, whose one metric is total MI, --metric
    is not read; at the IID prior, with the message compare gives."""
    from apmi import ensemble
    evaluated = []
    monkeypatch.setattr(ensemble, "_eval_range", lambda *a: evaluated.append(a))
    code, out, stderr = run(capsys, *argv, "--out", str(tmp_path / "out.csv"))
    assert (code, out, stderr) == (2, "", err)
    assert evaluated == [] and list(tmp_path.iterdir()) == []


def test_cli_import_loads_no_scipy():
    """numpy and scipy are imported by the functions that need them, not at
    startup: importing the CLI loads no module of either."""
    proc = run_subprocess("-c", "import sys, apmi.cli; print(sorted(m for m in sys.modules "
                                "if m.split('.')[0] in ('numpy', 'scipy')))", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_scalar_layer_loads_no_numpy():
    """The scalar kernel on its series branch and the scalar noise checks
    run in math: in a fresh interpreter they load no numpy or scipy."""
    proc = run_subprocess("-c", "\n".join([
        "import sys",
        "from apmi.asymptotic import explog_exp1",
        "from apmi.model import NoiseModel, gamma, inverse_noise",
        "assert 0 < explog_exp1(1e-4) < 1e-4",
        "assert gamma(NoiseModel(0.01, 1.0), 0.5) == inverse_noise(0.01 + 0.5) > 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))",
    ]), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# What each cold command leaves loaded of the heavy layers, run in this order in
# one interpreter, so each row holds for the command run alone.  Only sweep,
# reproduce fig3 and reproduce selftest load the ensemble engine, the selftest
# battery and the process pool; only the commands that make arrays load numpy,
# and only those that reach scipy's E1 or the 1/f DC quadrature load scipy.  No
# command loads the scipy.integrate package: the DC quadrature loads QUADPACK's
# extension module alone.
COLD_LOADS = (
    ((), ()),  # import apmi.cli
    (("--help",), ()),
    (("--version",), ()),
    (("predict", "flat-iid", "--W", "0.01"), ()),
    (("predict", "pinhole", "--n", "5", "--W", "0.01"), ()),
    (("predict", "flat-1f", "--n", "101", "--W", "0.01", "--form", "closed"), ()),
    (("predict", "flat-iid", "--W", "0.01", "--out", "{tmp}/flat.json"), ()),
    (("predict", "flat-iid"), ()),  # an argument error
    (("mi", "--family", "mls", "--degree", "5", "--W", "0.01"), ()),
    (("mi", "--family", "mls", "--degree", "5", "--W", "0.01", "--prior", "1f"), ("numpy",)),
    (("predict", "bernoulli-1f", "--n", "11", "--p", "0.3", "--W", "0.01"), ("numpy", "scipy")),
    (("predict", "gaussian-1f", "--n", "101", "--rho-j", "0.5", "--W", "0.01"), ("numpy", "scipy")),
    (("optimize-p", "--prior", "1f", "--n", "1001", "--W", "0.01"), ("numpy", "scipy")),
)


def test_cold_commands_load_only_what_they_run(tmp_path):
    """Each command of COLD_LOADS loads just its row's heavy layers.  Importing
    the CLI builds no parser, and a package name loads only its own module's
    imports."""
    heavy = ("numpy", "scipy", "scipy.integrate", "apmi.ensemble", "apmi.checks",
             "multiprocessing", "concurrent.futures.process")
    code = "\n".join([
        "import contextlib, io, sys, apmi, apmi.cli as cli",
        f"loaded = lambda: [m for m in {heavy!r} if m in sys.modules]",
        "print(loaded(), cli._build_parser.cache_info().currsize)",
        f"for argv, _ in {COLD_LOADS[1:]!r}:",
        "    out = io.StringIO()",
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):",
        f"        cli.main([a.replace('{{tmp}}', {str(tmp_path)!r}) for a in argv])",
        "    print(loaded())",
        "assert apmi.predict is apmi.asymptotic.predict",
        "print(loaded())",
    ])
    proc = run_subprocess("-c", code, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[] 0"
    assert lines[1:-1] == [str(list(loads)) for _, loads in COLD_LOADS[1:]]
    assert lines[-1] == lines[-2]
    assert (tmp_path / "flat.json").exists()


@pytest.mark.parametrize("name", ["cli", "model"])
def test_from_apmi_import_loads_the_submodule_alone(name):
    """`from apmi import <submodule>` loads what `import apmi.<submodule>` loads,
    not every module of the package's re-export table first."""
    code = ("import sys; {}; print([m for m in sorted(sys.modules)"
            " if m.startswith('apmi') or m in ('numpy', 'scipy')])")
    procs = [run_subprocess("-c", code.format(statement))
             for statement in (f"from apmi import {name}", f"import apmi.{name}")]
    assert procs[0].returncode == 0, procs[0].stderr
    assert procs[0].stdout == procs[1].stdout


@pytest.mark.parametrize("first", ["loader", "scipy.integrate"])
def test_quadpack_loader_shares_one_module_with_scipy_integrate(first):
    """Loading QUADPACK's extension before scipy.integrate registers it, so the
    package imported later uses the same module; loading it after reuses the
    package's.  Either way quad works and gives the DC term's bits."""
    loader = ["qagse = asymptotic._qagse()",
              "dc = asymptotic._normal_expect_log(100.0, sd=1.0, mean=0.0)"]
    package = ["from scipy import integrate"]
    code = "\n".join([
        "import sys",
        "from apmi import asymptotic",
        *(loader + ["assert 'scipy.integrate' not in sys.modules"] + package
          if first == "loader" else package + loader),
        "module = sys.modules['scipy.integrate._quadpack']",
        "assert integrate._quadpack_py._quadpack is module is qagse.__self__",
        # the DC integrand at gamma = 100, sd = 1, mean = 0, as _normal_expect_log has it
        "import math",
        "norm = 1.0 / math.sqrt(2.0 * math.pi)",
        "f = lambda g: math.log1p(100.0 * (1.0 * g + 0.0) ** 2) * norm * math.exp(-0.5 * g * g)",
        "ref = integrate.quad(f, -10.0, 10.0, epsabs=1e-8, epsrel=1e-10, limit=200)",
        "assert [x.hex() for x in ref] == [x.hex() for x in dc], (ref, dc)",
    ])
    proc = run_subprocess("-c", code, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_quadpack_error_code_warns_once(capsys, monkeypatch):
    """A nonzero QUADPACK ier keeps the DC value and error and warns once, in
    one line naming the code; the CLI prints it as one warning line, exit 0."""
    from apmi import asymptotic
    argv = ("predict", "gaussian-1f", "--n", "101", "--rho-j", "0.5", "--W", "0.01")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    expected = asymptotic.predict_gaussian_onef(101, 0.01, 0.5)
    _, dc_err = asymptotic._normal_expect_log(1.0 / (0.01 + 0.5), sd=1.0, mean=0.0)
    qagse = asymptotic._qagse()
    monkeypatch.setattr(asymptotic, "_qagse", lambda: lambda *a: (*qagse(*a)[:2], 2))
    assert run(capsys, *argv) == (
        0, out, f"warning: DC quadrature: QUADPACK ier=2, error estimate {dc_err:.3g}\n")
    with pytest.warns(UserWarning) as caught:
        assert asymptotic.predict_gaussian_onef(101, 0.01, 0.5) == expected
    assert len(caught) == 1 and "ier=2" in str(caught[0].message)


def test_parser_keeps_no_state_between_calls(capsys):
    """main builds its parser once per process, and a call sees none of the
    options an earlier call gave."""
    code, out, _ = run(capsys, "predict", "flat-iid", "--W", "0.01", "--log-base", "bits")
    assert code == 0 and strict_json(out)["log_base"] == "bits"
    code, out, err = run(capsys, "predict", "flat-iid")
    assert (code, out, err) == (2, "", "error: one of --W or --W-db is required\n")
    code, out, _ = run(capsys, "predict", "flat-iid", "--W", "0.01")
    assert code == 0 and strict_json(out)["log_base"] == "nats"
    assert cli_module._build_parser() is cli_module._build_parser()


class TestExitCodes:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0

    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_numerical_failures_exit_3(self, capsys, monkeypatch):
        for exc in (FlatnessCheckError("bad spectrum"),
                    NumericalError("quadrature diverged")):
            monkeypatch.setattr(cli_module, "predict",
                                lambda *args, e=exc, **kwargs: (_ for _ in ()).throw(e))
            code, _, err = run(capsys, "predict", "flat-iid", "--W", "0")
            assert code == 3
            assert "error" in err


@pytest.mark.parametrize("variance", ["nan", "inf", "-inf"])
def test_uniform_iid_rejects_non_finite_bulk_variance(capsys, variance):
    code, out, err = run(capsys, "predict", "uniform-iid", "--W", "1",
                         f"--bulk-variance={variance}")
    assert code == 2 and out == ""
    assert err == f"error: bulk_variance must be finite and positive, got {variance}\n"


@pytest.mark.parametrize("argv, message", [
    (("predict", "gaussian-1f", "--n", "5", "--rho-j", "-1", "--W", "0.01"),
     "rho_j must be finite and nonnegative, got -1.0"),
    (("predict", "flat-iid", "--W", "0.01", "--J", "-1"),
     "J must be finite and nonnegative, got -1.0"),
    (("predict", "flat-iid", "--W", "nan"), "W must be finite and nonnegative, got nan"),
    (("mi", "--family", "pinhole", "--n", "4", "--W-db", "inf"),
     "--W-db must be finite and real, got inf"),
])
def test_bad_real_option_named_in_one_line(capsys, argv, message):
    """A real option outside its range is named in one line: a noise power or
    rho_j as the predictor names it, a --W-db value as the option the user typed."""
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_negative_closed_form_points_to_midsum(capsys):
    code, out, err = run(capsys, "predict", "flat-1f", "--n", "5", "--W", "100",
                         "--form", "closed")
    assert code == 2 and out == ""
    assert err.startswith("error: the closed form is negative") and err.count("\n") == 1
    assert "--form midsum" in err


@pytest.mark.parametrize("target, argv", [
    ("apmi.patterns.gen_pinhole", ("generate", "--family", "pinhole", "--n", "5")),
    ("apmi.patterns.gen_bernoulli",
     ("mi", "--family", "bernoulli", "--n", "5", "--p", "0.5", "--W", "1")),
    ("apmi.spectral.spectral_weights", ("mi", "--family", "pinhole", "--n", "5", "--W", "1")),
    ("apmi.ensemble.spectral_weights",
     ("sweep", "--n", "5", "--trials", "2", "--p-grid", "0.5", "--W", "1")),
])
@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 745. GiB", "Unable to allocate 745. GiB"), ("", "out of memory")])
def test_out_of_memory_exits_2(capsys, tmp_path, monkeypatch, target, argv, message, shown):
    """An n too large to allocate is an argument error: one line, no traceback,
    no output file.  The allocation is simulated, never made."""
    def exhausted(*args):
        raise MemoryError(message)
    monkeypatch.setattr(target, exhausted)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err == f"error: {shown}\n"
    assert list(tmp_path.iterdir()) == []


HUGE = str(10**400 + 1)


@pytest.mark.parametrize("argv, option", [
    (("predict", "pinhole", "--n", HUGE, "--W", "0.01"), "n"),
    (("predict", "flat-1f", "--n", HUGE, "--W", "0.01"), "n"),
    (("predict", "bernoulli-1f", "--n", HUGE, "--p", "0.5", "--W", "0.01"), "n"),
    (("predict", "gaussian-1f", "--n", HUGE, "--rho-j", "1", "--W", "0.01"), "n"),
    (("optimize-p", "--prior", "1f", "--n", HUGE, "--W", "0.01"), "n"),
    (("sweep", "--n", HUGE, "--W", "0.01"), "n"),
    (("sweep", "--trials", str(10**20), "--W", "0.01"), "trials"),
    (("mi", "--family", "pinhole", "--n", str(10**20), "--W", "0.01"), "n"),
    (("generate", "--family", "bernoulli", "--n", str(10**20), "--p", "0.5"), "n"),
    (("reproduce", "fig3", "--trials", str(2**53)), "trials"),
])
def test_size_of_2_53_or_more_exits_2(capsys, tmp_path, argv, option):
    """An --n or --trials that a float cannot hold exactly is an argument
    error before any work: one line naming the option, no output file."""
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == f"error: --{option} must be below 2**53 (9007199254740992)\n"
    assert list(tmp_path.iterdir()) == []


def test_largest_size_still_predicts(capsys):
    code, out, err = run(capsys, "predict", "flat-1f", "--n", str(2**53 - 1), "--W", "0.01")
    assert code == 0 and strict_json(out)["value"] == 70.8051402873
