"""Command-line surface: exit codes, file outputs, and determinism."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dpforecast import (
    PrivacyParams,
    cli,
    evaluate_forecast,
    forecast,
    input_release,
    iqr_clean,
    load_csv,
    optim,
    utility_loss,
)
from dpforecast.cli import main
from dpforecast.config import ConfigError, parse_config

from conftest import build_series, write_series_csv
from test_forecast import PoisonableArray

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def dataset(tmp_path):
    series = build_series(n_days=16, n_regions=6, seed=6)
    return write_series_csv(series, tmp_path / "mobility.csv")


def write_config(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


BASE_CONFIG = """\
[dataset]
path = {data}

[run]
kind = {kind}
seeds = 0,1
lag = 6
train_days = 13
test_days = 2

[model]
cell = gru
bidirectional = true
hidden_size = 6
activation = relu

[train]
batch_size = 32
learning_rate = 0.005
epochs = 2
"""

SPLIT_KEYS = {"lag": None, "train_days": None, "test_days": None}
MODEL_KEYS = {"model": ["activation", "bidirectional", "cell", "hidden_size"]}
TRAIN_KEYS = {"train": ["batch_size", "epochs", "learning_rate"]}


def gradient_config(dataset):
    return BASE_CONFIG.format(data=dataset, kind="gradient").replace(
        "batch_size = 32", "batch_size = 4"
    ) + (
        "\n[dp]\nl2_norm_clip = 1.0\nnoise_multiplier = 2.0\nnum_microbatches = 4\n"
        "\n[privacy]\ndelta = 1e-7\n"
    )


INPUT_PRIVACY = "\n[privacy]\nepsilon = 0.5\ndelta = 1e-6\nsensitivity = 1.0\n"
RUN_CONFIGS = {
    "baseline": lambda data: BASE_CONFIG.format(data=data, kind="baseline"),
    "nonprivate": lambda data: BASE_CONFIG.format(data=data, kind="nonprivate"),
    "input": lambda data: BASE_CONFIG.format(data=data, kind="input") + INPUT_PRIVACY,
    "gradient": gradient_config,
}
TUNE_ONE_TRIAL = "\n[tune]\nbudget = 1\nepochs = 1\n"


def exit_code(argv):
    """``main``'s exit status, also where argparse refuses a flag by raising SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def config_keys(out):
    """Keys of summary.json's config; a nested section maps to its sorted keys."""
    config = json.loads((out / "summary.json").read_text())["config"]
    return {k: sorted(v) if isinstance(v, dict) else None for k, v in config.items()}


class TestStats:
    def test_writes_table_shaped_csv(self, tmp_path, dataset, capsys):
        cfg = write_config(tmp_path, f"[dataset]\npath = {dataset}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "stats"]) == 0
        rows = list(csv.reader(open(out / "stats.csv")))
        assert rows[0] == ["statistic", "R1", "R2", "R3", "R4", "R5", "R6"]
        assert [r[0] for r in rows[1:]] == ["min", "max", "mean", "std", "median"]
        assert (out / "manifest.json").exists()

    def test_constant_file_yields_zero_std(self, tmp_path):
        lines = ["datetime,R1,R2"]
        ts = np.datetime64("2020-08-24T00:00:00", "s")
        for i in range(96):
            stamp = str(ts + i * np.timedelta64(1800, "s")).replace("T", " ")
            lines.append(f"{stamp},5,9")
        data = tmp_path / "const.csv"
        data.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, f"[dataset]\npath = {data}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "stats"]) == 0
        rows = {r[0]: r[1:] for r in list(csv.reader(open(out / "stats.csv")))[1:]}
        assert [float(v) for v in rows["std"]] == [0.0, 0.0]

    def test_one_slot_file_is_usage_error(self, tmp_path, capsys):
        # A sample std needs two slots; one would write NaN under numpy warnings.
        data = tmp_path / "one.csv"
        data.write_text("datetime,R1,R2\n2020-08-24 00:00:00,5,9\n")
        cfg = write_config(tmp_path, f"[dataset]\npath = {data}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "stats"]) == 2
        err = capsys.readouterr().err
        assert f"error: {data}: stats needs two or more slots for a sample std, got 1\n" in err
        assert not (tmp_path / "o" / "stats.csv").exists()

    def test_empty_file_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        cfg = write_config(tmp_path, f"[dataset]\npath = {data}\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "stats"]) == 2

    @pytest.mark.parametrize("command", ["stats", "clean", "train"])
    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys, command):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"datetime,R\xe9\n2020-08-24 00:00:00,7\n")
        cfg = write_config(tmp_path, BASE_CONFIG.format(data=data, kind="baseline"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), command]) == 2
        err = capsys.readouterr().err
        assert f"error: {data}: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_count_too_large_for_float_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text(f"datetime,R1\n2020-08-24 00:00:00,{'9' * 400}\n")
        cfg = write_config(tmp_path, f"[dataset]\npath = {data}\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "stats"]) == 2
        err = capsys.readouterr().err
        assert f"error: {data}:2: count too large for a float" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["stats", "clean", "train"])
    def test_repeated_region_label_is_usage_error(self, tmp_path, capsys, command):
        # evaluate groups predictions by label, so two R1 columns would merge
        data = tmp_path / "twice.csv"
        data.write_text("datetime,R1,R1\n2020-08-24 00:00:00,7,8\n")
        cfg = write_config(tmp_path, BASE_CONFIG.format(data=data, kind="baseline"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), command]) == 2
        err = capsys.readouterr().err
        assert f"error: {data}: region label 'R1' repeated in column 3" in err
        assert "Traceback" not in err


class TestClean:
    def test_fills_gaps_and_round_trips(self, tmp_path):
        lines = ["datetime,R1"]
        ts = np.datetime64("2020-08-24T00:00:00", "s")
        for i in range(96):
            if i == 40:
                continue  # leave one gap for the cleaner to fill
            stamp = str(ts + i * np.timedelta64(1800, "s")).replace("T", " ")
            lines.append(f"{stamp},{100 + i}")
        data = tmp_path / "gappy.csv"
        data.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, f"[dataset]\npath = {data}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "clean"]) == 0
        cleaned = (out / "cleaned.csv").read_text().splitlines()
        assert len(cleaned) == 97  # header + full 96-slot grid
        assert "nan" not in (out / "cleaned.csv").read_text()


class TestAccountant:
    def test_prints_golden_epsilon(self, capsys):
        code = main([
            "accountant", "--n", "3120", "--batch", "5", "--noise-multiplier", "35",
            "--epochs", "100", "--delta", "1e-7",
        ])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("eps=0.065")
        assert "at order=" in line and "delta=1e-07" in line

    def test_zero_steps_warns_and_reports_conversion_term(self, capsys):
        code = main([
            "accountant", "--q", "0.01", "--noise-multiplier", "35",
            "--steps", "0", "--delta", "1e-7",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "zero steps" in captured.err
        assert "at order=512" in captured.out

    def test_invalid_delta_is_usage_error(self, capsys):
        assert main([
            "accountant", "--q", "0.01", "--noise-multiplier", "35",
            "--steps", "10", "--delta", "1.0",
        ]) == 2

    def test_missing_rate_arguments_is_usage_error(self):
        assert main(["accountant", "--noise-multiplier", "35", "--delta", "1e-7"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--q", "0.01"],
        ["--q", "0.01", "--epochs", "100"],
        ["--n", "3120", "--batch", "5"],
        ["--q", "0.01", "--epochs", "100", "--n", "3120"],
    ], ids=["neither", "epochs-without-size", "size-without-epochs", "epochs-without-batch"])
    def test_missing_step_arguments_is_usage_error(self, argv, capsys):
        assert main(["accountant", "--noise-multiplier", "35", "--delta", "1e-7", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: provide --steps or --epochs with --n/--batch\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--n", "--batch"])
    def test_non_positive_size_is_usage_error(self, flag, capsys):
        sizes = {"--n": "3120", "--batch": "5", flag: "0"}
        argv = ["accountant", "--noise-multiplier", "35", "--epochs", "100", "--delta", "1e-7"]
        for name, value in sizes.items():
            argv += [name, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be >= 1, got 0" in err
        assert "Traceback" not in err


class TestModuleEntry:
    @pytest.mark.parametrize("delta, status, stdout", [
        ("1e-7", 0, "eps=0.065069 at order=512 (delta=1e-07)\n"),
        ("1.0", 2, ""),
    ])
    def test_python_m_runs_the_accountant(self, delta, status, stdout):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "dpforecast.cli", "accountant", "--n", "3120",
             "--batch", "5", "--noise-multiplier", "35", "--epochs", "100", "--delta", delta],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == status
        assert proc.stdout == stdout
        assert "Traceback" not in proc.stderr


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def ascii_env():
    """The environment of a child under ``ASCII_LOCALE``; skips where it still reports UTF-8."""
    env = dict(os.environ, **ASCII_LOCALE, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    probe = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    if probe.stdout.strip().lower().replace("-", "") == "utf8":
        pytest.skip("the child process still reports UTF-8 under LC_ALL=C")
    return env


class TestAsciiLocale:
    @pytest.mark.parametrize("command", ["stats", "clean", "train", "evaluate"])
    def test_non_ascii_labels_write_the_default_bytes(self, tmp_path, command):
        env = ascii_env()
        series = dataclasses.replace(build_series(n_days=5, n_regions=2, seed=3),
                                     region_labels=("Région", "R2"))
        data = write_series_csv(series, tmp_path / "regions.csv")
        body = BASE_CONFIG.format(data=data, kind="baseline").replace(
            "train_days = 13\ntest_days = 2", "train_days = 4\ntest_days = 1")
        cfg = write_config(tmp_path, body)
        argv = ["--config", str(cfg), command]
        if command == "evaluate":
            assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), "train"]) == 0
            argv = ["evaluate", "--run", str(tmp_path / "run")]
        default, ascii_ = tmp_path / "default", tmp_path / "ascii"
        assert main(["--out", str(default)] + argv) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "dpforecast.cli", "--out", str(ascii_)] + argv,
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in default.iterdir())
        assert sorted(p.name for p in ascii_.iterdir()) == names
        for name in names:
            assert (ascii_ / name).read_bytes() == (default / name).read_bytes(), name

    def test_non_ascii_file_name_is_usage_error(self, tmp_path):
        env = ascii_env()
        data = write_series_csv(build_series(n_days=1, n_regions=2, seed=3),
                                tmp_path / "régions.csv")
        cfg = write_config(tmp_path, f"[dataset]\npath = {data}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "dpforecast.cli", "--config", str(cfg),
             "--out", str(tmp_path / "o"), "clean"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 2, proc.stderr
        assert "error: [dataset] path" in proc.stderr and "Traceback" not in proc.stderr


NON_FINITE_CONFIGS = RUN_CONFIGS | {
    "sanitize": lambda data: f"[dataset]\npath = {data}\n" + INPUT_PRIVACY,
}


class TestNonFiniteValues:
    @pytest.mark.parametrize("config, old, new, command, named", [
        ("gradient", "noise_multiplier = 2.0", "noise_multiplier = nan", "train",
         "[dp] noise_multiplier"),
        ("gradient", "noise_multiplier = 2.0", "noise_multiplier = inf", "train",
         "[dp] noise_multiplier"),
        ("gradient", "l2_norm_clip = 1.0", "l2_norm_clip = nan", "train", "[dp] l2_norm_clip"),
        ("nonprivate", "learning_rate = 0.005", "learning_rate = nan", "train",
         "[train] learning_rate"),
        ("sanitize", "sensitivity = 1.0", "sensitivity = nan", "sanitize",
         "[privacy] sensitivity"),
        ("input", "sensitivity = 1.0", "sensitivity = nan", "train", "[privacy] sensitivity"),
        (None, "--noise-multiplier", "nan", "accountant", "--noise-multiplier"),
        (None, "--noise-multiplier", "1e-170", "accountant", "noise_multiplier 1e-170"),
        ("gradient", "noise_multiplier = 2.0", "noise_multiplier = 1e-170", "train",
         "noise_multiplier 1e-170"),
    ])
    def test_is_usage_error_naming_its_entry(
        self, tmp_path, dataset, capsys, config, old, new, command, named
    ):
        if command == "accountant":
            argv = ["accountant", "--n", "3120", "--batch", "5", "--epochs", "100",
                    "--delta", "1e-7", old, new]
        else:
            body = NON_FINITE_CONFIGS[config](dataset)
            assert old in body
            cfg = write_config(tmp_path, body.replace(old, new))
            argv = ["--config", str(cfg), "--out", str(tmp_path / "o"), command]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err


class TestConfigFile:
    @pytest.mark.parametrize("body, named", [
        (None, "config file not found"),
        ("no section header\n", "exp.cfg"),
        ("[bogus]\nx = 1\n", "unknown section [bogus]"),
        ("[model]\nbidirectional = maybe\n", "[model] bidirectional"),
        ("[run]\nseeds = 0,one\n", "[run] seeds"),
        ("[train]\nepochs = two\n", "[train] epochs"),
        ("[run]\nkind = oracle\n", "run kind must be one of"),
        ("[run]\nkind = baseline\n", "[dataset] path"),
    ], ids=["missing-file", "unparsable", "unknown-section", "bad-boolean", "bad-seeds",
            "non-numeric", "unknown-kind", "missing-entry"])
    def test_usage_error_names_file_or_section(self, tmp_path, capsys, body, named):
        cfg = tmp_path / "exp.cfg"
        if body is not None:
            write_config(tmp_path, body)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "train"]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        if named != "[dataset] path":  # a missing entry names its section, not the file
            assert str(cfg) in err

    @pytest.mark.parametrize("make, named", [
        (lambda cfg: cfg.write_bytes(b"[run]\nkind = baseline\xff\n"),
         ": not UTF-8 text (invalid start byte at byte 21)"),
        (lambda cfg: cfg.write_bytes(b"\xef\xbb\xbf[run]\nkind = baseline\xff\n"),
         ": not UTF-8 text (invalid start byte at byte 24)"),
        (lambda cfg: cfg.mkdir(), "config file not found: "),
    ], ids=["non-utf8", "non-utf8-after-bom", "directory"])
    def test_config_not_a_utf8_file_is_usage_error(self, tmp_path, capsys, make, named):
        cfg = tmp_path / "exp.cfg"
        make(cfg)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "train"]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and named in err and "Traceback" not in err

    def test_leading_byte_order_mark_is_dropped(self, tmp_path, dataset):
        body = BASE_CONFIG.format(data=dataset, kind="baseline")
        plain = write_config(tmp_path, body)
        marked = tmp_path / "marked.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
        assert parse_config(marked) == parse_config(plain)

    def test_cr_and_crlf_line_endings_read_as_lf(self, tmp_path, dataset):
        body = BASE_CONFIG.format(data=dataset, kind="baseline")
        parsed = {}
        for name, ending in (("lf", "\n"), ("cr", "\r"), ("crlf", "\r\n")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(body.replace("\n", ending).encode("utf-8"))
            parsed[name] = parse_config(cfg).values
        assert parsed["cr"] == parsed["crlf"] == parsed["lf"]
        assert parsed["lf"]["run"] == {"kind": "baseline", "seeds": (0, 1), "lag": 6,
                                       "train_days": 13, "test_days": 2}

    @pytest.mark.parametrize("ending", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_parse_errors_read_the_same_for_every_line_ending(self, tmp_path, ending):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(f"[run]{ending}kind baseline{ending}".encode("utf-8"))
        with pytest.raises(ConfigError) as info:
            parse_config(cfg)
        assert str(info.value) == (f"{cfg}: Source contains parsing errors: '<string>'\n"
                                   "\t[line  2]: 'kind baseline\\n'")

    @pytest.mark.parametrize("spelling, value", [
        *((s, True) for s in ("true", "Yes", "1", "ON")),
        *((s, False) for s in ("false", "No", "0", "OFF")),
    ])
    def test_boolean_spellings(self, tmp_path, spelling, value):
        cfg = write_config(tmp_path, f"[model]\nbidirectional = {spelling}\n")
        assert parse_config(cfg).get("model", "bidirectional") is value

    @pytest.mark.parametrize("command", ["stats", "clean", "sanitize", "train", "tune"])
    def test_missing_config_flag_is_usage_error(self, tmp_path, capsys, command):
        assert main(["--out", str(tmp_path / "o"), command]) == 2
        assert capsys.readouterr().err == "error: this command requires --config <path>\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["stats", "clean", "sanitize", "train", "tune"])
    def test_dataset_path_naming_no_file_is_usage_error(self, tmp_path, capsys, command):
        missing = tmp_path / "absent.csv"
        cfg = write_config(tmp_path, BASE_CONFIG.format(data=missing, kind="input")
                           + INPUT_PRIVACY + TUNE_ONE_TRIAL)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), command]) == 2
        err = capsys.readouterr().err
        assert f"error: [dataset] path {missing}" in err and "Traceback" not in err

    @pytest.mark.parametrize("seeds", ["", "3,3", "0, 1, 0"], ids=["empty", "3-twice", "0-twice"])
    def test_empty_or_repeated_seeds_are_usage_errors(self, tmp_path, capsys, dataset, seeds):
        body = BASE_CONFIG.format(data=dataset, kind="baseline")
        cfg = write_config(tmp_path, body.replace("seeds = 0,1", f"seeds = {seeds}"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "train"]) == 2
        err = capsys.readouterr().err
        assert "[run] seeds" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestSanitize:
    def test_valid_epsilon_writes_release(self, tmp_path, dataset):
        cfg = write_config(
            tmp_path,
            f"[dataset]\npath = {dataset}\n\n[privacy]\nepsilon = 0.5\ndelta = 1e-6\n",
        )
        out = tmp_path / "san"
        assert main(["--config", str(cfg), "--out", str(out), "--seed", "3",
                     "sanitize"]) == 0
        assert (out / "sanitized.csv").exists()
        ledger_lines = (out / "ledger.csv").read_text().splitlines()
        assert ledger_lines[0].startswith("label,epsilon,delta")
        record = json.loads((out / "privacy.json").read_text())
        assert record["epsilon"] == 0.5

    def test_releases_what_an_input_run_of_its_seed_releases(self, tmp_path, dataset):
        cfg = write_config(
            tmp_path,
            f"[dataset]\npath = {dataset}\n\n[privacy]\nepsilon = 0.5\ndelta = 1e-6\n",
        )
        out = tmp_path / "san"
        assert main(["--config", str(cfg), "--out", str(out), "--seed", "3",
                     "sanitize"]) == 0
        with open(out / "sanitized.csv", encoding="utf-8", newline="") as fh:
            written = np.array([[float(v) for v in row[1:]] for row in list(csv.reader(fh))[1:]])
        params = PrivacyParams(epsilon=0.5, delta=1e-6, l2_sensitivity=1.0)
        release = input_release(iqr_clean(load_csv(dataset)), params,
                                forecast.release_stream(3), train_days=13, test_days=2)
        assert written.tobytes() == release.sanitized.counts.tobytes()

    def test_epsilon_out_of_validity_is_usage_error(self, tmp_path, dataset, capsys):
        cfg = write_config(
            tmp_path,
            f"[dataset]\npath = {dataset}\n\n[privacy]\nepsilon = 1.5\ndelta = 1e-6\n",
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "sanitize"]) == 2
        assert "epsilon in (0, 1)" in capsys.readouterr().err


class TestTrainCommand:
    def test_baseline_run_writes_artifacts(self, tmp_path, dataset):
        cfg = write_config(tmp_path, BASE_CONFIG.format(data=dataset, kind="baseline"))
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(out), "train"]) == 0
        for name in ("metrics.csv", "predictions.csv", "summary.json", "manifest.json"):
            assert (out / name).exists()

    @pytest.mark.parametrize("kind", ["baseline", "nonprivate", "input", "gradient"])
    def test_every_run_kind_is_byte_deterministic(self, tmp_path, dataset, kind):
        cfg = write_config(tmp_path, RUN_CONFIGS[kind](dataset))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(cfg), "--out", str(out_a), "train"]) == 0
        assert main(["--config", str(cfg), "--out", str(out_b), "train"]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        assert ("params.npz" in names) == ("trainlog.csv" in names) == (kind != "baseline")
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        if kind == "nonprivate":
            assert config_keys(out_a) == SPLIT_KEYS | MODEL_KEYS | TRAIN_KEYS

    def test_unknown_config_key_is_usage_error(self, tmp_path, dataset, capsys):
        cfg = write_config(
            tmp_path, f"[dataset]\npath = {dataset}\nbogus = 1\n"
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "train"]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_input_perturbation_run(self, tmp_path, dataset):
        body = BASE_CONFIG.format(data=dataset, kind="input") + (
            "\n[privacy]\nepsilon = 0.5\ndelta = 1e-6\nsensitivity = 1.0\n"
        )
        cfg = write_config(tmp_path, body)
        out = tmp_path / "ip"
        assert main(["--config", str(cfg), "--out", str(out), "train"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["privacy"]["mechanism"] == "gaussian-input"
        assert config_keys(out) == SPLIT_KEYS | MODEL_KEYS | TRAIN_KEYS | {
            "privacy": ["delta", "epsilon", "sensitivity"]
        }

    def test_gradient_perturbation_run(self, tmp_path, dataset):
        cfg = write_config(tmp_path, gradient_config(dataset))
        out = tmp_path / "gp"
        assert main(["--config", str(cfg), "--out", str(out), "train"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["privacy"]["mechanism"] == "dp-sgd"
        assert summary["privacy"]["steps"] == summary["train_steps"]
        assert config_keys(out) == SPLIT_KEYS | MODEL_KEYS | {
            "dp": ["batch_size", "epochs", "l2_norm_clip", "learning_rate",
                   "noise_multiplier", "num_microbatches"],
            "delta": None,
        }

    @pytest.mark.parametrize("old, new, command, section", [
        ("cell = gru", "cell = rnn", "train", "[model]"),
        ("num_microbatches = 4", "num_microbatches = 3", "train", "[dp]"),
        ("train_days = 13", "train_days = 40", "train", "[run]"),
        ("test_days = 2", "test_days = 0", "train", "[run]"),
        ("test_days = 2", "test_days = -1", "tune", "[run]"),
        ("lag = 6", "lag = 0", "train", "[run]: lag must be >= 1, got 0"),
        ("lag = 6", "lag = 700", "tune", "[run]: series has 624 slots; at least 701 required"),
        ("batch_size = 4", "batch_size = 1000", "train", "[train]"),
        ("epochs = 2\n", "epochs = 2\n\n[tune]\nstrategy = grid\n", "tune", "[tune]"),
    ])
    def test_bad_config_value_is_usage_error(
        self, tmp_path, dataset, capsys, old, new, command, section
    ):
        cfg = write_config(tmp_path, gradient_config(dataset).replace(old, new))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), command]) == 2
        assert section in capsys.readouterr().err

    @pytest.mark.parametrize("flags, run_line, named", [
        (["--jobs", "0"], "", "--jobs must be >= 1, got 0"),
        (["--jobs", "-1"], "", "--jobs must be >= 1, got -1"),
        ([], "jobs = 0\n", "unknown key 'jobs' in section [run]"),
    ], ids=["flag-zero", "flag-negative", "config-key"])
    def test_fewer_than_one_job_is_usage_error(
        self, tmp_path, dataset, capsys, flags, run_line, named
    ):
        body = BASE_CONFIG.format(data=dataset, kind="nonprivate")
        cfg = write_config(tmp_path, body.replace("[run]\n", "[run]\n" + run_line))
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), *flags, "train"]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("scale", "true"), ("jobs", "2")])
    def test_removed_run_key_is_usage_error(self, tmp_path, dataset, capsys, key, value):
        # Every trained run min-max scales, and --jobs alone sets the workers.
        body = BASE_CONFIG.format(data=dataset, kind="nonprivate")
        cfg = write_config(tmp_path, body.replace("[run]\n", f"[run]\n{key} = {value}\n"))
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "train"]) == 2
        err = capsys.readouterr().err
        assert f"unknown key {key!r} in section [run]" in err and "Traceback" not in err
        assert not out.exists()

    def test_seeds_default_to_ten_from_the_base_seed(self, tmp_path, dataset):
        body = BASE_CONFIG.format(data=dataset, kind="nonprivate").replace(
            "seeds = 0,1\n", "").replace("epochs = 2", "epochs = 0")
        cfg = write_config(tmp_path, body)
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(out), "--seed", "3", "train"]) == 0
        assert json.loads((out / "summary.json").read_text())["seeds"] == list(range(3, 13))
        assert json.loads((out / "manifest.json").read_text())["seeds"] == list(range(3, 13))

    def test_value_error_inside_training_propagates(self, tmp_path, dataset, monkeypatch):
        def broken_adam_step(*args):
            raise ValueError("internal bug")

        monkeypatch.setattr(optim, "adam_step", broken_adam_step)
        cfg = write_config(tmp_path, BASE_CONFIG.format(data=dataset, kind="nonprivate"))
        with pytest.raises(ValueError, match="internal bug"):
            main(["--config", str(cfg), "--out", str(tmp_path / "o"), "train"])


class TestEvaluateAndReport:
    def _run(self, tmp_path, dataset, kind, out_name, extra=""):
        body = BASE_CONFIG.format(data=dataset, kind=kind) + extra
        cfg = write_config(tmp_path, body, name=f"{out_name}.cfg")
        out = tmp_path / out_name
        assert main(["--config", str(cfg), "--out", str(out), "train"]) == 0
        return out

    def test_evaluate_recomputes_metrics_from_predictions(self, tmp_path, dataset):
        run_dir = self._run(tmp_path, dataset, "baseline", "base")
        out = tmp_path / "eval"
        assert main(["--out", str(out), "evaluate", "--run", str(run_dir)]) == 0
        original = {
            r[1]: (float(r[2]), float(r[3]))
            for r in list(csv.reader(open(run_dir / "metrics.csv")))[1:]
        }
        recomputed = {
            r[0]: (float(r[1]), float(r[2]))
            for r in list(csv.reader(open(out / "metrics.csv")))[1:]
        }
        for region, (r_rmse, r_mae) in recomputed.items():
            assert r_rmse == pytest.approx(original[region][0], rel=1e-9)
            assert r_mae == pytest.approx(original[region][1], rel=1e-9)

    def test_report_matches_direct_recomputation(self, tmp_path, dataset):
        np_dir = self._run(tmp_path, dataset, "nonprivate", "np")
        ip_dir = self._run(
            tmp_path, dataset, "input", "ip",
            extra="\n[privacy]\nepsilon = 0.5\ndelta = 1e-6\n",
        )
        out = tmp_path / "rep"
        assert main(["--out", str(out), "report", "--run", str(ip_dir),
                     "--reference", str(np_dir)]) == 0
        rows = {r[0]: r[1:] for r in list(csv.reader(open(out / "report.csv")))[1:]}
        dp_summary = json.loads((ip_dir / "summary.json").read_text())
        np_summary = json.loads((np_dir / "summary.json").read_text())
        expected = utility_loss(dp_summary["mean_rmse"], np_summary["mean_rmse"])
        assert float(rows["mean_rmse"][2]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("text", [
        '{"mean_rmse": 2.0',
        '{"mean_rmse": 2.0}',
        '{"mean_rmse": 2.0, "mean_mae": NaN}',
        '{"mean_rmse": 2.0, "mean_mae": "1.0"}',
        '{"mean_rmse": 2.0, "mean_mae": 1' + "0" * 400 + '}',
        '[2.0, 1.0]',
    ], ids=["truncated", "no-mae", "nan", "string", "past-float", "array"])
    def test_report_refuses_a_malformed_summary(self, tmp_path, capsys, text):
        good, bad = tmp_path / "good", tmp_path / "bad"
        good.mkdir()
        bad.mkdir()
        (good / "summary.json").write_text('{"mean_rmse": 2.0, "mean_mae": 1}')
        (bad / "summary.json").write_text(text)
        for run, reference in [(bad, good), (good, bad)]:
            assert main(["--out", str(tmp_path / "rep"), "report", "--run", str(run),
                         "--reference", str(reference)]) == 2
            assert f"error: {bad / 'summary.json'}: " in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_report_without_a_summary_is_usage_error(self, tmp_path, capsys):
        good, bare = tmp_path / "good", tmp_path / "bare"
        good.mkdir()
        bare.mkdir()
        (good / "summary.json").write_text('{"mean_rmse": 2.0, "mean_mae": 1.0}')
        for run, reference in [(bare, good), (good, bare)]:
            assert main(["--out", str(tmp_path / "rep"), "report", "--run", str(run),
                         "--reference", str(reference)]) == 2
            assert capsys.readouterr().err == f"error: no summary.json under {bare}\n"
        assert not (tmp_path / "rep").exists()

    def test_evaluate_writes_library_metrics_in_file_order(self, tmp_path, dataset):
        run_dir = self._run(tmp_path, dataset, "baseline", "base")
        rows = list(csv.DictReader(open(run_dir / "predictions.csv")))
        regions = list(dict.fromkeys(r["region"] for r in rows))
        y_true, y_pred = (
            np.array([[float(r[col]) for r in rows if r["region"] == g] for g in regions]).T
            for col in ("y_true", "y_pred")
        )
        report = evaluate_forecast(y_true, y_pred, regions)
        out = tmp_path / "eval"
        assert main(["--out", str(out), "evaluate", "--run", str(run_dir)]) == 0
        written = list(csv.reader(open(out / "metrics.csv")))
        assert written[0] == ["region", "rmse", "mae"]
        assert [r[0] for r in written[1:]] == regions + ["mean"]
        for row, expected in zip(written[1:], report.to_rows()):
            assert row[1:] == [repr(expected["rmse"]), repr(expected["mae"])]

    def test_evaluate_ragged_predictions_is_usage_error(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "predictions.csv").write_text(
            "datetime,region,y_true,y_pred\n"
            "2020-08-24 00:00:00,R1,1.0,2.0\n"
            "2020-08-24 00:00:00,R2,1.0,2.0\n"
            "2020-08-24 00:30:00,R1,1.0,2.0\n"
        )
        assert main(["--out", str(tmp_path / "o"), "evaluate", "--run", str(run_dir)]) == 2

    @pytest.mark.parametrize("text, reason", [
        ("datetime,region,y_true\n2020-08-24 00:00:00,R1,1.0\n",
         "needs region, y_true and y_pred columns; missing y_pred"),
        ("datetime,region,y_true,y_pred\n2020-08-24 00:00:00,R1,1.0,2.0\n"
         "2020-08-24 00:30:00,R1,1.0\n",
         "line 3 has 3 fields, the header 4"),
        ("datetime,region,y_true,y_pred\n2020-08-24 00:00:00,R1,1.0,nan\n",
         "line 2: y_pred is not finite"),
        ("datetime,region,y_true,y_pred\n2020-08-24 00:00:00,R1,1.0,2.0\n"
         "2020-08-24 00:30:00,R1,1e400,-inf\n",
         "line 3: y_true is not finite"),
        ("datetime,region,y_true,y_pred\n"
         "2020-08-24 00:00:00,R1,1e300,-1.7976931348623157e308\n",
         "the rmse of region R1 overflows a float"),
        ("datetime,region,y_true,y_pred\n2020-08-24 00:00:00,R2,1.0,2.0\n"
         "2020-08-24 00:00:00,R1,1e200,-1e200\n",
         "the rmse of region R1 overflows a float"),
    ], ids=["no_y_pred_column", "short_row", "nan_y_pred", "overflowing_y_true",
            "overflowing_difference", "overflowing_square"])
    def test_evaluate_malformed_predictions_is_usage_error(self, tmp_path, capsys, text,
                                                           reason):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "predictions.csv").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--out", str(tmp_path / "o"), "evaluate", "--run", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {run_dir / 'predictions.csv'}: {reason}\n"

    def test_evaluate_reads_columns_in_any_order(self, tmp_path):
        rows = [("2020-08-24 00:00:00", "R1", "1.0", "2.5"),
                ("2020-08-24 00:00:00", "R2", "4.0", "3.0"),
                ("2020-08-24 00:30:00", "R1", "2.0", "2.0"),
                ("2020-08-24 00:30:00", "R2", "5.0", "7.5")]
        written = {}
        for name, order in (("canonical", (0, 1, 2, 3)), ("shuffled", (3, 1, 0, 2))):
            run_dir = tmp_path / name
            run_dir.mkdir()
            header = ("datetime", "region", "y_true", "y_pred")
            (run_dir / "predictions.csv").write_text("".join(
                ",".join(line[i] for i in order) + "\n" for line in [header] + rows
            ))
            out = tmp_path / f"{name}_eval"
            assert main(["--out", str(out), "evaluate", "--run", str(run_dir)]) == 0
            written[name] = (out / "metrics.csv").read_bytes()
        assert written["shuffled"] == written["canonical"]

    def test_evaluate_drops_a_leading_byte_order_mark(self, tmp_path):
        # The mark would otherwise cling to the first column's name, here region.
        text = ("region,datetime,y_true,y_pred\nR1,2020-08-24 00:00:00,1.0,2.5\n"
                "R2,2020-08-24 00:00:00,4.0,3.0\n")
        written = {}
        for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            run_dir = tmp_path / name
            run_dir.mkdir()
            (run_dir / "predictions.csv").write_bytes(mark + text.encode("utf-8"))
            out = tmp_path / f"{name}_eval"
            assert main(["--out", str(out), "evaluate", "--run", str(run_dir)]) == 0
            written[name] = (out / "metrics.csv").read_bytes()
        assert written["marked"] == written["plain"]

    def test_evaluate_skips_blank_records(self, tmp_path):
        rows = ["datetime,region,y_true,y_pred", "2020-08-24 00:00:00,R1,1.0,2.5",
                "2020-08-24 00:00:00,R2,4.0,3.0", "2020-08-24 00:30:00,R1,2.0,2.0",
                "2020-08-24 00:30:00,R2,5.0,7.5"]
        written = {}
        for name, lines in (("plain", rows), ("blank", rows[:2] + [""] + rows[2:] + [""])):
            run_dir = tmp_path / name
            run_dir.mkdir()
            (run_dir / "predictions.csv").write_text("\n".join(lines) + "\n")
            out = tmp_path / f"{name}_eval"
            assert main(["--out", str(out), "evaluate", "--run", str(run_dir)]) == 0
            written[name] = (out / "metrics.csv").read_bytes()
        assert written["blank"] == written["plain"]

    def test_evaluate_missing_run_is_usage_error(self, tmp_path):
        assert main(["--out", str(tmp_path / "o"), "evaluate",
                     "--run", str(tmp_path / "nope")]) == 2

    def test_evaluate_names_a_bad_byte_by_its_file_offset(self, tmp_path, capsys):
        # Past the first 8 KiB, where a streamed decode would name an offset in its chunk.
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        data = bytearray(b"datetime,region,y_true,y_pred\n"
                         + b"2020-08-24 00:00:00,R1,1.0,2.0\n" * 700)
        data[10000] = 0xFF
        pred_file = run_dir / "predictions.csv"
        pred_file.write_bytes(data)
        assert main(["--out", str(tmp_path / "o"), "evaluate", "--run", str(run_dir)]) == 2
        assert capsys.readouterr().err == (
            f"error: {pred_file}: not UTF-8 text (invalid start byte at byte 10000)\n")
        assert not (tmp_path / "o").exists()

    def test_report_refuses_a_utf16_summary(self, tmp_path, capsys):
        good, wide = tmp_path / "good", tmp_path / "wide"
        good.mkdir()
        wide.mkdir()
        text = '{"mean_rmse": 2.0, "mean_mae": 1.0}'
        (good / "summary.json").write_text(text, encoding="utf-8")
        (wide / "summary.json").write_bytes(text.encode("utf-16"))
        for run, reference in [(wide, good), (good, wide)]:
            assert main(["--out", str(tmp_path / "rep"), "report", "--run", str(run),
                         "--reference", str(reference)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {wide / 'summary.json'}: not UTF-8 text (")
            assert "Traceback" not in err
        assert not (tmp_path / "rep").exists()

    def test_report_drops_a_leading_byte_order_mark(self, tmp_path):
        written = {}
        for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            run_dir = tmp_path / name
            run_dir.mkdir()
            (run_dir / "summary.json").write_bytes(mark + b'{"mean_rmse": 3.0, "mean_mae": 2}')
            out = tmp_path / f"{name}_rep"
            assert main(["--out", str(out), "report", "--run", str(run_dir),
                         "--reference", str(run_dir)]) == 0
            written[name] = (out / "report.csv").read_bytes()
        assert written["marked"] == written["plain"]

    def test_evaluate_and_report_refuse_a_directory_as_usage_error(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        (run_dir / "predictions.csv").mkdir(parents=True)
        (run_dir / "summary.json").mkdir()
        assert main(["--out", str(tmp_path / "o"), "evaluate", "--run", str(run_dir)]) == 2
        assert capsys.readouterr().err == f"error: no predictions.csv under {run_dir}\n"
        assert main(["--out", str(tmp_path / "o"), "report", "--run", str(run_dir),
                     "--reference", str(run_dir)]) == 2
        assert capsys.readouterr().err == f"error: no summary.json under {run_dir}\n"
        assert not (tmp_path / "o").exists()


class TestTuneCommand:
    def test_small_budget_search(self, tmp_path, dataset):
        body = BASE_CONFIG.format(data=dataset, kind="nonprivate") + (
            "\n[tune]\nbudget = 2\nstrategy = random\nepochs = 1\n"
        )
        cfg = write_config(tmp_path, body)
        out = tmp_path / "tune"
        assert main(["--config", str(cfg), "--out", str(out), "--seed", "1",
                     "tune"]) == 0
        lines = (out / "trials.csv").read_text().splitlines()
        assert len(lines) == 3
        best = json.loads((out / "best.json").read_text())
        assert best["config"]["h1"] % 25 == 0

    def test_one_region_is_usage_error(self, tmp_path, capsys):
        data = write_series_csv(
            build_series(n_days=16, n_regions=1, seed=6), tmp_path / "one.csv"
        )
        body = BASE_CONFIG.format(data=data, kind="nonprivate") + (
            "\n[tune]\nbudget = 1\nepochs = 1\n"
        )
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "tune"]) == 2
        assert "two or more regions" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["[tune]", "[train]"])
    def test_negative_epochs_is_usage_error(self, tmp_path, dataset, capsys, section):
        # [tune] epochs falls back to [train] epochs; either one negative is caught.
        body = BASE_CONFIG.format(data=dataset, kind="nonprivate") + "\n[tune]\nbudget = 1\n"
        if section == "[tune]":
            body += "epochs = -1\n"
        else:
            body = body.replace("epochs = 2\n", "epochs = -1\n")
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "tune"]) == 2
        err = capsys.readouterr().err
        assert "[tune]" in err and "Traceback" not in err

    @pytest.mark.parametrize("old, new", [
        ("batch_size = 32", "batch_size = 0"),
        ("learning_rate = 0.005", "learning_rate = 0"),
        ("epochs = 2", "epochs = -1"),
    ], ids=["batch-zero", "rate-zero", "epochs-negative"])
    def test_bad_train_value_is_refused_before_any_trial(
        self, tmp_path, dataset, capsys, monkeypatch, old, new
    ):
        # A trial replaces [train]'s batch size, learning rate and epochs, but
        # [train] is checked as `train` checks it.
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_nonprivate", no_trial)
        body = BASE_CONFIG.format(data=dataset, kind="nonprivate") + TUNE_ONE_TRIAL
        cfg = write_config(tmp_path, body.replace(old, new))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "tune"]) == 2
        err = capsys.readouterr().err
        assert "[train]" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["nonprivate", "input"])
    def test_batch_size_the_windows_cannot_hold_is_refused_before_any_trial(
        self, tmp_path, capsys, monkeypatch, kind
    ):
        # One 48-slot training day less a lag of 10 leaves 38 windows, fewer
        # than the search's largest batch size, 40; [train]'s own 5 fits.
        def no_trial(*args, **kwargs):
            raise AssertionError("a release was made or a trial ran")

        for name in ("run_nonprivate", "input_release", "fit_release"):
            monkeypatch.setattr(cli, name, no_trial)
        data = write_series_csv(build_series(n_days=8, n_regions=2, seed=1),
                                tmp_path / "eight.csv")
        body = RUN_CONFIGS[kind](data) + TUNE_ONE_TRIAL
        for old, new in (("lag = 6", "lag = 10"), ("train_days = 13", "train_days = 1"),
                         ("test_days = 2", "test_days = 1"),
                         ("batch_size = 32", "batch_size = 5")):
            body = body.replace(old, new)
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "tune"]) == 2
        assert capsys.readouterr().err == ("error: [train] batch_size exceeds the 38 training "
                                           "windows (tune searches batch size 40)\n")

    def test_gradient_search_reports_epsilon(self, tmp_path, dataset):
        body = gradient_config(dataset).replace(
            "num_microbatches = 4", "num_microbatches = 5"  # divides every searched batch
        ) + "\n[tune]\nbudget = 1\nepochs = 1\n"
        cfg = write_config(tmp_path, body)
        out = tmp_path / "tune"
        assert main(["--config", str(cfg), "--out", str(out), "--seed", "1",
                     "tune"]) == 0
        rows = list(csv.DictReader(open(out / "trials.csv")))
        assert len(rows) == 1
        assert float(rows[0]["epsilon"]) > 0

    @pytest.mark.parametrize("old, new, section", [
        ("noise_multiplier = 2.0", "noise_multiplier = 0.0", "[dp]"),
        ("num_microbatches = 5", "num_microbatches = 4", "[dp]"),  # 4 does not divide 5
        ("delta = 1e-7", "delta = 1.0", "[privacy]"),
        ("delta = 1e-7", "delta = 1e-3", "[privacy]"),  # fails the budget over 624 slots
        ("delta = 1e-7\n", "", "[privacy] delta"),  # required, as `train` requires it
    ])
    @pytest.mark.parametrize("command", ["tune", "train"])
    def test_bad_gradient_search_value_is_usage_error(
        self, tmp_path, dataset, capsys, monkeypatch, old, new, section, command
    ):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_gradient_perturbation", no_trial)
        # A batch of 5 in 5 microbatches: `train` runs it, and 5 divides every searched batch.
        body = gradient_config(dataset).replace("batch_size = 4", "batch_size = 5").replace(
            "num_microbatches = 4", "num_microbatches = 5"
        ).replace(old, new) + "\n[tune]\nbudget = 1\nepochs = 1\n"
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), command]) == 2
        err = capsys.readouterr().err
        assert section in err and "Traceback" not in err

    def test_train_and_tune_refuse_a_campaign_in_one_order(self, tmp_path, dataset, capsys):
        # Each fix uncovers the next section's error, for both commands alike.
        fixes = [
            ("test_days = 0", "test_days = 2", "error: [run]: "),
            ("cell = rnn", "cell = gru", "error: [model]: "),
            ("batch_size = 1000", "batch_size = 4",
             "error: [train] batch_size exceeds the 618 training windows"),
            ("noise_multiplier = 1e-170", "noise_multiplier = 2.0", "error: [dp]: "),
            ("delta = 1.0", "delta = 1e-7", "error: [privacy]: "),
        ]
        body = gradient_config(dataset) + TUNE_ONE_TRIAL
        for fixed, broken, _ in fixes:
            body = body.replace(broken, fixed)
        for broken, fixed, named in fixes:
            cfg = write_config(tmp_path, body)
            errors = []
            for command in ("train", "tune"):
                assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), command]) == 2
                errors.append(capsys.readouterr().err)
            assert errors[0] == errors[1] and errors[0].startswith(named), errors
            body = body.replace(broken, fixed)
        assert not (tmp_path / "o").exists()

    def test_baseline_has_nothing_to_tune(self, tmp_path, dataset, capsys):
        body = BASE_CONFIG.format(data=dataset, kind="baseline") + TUNE_ONE_TRIAL
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "tune"]) == 2
        err = capsys.readouterr().err
        assert "baseline" in err and "Traceback" not in err

    def test_input_search_post_processes_one_release(self, tmp_path, dataset, monkeypatch):
        """No trial reads the raw counts once the one release is made."""
        load_series, make_release = cli._dataset_series, cli.input_release
        releases = []

        def poisonable_series(cfg):
            series, path = load_series(cfg)
            counts = np.array(series.counts).view(PoisonableArray)
            return dataclasses.replace(series, counts=counts), path

        def poisoning_release(*args, **kwargs):
            releases.append(make_release(*args, **kwargs))
            PoisonableArray.poisoned = True
            return releases[-1]

        monkeypatch.setattr(cli, "_dataset_series", poisonable_series)
        monkeypatch.setattr(cli, "input_release", poisoning_release)
        body = BASE_CONFIG.format(data=dataset, kind="input") + INPUT_PRIVACY + (
            "\n[tune]\nbudget = 2\nepochs = 1\n")
        cfg = write_config(tmp_path, body)
        out = tmp_path / "tune"
        try:
            code = main(["--config", str(cfg), "--out", str(out), "--seed", "1", "tune"])
        finally:
            PoisonableArray.poisoned = False
        assert code == 0 and len(releases) == 1
        rows = list(csv.DictReader(open(out / "trials.csv")))
        assert [row["epsilon"] for row in rows] == ["0.5", "0.5"]

    def test_input_search_releases_as_an_input_run_of_its_seed(
        self, tmp_path, dataset, monkeypatch
    ):
        make_release, releases = forecast.input_release, []

        def recorded_release(*args, **kwargs):
            releases.append(make_release(*args, **kwargs))
            return releases[-1]

        monkeypatch.setattr(forecast, "input_release", recorded_release)
        monkeypatch.setattr(cli, "input_release", recorded_release)
        body = BASE_CONFIG.format(data=dataset, kind="input") + INPUT_PRIVACY + TUNE_ONE_TRIAL
        cfg = write_config(tmp_path, body.replace("seeds = 0,1", "seeds = 4,5"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "t"), "--seed", "4",
                     "tune"]) == 0
        assert main(["--config", str(cfg), "--out", str(tmp_path / "r"), "train"]) == 0
        assert len(releases) == 2
        assert np.array_equal(releases[0].sanitized.counts, releases[1].sanitized.counts)

    @pytest.mark.parametrize("command", ["train", "tune"])
    def test_input_delta_over_budget_is_refused_before_the_release(
        self, tmp_path, dataset, capsys, monkeypatch, command
    ):
        # 624 releases of delta = 0.01 total 6.24, far over 1/624.
        def no_trial(*args, **kwargs):
            raise AssertionError("a release was made or a trial ran")

        monkeypatch.setattr(cli, "input_release", no_trial)
        monkeypatch.setattr(cli, "fit_release", no_trial)
        body = BASE_CONFIG.format(data=dataset, kind="input") + INPUT_PRIVACY + TUNE_ONE_TRIAL
        cfg = write_config(tmp_path, body.replace("delta = 1e-6", "delta = 0.01"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), command]) == 2
        err = capsys.readouterr().err
        assert "error: [privacy]: delta=0.01 fails the budget check over 624 samples" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("old, new", [
        ("epsilon = 0.5", "epsilon = 1.5"),
        ("epsilon = 0.5\n", ""),
    ])
    def test_bad_input_privacy_is_refused_before_any_trial(
        self, tmp_path, dataset, capsys, monkeypatch, old, new
    ):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "fit_release", no_trial)
        monkeypatch.setattr(cli, "run_nonprivate", no_trial)
        body = BASE_CONFIG.format(data=dataset, kind="input") + INPUT_PRIVACY + TUNE_ONE_TRIAL
        cfg = write_config(tmp_path, body.replace(old, new))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "tune"]) == 2
        err = capsys.readouterr().err
        assert "[privacy]" in err and "Traceback" not in err
