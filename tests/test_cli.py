"""End-to-end tests of the command-line interface."""

import csv
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ehadc import cli
from ehadc.cli import SWEEP_COLUMNS, _parse_values, main, summarize, write_trace_csv
from ehadc.clocking import PHASE_LABELS, Phase
from ehadc.config import build_scenario, parse_config
from ehadc.engine import TransientTrace, apply_parameter, run
from ehadc.errors import ValidationError
from ehadc.frontend import IDEAL_R_FLOOR, Switch
from ehadc.sar_adc import AdcConfig
from ehadc.stimulus import TableSource

from test_engine import small_scenario

FAST_CFG = """\
signal.amplitude_v = 0.4
signal.m_cycles = 5
clock.f_s_hz = 10e3
clock.alpha = 0.1
clock.n_periods = 64
adc.n_bits = 8
adc.v_ref = 0.4
adc.c_unit_f = 12e-9
eh.c_eh_f = 1e-9
engine.n_sub = 8
engine.n_fft = 16
"""

SUMMARY_KEYS = [
    "f_s_hz",
    "t_s_s",
    "t_aq_s",
    "t_eh_s",
    "alpha",
    "f_in_hz",
    "n_bits",
    "v_ref_v",
    "c_dac_f",
    "s1_r_on_ohm",
    "c_eh_f",
    "v_drop_v",
    "r_series_ohm",
    "p_in_w",
    "p_in_provenance",
    "v_eh_v",
    "t_ceh_s",
    "eta_v",
    "eta_e",
    "e_h_j",
    "sndr_db",
    "enob",
]


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def reference_trace_csv(trace, path):
    """The plain per-row writer that write_trace_csv must match byte for byte."""
    with open(path, "w", newline="") as fh:
        fh.write("t_s,v_in,phase,v_dac,v_ceh\n")
        labels = [PHASE_LABELS[Phase(int(p))] for p in (0, 1)]
        fh.writelines(
            f"{t!r},{vi!r},{labels[ph]},{vd!r},{vc!r}\n"
            for t, vi, ph, vd, vc in zip(
                trace.t.tolist(),
                trace.v_in.tolist(),
                trace.phase.tolist(),
                trace.v_dac.tolist(),
                trace.v_ceh.tolist(),
            )
        )


def make_trace(t, v_in, phase, v_dac, v_ceh):
    return TransientTrace(
        t=np.asarray(t, dtype=np.float64),
        v_in=np.asarray(v_in, dtype=np.float64),
        phase=np.asarray(phase, dtype=np.uint8),
        v_dac=np.asarray(v_dac, dtype=np.float64),
        v_ceh=np.asarray(v_ceh, dtype=np.float64),
        codes=np.zeros(1, dtype=np.int64),
        v_sampled=np.zeros(1),
        saturated=np.zeros(1, dtype=bool),
        period_s=1.0,
    )


class TestTraceWriter:
    def test_run_trace_matches_the_reference_writer(self, tmp_path):
        scenario, options = build_scenario(parse_config(FAST_CFG))
        trace = run(scenario, spectral=options.spectral, eh=options.eh).trace
        write_trace_csv(trace, tmp_path / "blocks.csv")
        reference_trace_csv(trace, tmp_path / "reference.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_edge_values_match_the_reference_writer(self, tmp_path, monkeypatch):
        # 13 rows in blocks of 5: the held 0.25 in v_dac runs across the first
        # block boundary, 0.0 is followed by -0.0 (equal as floats, not in
        # repr), and v_ceh passes where repr switches notation.
        monkeypatch.setattr(cli, "_TRACE_CHUNK", 5)
        inf, nan = float("inf"), float("nan")
        trace = make_trace(
            t=[k * 1e-4 for k in range(13)],
            v_in=[0.0, -0.0, 0.1, 0.1, -0.1, 1 / 3, 2 / 3, 0.2, 0.2, -0.0, 0.0, 0.3, 0.3],
            phase=[0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1],
            v_dac=[0.1, 0.0, -0.0, 0.25, 0.25, 0.25, 0.25, -0.0, 0.0, nan, nan, inf, -inf],
            v_ceh=[5e-324, 5e-324, 1e-05, 0.0001, 1e16, 9999999999999998.0, 1e16,
                   inf, inf, -inf, nan, 0.0, -0.0],
        )
        write_trace_csv(trace, tmp_path / "blocks.csv")
        reference_trace_csv(trace, tmp_path / "reference.csv")
        text = (tmp_path / "blocks.csv").read_text()
        assert text == (tmp_path / "reference.csv").read_text()
        assert [line.split(",")[3] for line in text.splitlines()[2:4]] == ["0.0", "-0.0"]

    def test_memory_does_not_grow_with_the_row_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_TRACE_CHUNK", 512)
        rng = np.random.default_rng(0)

        def peak(n_blocks):
            rows = n_blocks * cli._TRACE_CHUNK
            trace = make_trace(
                rng.standard_normal(rows),
                rng.standard_normal(rows),
                np.arange(rows) % 2,
                rng.standard_normal(rows),
                rng.standard_normal(rows),
            )
            tracemalloc.start()
            try:
                write_trace_csv(trace, tmp_path / "trace.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call set-up is not per-block memory
        small, large = peak(4), peak(64)
        assert large <= 1.5 * small, (small, large)


class TestRunCommand:
    def test_writes_all_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_CFG)
        out = tmp_path / "results"
        assert main(["run", cfg, "--out", str(out)]) == 0
        for name in ("trace.csv", "codes.csv", "spectrum.csv", "summary.json"):
            assert (out / name).exists()

        summary = json.loads((out / "summary.json").read_text())
        assert list(summary.keys()) == SUMMARY_KEYS
        assert summary["n_bits"] == 8
        assert summary["p_in_provenance"] == "computed_from_source"
        assert summary["v_eh_v"] > 0.0

        trace_lines = (out / "trace.csv").read_text().strip().splitlines()
        assert trace_lines[0] == "t_s,v_in,phase,v_dac,v_ceh"
        assert len(trace_lines) == 1 + 2 * 8 * 64
        assert trace_lines[1].split(",")[2] == "acq"
        assert trace_lines[9].split(",")[2] == "eh"

        codes_lines = (out / "codes.csv").read_text().strip().splitlines()
        assert codes_lines[0] == "period,code,v_sampled,saturated"
        assert len(codes_lines) == 1 + 64
        first = codes_lines[1].split(",")
        assert first[0] == "0" and first[3] in ("0", "1")

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_CFG)
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
        for name in ("trace.csv", "codes.csv", "spectrum.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_rerun_without_spectral_metrics_removes_the_old_spectrum(self, tmp_path):
        out = tmp_path / "results"
        assert main(["run", write_cfg(tmp_path, FAST_CFG), "--out", str(out)]) == 0
        assert (out / "spectrum.csv").exists()
        eh_only = write_cfg(tmp_path, FAST_CFG + "run.metrics = eh\n", name="eh_only.cfg")
        assert main(["run", eh_only, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["codes.csv", "summary.json", "trace.csv"]
        assert json.loads((out / "summary.json").read_text())["sndr_db"] is None

    def test_env_var_overrides_the_output_directory(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, FAST_CFG)
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("ESAMPLE_OUT_DIR", str(env_out))
        assert main(["run", cfg, "--out", str(tmp_path / "ignored")]) == 0
        assert (env_out / "summary.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_out_dir_key_picks_the_directory(self, tmp_path):
        out = tmp_path / "from_key"
        assert main(["run", write_cfg(tmp_path, FAST_CFG + f"run.out_dir = {out}\n")]) == 0
        assert (out / "summary.json").exists()

    def test_config_error_exits_2_without_partial_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_CFG + "bogus.key = 1\n")
        out = tmp_path / "results"
        assert main(["run", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "bogus.key" in err and ":12:" in err

    def test_not_converged_exits_3_without_partial_outputs(self, tmp_path, capsys):
        # A huge storage cap cannot reach steady state in 64 periods.
        text = FAST_CFG.replace("eh.c_eh_f = 1e-9", "eh.c_eh_f = 100e-6")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "results"
        assert main(["run", cfg, "--out", str(out)]) == 3
        assert not out.exists()
        assert "not converged" in capsys.readouterr().err

    def test_failed_write_leaves_no_partial_outputs(self, tmp_path, monkeypatch):

        def fail(trace, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_codes_csv", fail)
        out = tmp_path / "results"
        with pytest.raises(OSError):
            main(["run", write_cfg(tmp_path, FAST_CFG), "--out", str(out)])
        assert not (out / "trace.csv").exists()
        assert list(out.iterdir()) == []

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 2
        assert "absent.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({"": "eh.steady_tol = 2\n"}, "steady_tol must lie in (0, 1), got 2.0"),
            ({"": "eh.steady_tol = 0\n"}, "steady_tol must lie in (0, 1), got 0.0"),
            ({"": "engine.settling_factor_k = -1\n"}, "settling_factor_k must be positive, got -1.0"),
            ({"": "engine.settling_factor_k = 0\n"}, "settling_factor_k must be positive, got 0.0"),
            # 2.5 kHz is coherent with a 20-point record at 10 kHz; only its length is wrong.
            (
                {"signal.m_cycles = 5": "signal.freq_hz = 2500", "n_fft = 16": "n_fft = 20"},
                "n_fft must be a power of two, got 20",
            ),
            ({"": "signal.p_in_w = -1\n"}, ":12: signal.p_in_w must be positive, got -1.0"),
        ],
        ids=["steady_tol=2", "steady_tol=0", "k=-1", "k=0", "n_fft=20", "p_in_w=-1"],
    )
    def test_bad_scenario_values_exit_2_before_the_transient(
        self, tmp_path, capsys, edits, message
    ):
        text = FAST_CFG
        for old, new in edits.items():  # an empty key appends its line
            text = text.replace(old, new) if old else text + new
        out = tmp_path / "results"
        assert main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_range_syntax_produces_inclusive_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_CFG + "run.metrics =\n")
        out = tmp_path / "sweep_out"
        code = main(
            ["sweep", cfg, "--param", "alpha", "--values", "0.05:0.5:0.05", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "parameter,value,v_eh_v,t_ceh_s,eta_v,eta_e,sndr_db,enob,error"
        assert len(lines) == 1 + 10
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values[0] == 0.05 and values[-1] == pytest.approx(0.5, rel=1e-12)

    def test_comma_list_with_metrics(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_CFG.replace("engine.n_fft = 16", "engine.n_fft = 32"))
        out = tmp_path / "sweep_out"
        code = main(
            ["sweep", cfg, "--param", "c_eh", "--values", "1e-9,2e-9", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        row = lines[1].split(",")
        assert row[0] == "c_eh" and float(row[2]) > 0.0

    def test_range_never_passes_its_stop(self):
        assert _parse_values("0:1:0.6") == [0.0, 0.6]
        assert _parse_values("0.05:0.3:0.05") == [0.05 + i * 0.05 for i in range(6)]

    def test_metric_cells_equal_the_run_summary(self, tmp_path):
        """Each metric cell of a sweep row is the repr of the same key in the
        summary.json of a standalone run at that value."""
        cfg = write_cfg(tmp_path, FAST_CFG)
        out = tmp_path / "sweep_out"
        assert main(["sweep", cfg, "--param", "alpha", "--values", "0.1,0.2", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == ["parameter", "value", *SWEEP_COLUMNS, "error"]
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[-1] == ""
            text = FAST_CFG.replace("clock.alpha = 0.1", f"clock.alpha = {cells[1]}")
            run_out = tmp_path / f"run_{cells[1]}"
            assert main(["run", write_cfg(tmp_path, text, "point.cfg"), "--out", str(run_out)]) == 0
            summary = json.loads((run_out / "summary.json").read_text())
            assert cells[2:-1] == [repr(summary[k]) for k in SWEEP_COLUMNS]

    def test_error_cell_is_one_quoted_field(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_CFG + "run.metrics =\n")
        out = tmp_path / "sweep_out"
        assert main(["sweep", cfg, "--param", "n_bits", "--values", "4,17", "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [9, 9, 9]
        base, _ = build_scenario(parse_config(FAST_CFG))
        with pytest.raises(ValidationError) as exc:
            apply_parameter(base, "n_bits", 17.0)
        assert "," in str(exc.value)
        assert rows[2][-1] == str(exc.value)

    def test_failed_write_keeps_the_previous_sweep(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, FAST_CFG + "run.metrics =\n")
        out = tmp_path / "sweep_out"
        argv = ["sweep", cfg, "--param", "alpha", "--values", "0.1,0.2", "--out", str(out)]
        assert main(argv) == 0
        previous = (out / "sweep.csv").read_bytes()

        class FullDisk:
            """A file that takes its first write, then fails like a full disk."""

            def __init__(self, *args, **kwargs):
                self.fh = open(*args, **kwargs)
                self.writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(28, "No space left on device")
                return self.fh.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(cli, "open", FullDisk, raising=False)
        with pytest.raises(OSError):
            main(argv)
        assert (out / "sweep.csv").read_bytes() == previous
        assert [p.name for p in out.iterdir()] == ["sweep.csv"]

    def test_unknown_parameter_is_a_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", cfg, "--param", "v_ref", "--values", "0.4"])
        assert exc.value.code == 2

    def test_bad_range_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_CFG)
        assert main(["sweep", cfg, "--param", "alpha", "--values", "0.5:0.1:0.1"]) == 2
        assert "range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values, message",
        [("1:2", "range syntax is start:stop:step"), ("", "no sweep values"), (",", "no sweep values")],
        ids=["two-part-range", "empty", "comma"],
    )
    def test_bad_value_list_exits_2(self, tmp_path, capsys, values, message):
        out = tmp_path / "sweep_out"
        argv = ["sweep", write_cfg(tmp_path, FAST_CFG), "--param", "alpha", "--values", values]
        assert main([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        out = tmp_path / "sweep_out"
        argv = ["sweep", write_cfg(tmp_path, FAST_CFG), "--param", "alpha", "--values", "0.1,0.2"]
        assert main([*argv, f"--jobs={jobs}", "--out", str(out)]) == 2
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_n_bits_values_must_be_whole_numbers(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_CFG + "run.metrics =\n")
        out = tmp_path / "sweep_out"

        def sweep_rows(values):
            argv = ["sweep", cfg, "--param", "n_bits", "--values", values, "--out", str(out)]
            assert main(argv) == 0
            with open(out / "sweep.csv", newline="") as fh:
                return [(row[1], row[-1]) for row in list(csv.reader(fh))[1:]]

        not_whole = "n_bits must be a whole number, got {}".format
        assert sweep_rows("4:6:0.5") == [
            ("4.0", ""),
            ("4.5", not_whole(4.5)),
            ("5.0", ""),
            ("5.5", not_whole(5.5)),
            ("6.0", ""),
        ]
        assert sweep_rows("inf,8") == [("inf", not_whole(float("inf"))), ("8.0", "")]


class TestSummarize:
    def test_table_source_without_input_power_is_a_validation_error(self):
        scenario = small_scenario(source=TableSource(times=(0.0, 1.0), volts=(0.35, 0.35)))
        result = run(scenario, spectral=False, eh=False)
        with pytest.raises(ValidationError):
            summarize(scenario, result)

    def test_ideal_s1_reports_the_resistance_floor(self):
        assert Switch.ideal() == Switch.constant(IDEAL_R_FLOOR)
        scenario = small_scenario(
            adc=AdcConfig(n_bits=8, v_ref=0.4, c_unit=12e-10, s1=Switch.ideal())
        )
        result = run(scenario, spectral=False, eh=False)
        assert summarize(scenario, result)["s1_r_on_ohm"] == IDEAL_R_FLOOR


class TestSizeCapCommand:
    def test_prints_the_capacitance(self, capsys):
        assert main(["size-cap", "--i-load", "1e-3", "--t-p", "1e-4", "--delta-v", "1e-3"]) == 0
        assert float(capsys.readouterr().out) == 1e-4

    def test_second_reference_point(self, capsys):
        assert main(["size-cap", "--i-load", "5e-6", "--t-p", "5e-3", "--delta-v", "1e-3"]) == 0
        assert float(capsys.readouterr().out) == 25e-6

    def test_zero_ripple_exits_2(self, capsys):
        assert main(["size-cap", "--i-load", "1e-3", "--t-p", "1e-4", "--delta-v", "0"]) == 2
        assert "delta_v" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--i-load", "inf", "i_load"),
            ("--i-load", "nan", "i_load"),
            ("--t-p", "inf", "t_p"),
            ("--delta-v", "inf", "delta_v"),
        ],
    )
    def test_non_finite_input_exits_2(self, capsys, flag, value, name):
        args = {"--i-load": "1e-3", "--t-p": "1e-4", "--delta-v": "1e-3", flag: value}
        assert main(["size-cap", *(x for pair in args.items() for x in pair)]) == 2
        assert f"{name} must be" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_reproduces_the_run_sndr_exactly(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_CFG)
        out = tmp_path / "results"
        assert main(["run", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        capsys.readouterr()

        code = main(
            [
                "analyze",
                str(out / "codes.csv"),
                "--n-bits", "8",
                "--v-ref", "0.4",
                "--f-s", "10e3",
                "--n-fft", "16",
                "--out", str(tmp_path / "analysis"),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        lines = dict(line.split(" = ") for line in stdout.strip().splitlines())
        assert int(lines["signal_bin"]) == 5
        assert float(lines["sndr_db"]) == summary["sndr_db"]
        assert float(lines["enob"]) == summary["enob"]
        assert (tmp_path / "analysis" / "spectrum.csv").exists()

    def test_short_record_exits_2(self, tmp_path, capsys):
        path = tmp_path / "codes.csv"
        path.write_text("period,code,v_sampled,saturated\n0,10,0.1,0\n1,12,0.2,0\n")
        code = main(
            ["analyze", str(path), "--n-bits", "8", "--v-ref", "0.4", "--f-s", "10e3",
             "--out", str(tmp_path / "analysis")]
        )
        assert code == 2
        assert "n_fft" in capsys.readouterr().err

    def test_record_without_signal_power_reports_minus_inf(self, tmp_path, capsys):
        # Alternating codes put all AC power at Nyquist, none in any signal bin.
        path = tmp_path / "codes.csv"
        path.write_text("code\n" + "".join(f"{k % 2}\n" for k in range(16)))
        code = main(
            ["analyze", str(path), "--n-bits", "8", "--v-ref", "0.4", "--f-s", "10e3",
             "--n-fft", "16", "--out", str(tmp_path / "analysis")]
        )
        assert code == 0
        lines = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
        assert lines["sndr_db"] == "-inf"
        assert lines["enob"] == "None"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n-bits", "8", "--n-fft", "1000"], "power of two"),
            (["--n-bits", "20"], "n_bits"),
            (["--n-bits", "8", "--signal-bin", "5000"], "signal_bin"),
            (["--n-bits", "8", "--n-fft", "0", "--signal-bin", "41"], "n_fft must be positive"),
            (["--n-bits", "8", "--n-fft", "-4"], "n_fft must be positive"),
            # The codes are 7*k mod 256; the first one from 128 up is 133 (k = 19).
            (["--n-bits", "7"], "code 133 lies outside [0, 128) for n_bits = 7"),
            (["--n-bits", "8", "--f-s", "0"], "f_s must be positive and finite, got 0.0"),
            (["--n-bits", "8", "--f-s=-1e4"], "f_s must be positive and finite, got -10000.0"),
            (["--n-bits", "8", "--f-s", "nan"], "f_s must be positive and finite, got nan"),
        ],
    )
    def test_invalid_analysis_arguments_exit_2(self, tmp_path, capsys, flags, message):
        path = tmp_path / "codes.csv"
        path.write_text("code\n" + "".join(f"{(7 * k) % 256}\n" for k in range(1024)))
        out = tmp_path / "analysis"
        code = main(
            ["analyze", str(path), "--v-ref", "0.4", "--f-s", "10e3", "--n-fft", "1024",
             *flags, "--out", str(out)]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [(None, "cannot read codes"), ("code\n1\n2.5\n", "bad code value")],
        ids=["missing-file", "non-integer-code"],
    )
    def test_unreadable_codes_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "codes.csv"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "analysis"
        argv = ["analyze", str(path), "--n-bits", "8", "--v-ref", "0.4", "--f-s", "10e3"]
        assert main([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_default_output_directory_is_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "codes.csv").write_text("code\n" + "".join(f"{(7 * k) % 256}\n" for k in range(16)))
        argv = ["analyze", "codes.csv", "--n-bits", "8", "--v-ref", "0.4", "--f-s", "10e3", "--n-fft", "16"]
        assert main(argv) == 0
        assert (tmp_path / "out" / "spectrum.csv").exists()

    def test_missing_code_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "codes.csv"
        path.write_text("a,b\n1,2\n")
        code = main(
            ["analyze", str(path), "--n-bits", "8", "--v-ref", "0.4", "--f-s", "10e3"]
        )
        assert code == 2
        assert "code" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ehadc", "size-cap",
         "--i-load", "1e-3", "--t-p", "1e-4", "--delta-v", "1e-3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert float(proc.stdout) == 1e-4
