"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import gc
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ehadc import cli, floattext
from ehadc.cli import SWEEP_COLUMNS, _parse_values, main, summarize, write_trace_csv
from ehadc.config import build_scenario, parse_config, scenario_with
from ehadc.engine import run
from ehadc.errors import ConfigError
from ehadc.frontend import IDEAL_R_FLOOR, Switch
from ehadc.sar_adc import AdcConfig

from oracles import make_trace, reference_trace_csv
from test_engine import small_scenario, trace_bytes

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

# A pass-transistor S1 for FAST_CFG.
PASS_S1 = """\
switch.s1.type = pass
switch.s1.k_gain = 2.0
switch.s1.v_th = 0.4
switch.s1.v_gate = 1.8
"""

# (--param, --values, config text, that text with the swept line as a
# {} field): one case per alias, and keys no alias names.
SWEEP_CASES = [
    ("alpha", "0.1,0.2", FAST_CFG, FAST_CFG.replace("clock.alpha = 0.1", "clock.alpha = {}")),
    ("f_s", "10e3,20e3", FAST_CFG, FAST_CFG.replace("clock.f_s_hz = 10e3", "clock.f_s_hz = {}")),
    ("c_eh", "1e-9,2e-9", FAST_CFG, FAST_CFG.replace("eh.c_eh_f = 1e-9", "eh.c_eh_f = {}")),
    ("v_drop", "0.05,0.15", FAST_CFG, FAST_CFG + "eh.v_drop_v = {}\n"),
    ("n_bits", "6,8", FAST_CFG, FAST_CFG.replace("adc.n_bits = 8", "adc.n_bits = {}")),
    ("r_on_s1", "0.5,1", FAST_CFG + PASS_S1, FAST_CFG + "switch.s1.type = constant\nswitch.s1.r_on = {}\n"),
    ("signal.m_cycles", "3,7", FAST_CFG, FAST_CFG.replace("signal.m_cycles = 5", "signal.m_cycles = {}")),
    ("engine.settling_factor_k", "2,5", FAST_CFG, FAST_CFG + "engine.settling_factor_k = {}\n"),
    ("clock.n_periods", "32,64", FAST_CFG, FAST_CFG.replace("clock.n_periods = 64", "clock.n_periods = {}")),
]

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


def edge_trace():
    """7 periods of 2 sub-steps per phase, with the float values whose text is
    easiest to get wrong, in the t and v_in columns too: a run's grid and
    input never hold them, so the trace's inputs(rows) returns given arrays."""
    inf, nan = float("inf"), float("nan")
    plain = (5, 6)
    return make_trace(
        t_aq=[[4 * p + j for j in (0, 1, 2)] for p in range(4)] + [[nan, 0.0, -0.0]]
        + [[4 * p + j for j in (0, 1, 2)] for p in plain],
        t_eh=[[4 * p + j for j in (2, 3, 4)] for p in range(4)] + [[nan, 1e16, 9999999999999998.0]]
        + [[4 * p + j for j in (2, 3, 4)] for p in plain],
        v_in_aq=[[nan, 0.0, -0.0], [nan, 0.1, 0.1], [nan, 1 / 3, 2 / 3],
                 [nan, -0.0, 0.0], [nan, inf, -inf], [nan, 0.5, 0.5], [nan, 0.25, 0.5]],
        v_in_eh=[[nan, 0.1, -0.1], [nan, 0.2, 0.2], [nan, nan, nan],
                 [nan, 5e-324, -5e-324], [nan, 0.3, 0.3], [nan, 0.5, 0.25], [nan, 0.25, 0.25]],
        dac_aq=[[0.1, 0.0], [-0.0, 0.25], [0.25, 0.25], [nan, nan], [inf, -inf],
                [0.5, 0.5], [0.0, 0.25]],
        ceh_eh=[[5e-324, 1e-05], [0.0001, 1e16], [9999999999999998.0, 1e16],
                [inf, -inf], [nan, -0.0], [0.0, -0.0], [inf, inf]],
        dac_level=[-0.0, 0.25, 0.25, 0.0, -0.0, 0.5, 0.25],
    )


def with_layout(trace, order):
    """A copy of trace with its stored per-phase arrays in the given memory
    order."""
    fields = ("dac_aq", "ceh_eh")
    return dataclasses.replace(trace, **{f: np.array(getattr(trace, f), order=order) for f in fields})


class TestTraceWriter:
    def test_run_trace_matches_the_reference_writer(self, tmp_path):
        scenario, options = build_scenario(parse_config(FAST_CFG))
        trace = run(scenario, spectral=options.spectral, eh=options.eh).trace
        write_trace_csv(trace, tmp_path / "blocks.csv")
        reference_trace_csv(trace, tmp_path / "reference.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_edge_values_match_the_reference_writer(self, tmp_path, monkeypatch):
        # 7 periods of 2 sub-steps per phase (4 rows each) in blocks of 2
        # periods, so the last block is short. The held 0.25 in v_dac and the
        # held 1e16 in v_ceh run across the first block boundary. In v_dac
        # and in the harvest's v_ceh, 0.0 and -0.0 follow each other inside
        # one block (equal as floats, not in repr); the harvest's v_ceh holds
        # inf, -inf and nan, which repr formats, and a run of inf. v_ceh passes
        # where repr switches notation. Column 0 of grids and inputs is the
        # phase start, which is not a row.
        monkeypatch.setattr(cli, "_TRACE_BLOCK_ROWS", 8)
        trace = edge_trace()
        write_trace_csv(trace, tmp_path / "blocks.csv")
        reference_trace_csv(trace, tmp_path / "reference.csv")
        text = (tmp_path / "blocks.csv").read_text()
        assert text == (tmp_path / "reference.csv").read_text()
        lines = text.splitlines()
        assert len(lines) == 1 + 7 * 4
        assert [line.split(",")[3] for line in lines[2:4]] == ["0.0", "-0.0"]
        harvest_v_ceh = [line.split(",")[4] for k in range(3, 7) for line in lines[3 + 4 * k : 5 + 4 * k]]
        assert harvest_v_ceh == ["inf", "-inf", "nan", "-0.0", "0.0", "-0.0", "inf", "inf"]

    def test_held_storage_voltages_across_blocks_match_the_reference_writer(
        self, tmp_path, monkeypatch, repo_root
    ):
        """A short lowfreq run in blocks of 8 periods, one floattext chunk
        each: the storage cap holds its voltage across block edges."""
        cfg = (repo_root / "configs" / "lowfreq.cfg").read_text()
        for key, value in (("clock.n_periods", 256), ("engine.n_sub", 16), ("engine.n_fft", 256)):
            cfg = re.sub(rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}", cfg, flags=re.M)
        scenario, _ = build_scenario(parse_config(cfg))
        trace = run(scenario, spectral=False, eh=False).trace
        monkeypatch.setattr(cli, "_TRACE_BLOCK_ROWS", 8 * 2 * 16)
        ceh = trace.ceh_eh.ravel()
        edges = np.arange(1, 256 // 8) * 8 * 16  # the first cell of each later block
        assert (ceh[edges] == ceh[edges - 1]).sum() > 5
        chunks = []
        fill = floattext._fill
        monkeypatch.setattr(floattext, "_fill", lambda x, out: chunks.append(len(x)) or fill(x, out))
        write_trace_csv(trace, tmp_path / "blocks.csv")
        reference_trace_csv(trace, tmp_path / "reference.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert len(chunks) == 256 // 8

    def test_memory_order_of_the_trace_does_not_change_the_bytes(self, tmp_path, monkeypatch):
        """A run stores its acquisition arrays sub-step-major; period-major and
        sub-step-major copies of a trace write the same file, also in short
        blocks that cut the arrays into slices contiguous in neither order."""
        scenario, options = build_scenario(parse_config(FAST_CFG))
        traces = {"edge": edge_trace(), "run": run(scenario, spectral=False, eh=False).trace}
        monkeypatch.setattr(cli, "_TRACE_BLOCK_ROWS", 8)
        for name, trace in traces.items():
            texts = set()
            for order in "CF":
                write_trace_csv(with_layout(trace, order), tmp_path / f"{name}-{order}.csv")
                texts.add((tmp_path / f"{name}-{order}.csv").read_bytes())
            assert len(texts) == 1, name

    def test_memory_does_not_grow_with_the_row_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_TRACE_BLOCK_ROWS", 512)
        rng = np.random.default_rng(0)
        nsub = 64

        def peak(n_blocks):
            nper = n_blocks * cli._TRACE_BLOCK_ROWS // (2 * nsub)
            grid = np.cumsum(rng.random((nper, nsub + 1)), axis=1)
            trace = make_trace(
                grid,
                grid + nsub,
                rng.standard_normal((nper, nsub + 1)),
                rng.standard_normal((nper, nsub + 1)),
                rng.standard_normal((nper, nsub)),
                rng.standard_normal((nper, nsub)),
                rng.standard_normal(nper),
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


class TestPeakMemory:
    """Memory of a run and its trace writer, measured with tracemalloc only,
    so it reads the same under any allocator."""

    def test_trace_stores_the_solver_outputs_and_per_period_arrays(self, lowfreq_run):
        trace = lowfreq_run[0].trace
        nper, nsub = trace.dac_aq.shape
        assert trace_bytes(trace) == (2 * nsub + 1) * 8 * nper, trace_bytes(trace)

    def test_run_and_trace_writer_peak_under_10_mib(self, lowfreq_scenario, tmp_path):
        """Neither phase holds a whole-run grid or input: the engine peaks at
        its outputs plus one block, under 8 MiB, and the writer at the
        trace plus one block, under 10 MiB."""
        from ehadc import floattext  # noqa: F401  (module set-up is not per-run memory)

        run(lowfreq_scenario)  # first-call set-up is not per-run memory
        tracemalloc.start()
        try:
            trace = run(lowfreq_scenario).trace
            engine_peak = tracemalloc.get_traced_memory()[1]
            write_trace_csv(trace, tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert engine_peak < 8 * 2**20, engine_peak
        assert peak < 10 * 2**20, peak


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

    def test_infinite_sndr_is_null_in_strict_json(self, tmp_path):
        """With no power in the signal bin SNDR is -inf; summary.json holds
        null for it, as for enob, and stays strict JSON."""
        text = FAST_CFG.replace("amplitude_v = 0.4", "amplitude_v = 1e-9") + "run.metrics = spectral\n"
        out = tmp_path / "results"
        assert main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["sndr_db"] is None and summary["enob"] is None

    def test_summary_json_refuses_non_finite_values(self, tmp_path):
        with pytest.raises(ValueError):
            cli.write_summary_json({"x": float("nan")}, tmp_path / "summary.json")

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
            ({"": "switch.s1.r_on = 0.5\n"}, ":12: switch.s1.r_on is not used by switch type 'auto'"),
            # Too large to allocate: 6.4e9 sub-steps per phase.
            (
                {"n_sub = 8": "n_sub = 100000000"},
                "n_periods 64 x n_sub 100000000 = 6400000000 sub-steps per phase exceeds the cap of 67108864",
            ),
            # A harvest sub-step of 1.25e-19 s, below 8 ulps of the 6.4 ms run.
            (
                {"clock.alpha = 0.1": "clock.alpha = 0.99999999999999"},
                "sub-step width min(t_aq, t_eh)/n_sub = 1.25361e-19 s is not above 8 ulps",
            ),
            # k*c_dac rounds to 0, or to a subnormal whose quotient overflows.
            (
                {"": "engine.settling_factor_k = 5e-324\n"},
                "auto S1 r_on = t_aq/(k*c_dac) = 1e-05 s/(4.94066e-324 x 1.536e-06 F) = inf ohm is not "
                "positive and finite: engine.settling_factor_k = 5e-324, adc.c_unit_f = 1.2e-08",
            ),
            (
                {"adc.c_unit_f = 12e-9": "adc.c_unit_f = 5e-324"},
                "= inf ohm is not positive and finite: engine.settling_factor_k = 6.238324625039508, "
                "adc.c_unit_f = 5e-324",
            ),
            (
                {"": "engine.settling_factor_k = 1e-310\n"},
                "= inf ohm is not positive and finite: engine.settling_factor_k = 1e-310, adc.c_unit_f = 1.2e-08",
            ),
            # An explicit S1 whose r_on*c_dac underflows to 0, or to a
            # subnormal whose quotient overflows; a pass switch whose k_gain
            # times its largest overdrive overflows.
            (
                {"": "switch.s1.type = constant\nswitch.s1.r_on = 5e-324\n"},
                "adc.c_unit_f = 1.2e-08 F is below 1.97658e+08 F: the acquisition sub-step 1.25e-06 s would "
                "span more than 1e307 time constants of 4.94066e-324 ohm x 1.536e-06 F",
            ),
            (
                {"": "switch.s1.type = constant\nswitch.s1.r_on = 1e-310\n"},
                "adc.c_unit_f = 1.2e-08 F is below 9.76562e-06 F",
            ),
            (
                {"adc.c_unit_f = 12e-9": "adc.c_unit_f = 1e-300",
                 "": "switch.s1.type = constant\nswitch.s1.r_on = 1e-20\n"},
                "adc.c_unit_f = 1e-300 F is below 9.76562e-296 F",
            ),
            (
                {"": "switch.s1.type = pass\nswitch.s1.k_gain = 1e308\n"
                     "switch.s1.v_th = 0.4\nswitch.s1.v_gate = 1.8\n"},
                "switch.s1.k_gain = 1e+308 is above 9.98718e+307: times the overdrive 1.8 V at the "
                "acquisition drive -0.4 V, it is not finite",
            ),
            (
                {"": "switch.s2.type = pass\nswitch.s2.k_gain = 1e308\n"
                     "switch.s2.v_th = 0.4\nswitch.s2.v_gate = 5\n"},
                "switch.s2.k_gain = 1e+308 is above 3.90803e+307: times the overdrive 4.6 V at the "
                "harvest drive 0 V, it is not finite",
            ),
            # With no signal.p_in_w, the sine power A**2/(2*r_source)
            # overflows, or underflows to 0 where eta_e divides by it.
            (
                {"signal.amplitude_v = 0.4": "signal.amplitude_v = 1e155"},
                "signal.amplitude_v = 1e+155 V into signal.r_source_ohm = 50.0 ohm gives a sine input power "
                "A**2/(2*r_source) of inf W, which is not positive and finite: without signal.p_in_w the "
                "amplitude must lie between about 2.22276e-161 and 1.34078e+154 V",
            ),
            (
                {"signal.amplitude_v = 0.4": "signal.amplitude_v = 1e-163"},
                "of 0.0 W, which is not positive and finite",
            ),
            # The stimulus sits on bin 0, or on bin n_fft/2 = 8.
            (
                {"signal.m_cycles = 5": "signal.freq_hz = 1e-6"},
                "signal bin 0 outside (0, n_fft/2)",
            ),
            (
                {"signal.m_cycles = 5": "signal.freq_hz = 4999.9999999"},
                "signal bin 8 outside (0, n_fft/2)",
            ),
        ],
        ids=["steady_tol=2", "steady_tol=0", "k=-1", "k=0", "n_fft=20", "p_in_w=-1", "auto-r_on", "n_sub=1e8",
             "alpha=1-1e-14", "k=5e-324", "c_unit=5e-324", "k=1e-310", "s1-r_on=5e-324", "s1-r_on=1e-310",
             "c_unit=1e-300", "s1-k_gain=1e308", "s2-k_gain=1e308", "amplitude=1e155", "amplitude=1e-163",
             "freq=1e-6", "freq=fs/2-1e-7"],
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


class TestUnusableOutputDirectory:
    """An output directory that cannot be one is a usage error (exit 2),
    found before the transient, and nothing is written."""

    @pytest.fixture
    def no_transient(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the transient ran")

        monkeypatch.setattr(cli, "run", fail)
        monkeypatch.setattr(cli, "sweep", fail)
        monkeypatch.setattr(cli, "_read_codes_csv", fail)

    def test_empty_out_dir_key_exits_2(self, tmp_path, capsys, no_transient):
        cfg = write_cfg(tmp_path, FAST_CFG + "run.out_dir =\n")
        assert main(["run", cfg]) == 2
        assert ":12: run.out_dir must not be empty" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.cfg"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "CFG"],
            ["sweep", "CFG", "--param", "alpha", "--values", "0.1,0.2"],
            ["analyze", "CFG", "--n-bits", "8", "--v-ref", "0.4", "--f-s", "10e3"],
        ],
        ids=["run", "sweep", "analyze"],
    )
    @pytest.mark.parametrize("below", ["", "sub/dir"])
    def test_out_path_at_or_under_a_file_exits_2(self, tmp_path, capsys, no_transient, argv, below):
        cfg = write_cfg(tmp_path, FAST_CFG)
        out = str(tmp_path / "scenario.cfg" / below)
        argv = [cfg if a == "CFG" else a for a in argv]
        assert main([*argv, "--out", out]) == 2
        assert f"output directory {out!r} is unusable: {cfg} is not a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.cfg"]
        assert (tmp_path / "scenario.cfg").read_text() == FAST_CFG


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

    def test_workers_flush_none_of_the_parents_output(self, tmp_path, capfd, monkeypatch):
        """At --jobs 2, text the parent's block-buffered stdout holds when it
        forks, and its wrote line, each reach fd 1 exactly once."""
        cfg = write_cfg(tmp_path, FAST_CFG + "run.metrics =\n")
        out = tmp_path / "sweep_out"
        stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(1), "w")))
        monkeypatch.setattr(sys, "stdout", stdout)
        stdout.write("pending ")
        argv = ["sweep", cfg, "--param", "alpha", "--values", "0.1,0.2", "--jobs", "2", "--out", str(out)]
        assert main(argv) == 0
        stdout.close()
        assert capfd.readouterr().out == f"pending wrote {out / 'sweep.csv'}\n"

    def test_range_never_passes_its_stop(self):
        assert _parse_values("0:1:0.6") == [0.0, 0.6]
        # Exact decimal steps: no 0.15000000000000002 or 0.7000000000000001.
        assert _parse_values("0.05:0.3:0.05") == [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
        assert _parse_values("0.1:0.7:0.1") == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]

    def test_range_is_counted_before_it_is_built(self):
        assert len(_parse_values("1:65536:1")) == 2**16
        with pytest.raises(ValueError, match="range '0:65536:1' has 65537 values, more than the cap of 65536"):
            _parse_values("0:65536:1")
        # 10^18 + 1 values: refused at once, not after building them.
        with pytest.raises(ValueError, match="has 1000000000000000001 values"):
            _parse_values("0:1:1e-18")

    def test_a_comma_list_has_the_range_cap(self, tmp_path, capsys):
        """A comma list is refused above 2**16 values as a range is, and the
        sweep exits 2 before it runs a row."""
        assert len(_parse_values(",".join(["0.1"] * 2**16))) == 2**16
        values = ",".join(["0.1"] * 65541)
        with pytest.raises(ValueError, match="value list has 65541 values, more than the cap of 65536"):
            _parse_values(values)
        out = tmp_path / "sweep_out"
        argv = ["sweep", write_cfg(tmp_path, FAST_CFG), "--param", "alpha", "--values", values]
        assert main([*argv, "--out", str(out)]) == 2
        assert "value list has 65541 values, more than the cap of 65536" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param, values, base, point", SWEEP_CASES, ids=[c[0] for c in SWEEP_CASES])
    def test_metric_cells_equal_the_run_summary(self, tmp_path, param, values, base, point):
        """Each metric cell of a sweep row is the repr of the same key in the
        summary.json of a standalone run of the config with that line edited
        to the row's value."""
        assert point.count("{}") == 1
        cfg = write_cfg(tmp_path, base)
        out = tmp_path / "sweep_out"
        assert main(["sweep", cfg, "--param", param, "--values", values, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == ["parameter", "value", *SWEEP_COLUMNS, "error"]
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] == param and cells[-1] == ""
            value = float(cells[1])
            text = point.format(int(value) if value.is_integer() else value)
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
        with pytest.raises(ConfigError) as exc:
            scenario_with(parse_config(FAST_CFG), "n_bits", 17.0)
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

    @pytest.mark.parametrize("param", ["v_ref", "switch.s1.type", "run.out_dir"])
    def test_unknown_or_text_key_is_a_usage_error(self, tmp_path, param):
        cfg = write_cfg(tmp_path, FAST_CFG)
        out = tmp_path / "sweep_out"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", cfg, "--param", param, "--values", "0.4", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_bad_range_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_CFG)
        assert main(["sweep", cfg, "--param", "alpha", "--values", "0.5:0.1:0.1"]) == 2
        assert "range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values, message",
        [
            ("1:2", "range syntax is start:stop:step"),
            ("0:inf:0.1", "bad range '0:inf:0.1'"),
            ("0:1:1e-12", "range '0:1:1e-12' has 1000000000001 values, more than the cap of 65536"),
            ("", "no sweep values"),
            (",", "no sweep values"),
        ],
        ids=["two-part-range", "infinite-range", "huge-range", "empty", "comma"],
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

        not_whole = "key 'adc.n_bits' needs a whole number, got {}".format
        assert sweep_rows("4:6:0.5") == [
            ("4.0", ""),
            ("4.5", not_whole(4.5)),
            ("5.0", ""),
            ("5.5", not_whole(5.5)),
            ("6.0", ""),
        ]
        assert sweep_rows("inf,8") == [("inf", not_whole(float("inf"))), ("8.0", "")]


class TestSummarize:
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
            # Without --signal-bin too: the auto-detect probe must not name a bin.
            (["--n-bits", "8", "--n-fft", "2"],
             "n_fft must be at least 4 to hold a bin between 0 and n_fft/2, got 2"),
            # The codes are 7*k mod 256; the first one from 128 up is 133 (k = 19).
            (["--n-bits", "7"], "code 133 lies outside [0, 128) for n_bits = 7"),
            (["--n-bits", "8", "--f-s", "0"], "f_s must be positive and finite, got 0.0"),
            (["--n-bits", "8", "--f-s=-1e4"], "f_s must be positive and finite, got -10000.0"),
            (["--n-bits", "8", "--f-s", "nan"], "f_s must be positive and finite, got nan"),
            (["--n-bits", "8", "--v-ref", "inf"], "v_ref must be positive and finite, got inf"),
            (["--n-bits", "8", "--v-ref", "nan"], "v_ref must be positive and finite, got nan"),
            # Its spectrum's squared bins would overflow.
            (["--n-bits", "8", "--v-ref", "1e300"], "v_ref must be at most 1e+100 V, got 1e+300"),
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


@pytest.mark.filterwarnings("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["run", "{cfg}", "--out", "{out}"],
        ["sweep", "{cfg}", "--param", "alpha", "--values", "0.1,0.2", "--jobs", "1", "--out", "{out}"],
        ["sweep", "{cfg}", "--param", "alpha", "--values", "0.1,0.2", "--jobs", "2", "--out", "{out}"],
        ["analyze", "{codes}", "--n-bits", "8", "--v-ref", "0.4", "--f-s", "10e3", "--n-fft", "16",
         "--out", "{out}"],
        ["size-cap", "--i-load", "1e-6", "--t-p", "1e-3", "--delta-v", "0.1"],
    ],
    ids=["run", "sweep-jobs1", "sweep-jobs2", "analyze", "size-cap"],
)
def test_no_command_leaves_a_file_for_shutdown_to_close(tmp_path, capsys, argv):
    """The ehadc command freezes every live object at exit (ehadc.__main__),
    so a file a command left open in a reference cycle would lose its
    buffered text without a warning. Every file each command opens is closed
    when it returns: collecting after it finalises none."""
    codes = tmp_path / "codes.csv"
    codes.write_text("code\n" + "".join(f"{(7 * k) % 256}\n" for k in range(16)))
    fields = {"cfg": write_cfg(tmp_path, FAST_CFG), "out": str(tmp_path / "out"), "codes": str(codes)}
    assert main([arg.format(**fields) for arg in argv]) == 0
    gc.collect()
    assert capsys.readouterr().err == ""


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ehadc", "size-cap",
         "--i-load", "1e-3", "--t-p", "1e-4", "--delta-v", "1e-3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert float(proc.stdout) == 1e-4
