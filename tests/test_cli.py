import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from flowcam.cli import main
from flowcam.matcher import VectorBatch
from flowcam.pipeline import PARAMETER_SETS
from flowcam.sensor_frontend import Frame, write_pgm
from flowcam.wire_format import VectorTable, encode, write_ofv
from oracles import save_config

CLI = [sys.executable, "-m", "flowcam.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}")
    return proc


@pytest.fixture(scope="module")
def still_sequence(tmp_path_factory):
    seq = tmp_path_factory.mktemp("seq")
    run_cli(
        "gen", "--out", seq, "--texture", "blocks", "--seed", 3,
        "--viewport", "272x336", "--motion", "still", "--frames", 12,
        "--frame-rate", 240,
    )
    return seq


class TestGen:
    def test_writes_sequence_files(self, still_sequence):
        assert (still_sequence / "frame_000001.pgm").exists()
        assert (still_sequence / "frame_000012.pgm").exists()
        assert (still_sequence / "ground_truth.csv").exists()
        manifest = (still_sequence / "manifest.txt").read_text()
        assert "texture=blocks" in manifest
        assert "viewport=272x336" in manifest

    def test_translate_velocity_in_ground_truth(self, tmp_path):
        run_cli(
            "gen", "--out", tmp_path / "t", "--texture", "blocks", "--seed", 1,
            "--viewport", "96x96", "--motion", "translate", "--velocity", "2,0",
            "--frames", 4,
        )
        rows = (tmp_path / "t" / "ground_truth.csv").read_text().strip().splitlines()
        assert rows[0].startswith("frame")
        assert rows[2].split(",")[1] == "2.000000"


class TestRun:
    def test_run_on_sequence_writes_outputs(self, still_sequence, tmp_path):
        out = tmp_path / "out"
        proc = run_cli(
            "run", "--param-set", 6, "--seq", still_sequence, "--out", out,
            "--name", "demo",
        )
        assert (out / "demo.ofv").exists()
        assert (out / "demo_summary.csv").exists()
        assert "demo" in proc.stdout

    def test_determinism_byte_identical(self, still_sequence, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--param-set", 6, "--seq", still_sequence, "--out", out_a)
        run_cli("run", "--param-set", 6, "--seq", still_sequence, "--out", out_b)
        a = (out_a / "run.ofv").read_bytes()
        b = (out_b / "run.ofv").read_bytes()
        assert a == b

    def test_scenario_run_and_report(self, tmp_path):
        out = tmp_path / "scen"
        run_cli(
            "run", "--param-set", 6, "--scenario", "translate-easy",
            "--frames", 8, "--out", out,
        )
        ofv = out / "set6_translate-easy.ofv"
        gt = out / "set6_translate-easy_gt.csv"
        assert ofv.exists() and gt.exists()
        rep = tmp_path / "rep"
        proc = run_cli("report", "--ofv", ofv, "--gt", gt, "--out", rep)
        assert (rep / "report_frames.csv").exists()
        assert (rep / "report_summary.csv").exists()
        assert "final_rel_err" in proc.stdout

    def test_report_replays_the_run(self, tmp_path):
        # 100 px/s at 240 fps is 0.41666... px/frame, which the ground-truth
        # CSV holds only to six decimals; the run analyzes what it writes.
        out, rep = tmp_path / "run", tmp_path / "rep"
        assert main(["run", "--param-set", "6", "--scenario", "translate-hard",
                     "--frames", "30", "--speed", "100", "--out", str(out),
                     "--name", "run"]) == 0
        assert main(["report", "--ofv", str(out / "run.ofv"),
                     "--gt", str(out / "run_gt.csv"), "--out", str(rep)]) == 0
        for table in ("summary", "frames"):
            run_csv = (out / f"run_{table}.csv").read_bytes()
            assert run_csv == (rep / f"report_{table}.csv").read_bytes()

    def test_mismatched_ground_truth_is_reported(self, still_sequence, tmp_path):
        seq = tmp_path / "seq"
        shutil.copytree(still_sequence, seq)
        rows = (seq / "ground_truth.csv").read_text().splitlines()
        (seq / "ground_truth.csv").write_text("\n".join(rows[:-1]) + "\n")
        out = tmp_path / "out"
        proc = run_cli("run", "--param-set", 6, "--seq", seq, "--out", out)
        assert "ignoring" in proc.stderr and "11 rows for 12 frames" in proc.stderr
        assert proc.stderr.strip().count("\n") == 0
        assert not (out / "run_frames.csv").exists()

    def test_custom_config_file(self, still_sequence, tmp_path):
        cfg = tmp_path / "cam.cfg"
        cfg.write_text(
            "out_width=272\nout_height=336\nframe_rate=240\nbrief_target=128\n"
            "brief_max=256\ntile_budget=4\nmax_displacement=8\n"
            "ratio_threshold=0.8\ncrop_x=420\ncrop_y=504\n"
        )
        run_cli("run", "--config", cfg, "--seq", still_sequence,
                "--out", tmp_path / "custom")
        assert (tmp_path / "custom" / "run.ofv").exists()


class TestTracksAndBench:
    def test_tracks_summary(self, still_sequence, tmp_path):
        out = tmp_path / "run"
        run_cli("run", "--param-set", 6, "--seq", still_sequence, "--out", out)
        proc = run_cli("tracks", "--ofv", out / "run.ofv", "--out", tmp_path / "tr")
        assert "tracks" in proc.stdout
        assert (tmp_path / "tr" / "tracks_summary.csv").exists()

    @pytest.mark.parametrize("frames", [0, 3])
    def test_tracks_of_a_stream_without_vectors(self, capsys, tmp_path, frames):
        # No frames at all, or frames whose blocks hold no lines.
        ofv = tmp_path / "s.ofv"
        ofv.write_bytes(b"OFV1" + bytes(8) + frames.to_bytes(4, "little") + bytes(4 * frames))
        assert main(["tracks", "--ofv", str(ofv)]) == 0
        assert capsys.readouterr().out.startswith(f"{ofv}: {frames} frames (0x0), 0 tracks")

    def test_bench_prints_reference(self, tmp_path):
        proc = run_cli("bench", "--param-set", 6, "--frames", 50)
        assert "us/frame" in proc.stdout
        assert "hardware reference" in proc.stdout

    def test_bench_names_a_missing_reference(self, capsys):
        # Set 6 is 336 rows high: the rate model covers it, the datasheet
        # table documents only 240, 480 and 1364 rows.
        assert main(["bench", "--param-set", "6", "--frames", "50"]) == 0
        out, err = capsys.readouterr()
        assert "hardware reference: — fps (documented point)" in out
        assert err == ("flowcam bench: no documented operating point for 336 rows "
                       "and 384 vectors; hardware reference not shown\n")

    def test_bench_names_both_missing_figures(self, tmp_path, capsys):
        config = tmp_path / "short.cfg"
        save_config(replace(PARAMETER_SETS[6], out_height=200), config)
        assert main(["bench", "--config", str(config), "--frames", "50"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "flowcam bench: no documented operating point for 200 rows and 384 "
            "vectors; hardware reference not shown",
            "flowcam bench: the rate model does not cover 200 rows and 384 "
            "vectors; rate-model figure not shown",
        ]

    def test_bench_silent_when_both_figures_exist(self, capsys):
        assert main(["bench", "--param-set", "3", "--frames", "50"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "hardware reference: 229 fps (documented point)" in out


class TestErrors:
    def test_bad_param_set(self, tmp_path):
        proc = run_cli("run", "--param-set", 9, "--scenario", "still",
                       "--out", tmp_path, check=False)
        assert proc.returncode == 1
        assert proc.stderr.strip().count("\n") == 0  # one-line diagnostic

    def test_missing_input(self, tmp_path):
        proc = run_cli("run", "--param-set", 6, "--out", tmp_path, check=False)
        assert proc.returncode == 1

    @pytest.mark.parametrize("bad_row", ["1,0.5", "1,fast,0.0"])
    def test_bad_ground_truth_csv(self, tmp_path, bad_row):
        ofv = tmp_path / "s.ofv"
        write_ofv(ofv, 16, 16, VectorTable.from_frames([np.empty((0, 6), "<i2")] * 2))
        gt = tmp_path / "gt.csv"
        gt.write_text(f"frame,gt_dx,gt_dy\n0,0.0,0.0\n{bad_row}\n")
        proc = run_cli("report", "--ofv", ofv, "--gt", gt, "--out", tmp_path / "r",
                       check=False)
        assert proc.returncode == 1
        assert proc.stderr.strip().count("\n") == 0
        assert "gt.csv:3" in proc.stderr

    def test_unknown_subcommand_usage_error(self):
        proc = run_cli("paint", check=False)
        assert proc.returncode == 2


class TestTypedInputErrors:
    """Bad external input exits 1 with one line naming the problem."""

    def run_main(self, capsys, *args):
        code = main([str(a) for a in args])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        return captured.err

    def test_bad_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "cam.cfg"
        cfg.write_text("out_width=abc\nout_height=336\nframe_rate=240\n"
                       "brief_target=384\nbrief_max=512\ntile_budget=8\n"
                       "max_displacement=16\n")
        err = self.run_main(capsys, "run", "--config", cfg, "--scenario", "still",
                            "--frames", 2, "--out", tmp_path / "o")
        assert "cam.cfg" in err and "out_width" in err

    @pytest.mark.parametrize("option, value", [
        ("--viewport", "abc"), ("--viewport", "0x10"), ("--texture-size", "64x"),
        ("--velocity", "x"), ("--velocity", "1;2"),
    ])
    def test_bad_gen_argument(self, capsys, tmp_path, option, value):
        err = self.run_main(capsys, "gen", "--out", tmp_path / "seq", "--frames", 2,
                            option, value)
        assert err.startswith("flowcam gen: ") and option in err

    @pytest.mark.parametrize("args", [
        ("gen", "--motion", "translate", "--velocity", "nan,0"),
        ("gen", "--motion", "zoom", "--zoom-rate", "nan"),
        ("gen", "--motion", "rotate", "--omega-deg", "inf"),
        ("run", "--param-set", 6, "--scenario", "translate-easy", "--speed", "nan"),
        ("run", "--param-set", 6, "--scenario", "rotate", "--omega-deg-frame", "nan"),
        ("run", "--param-set", 6, "--scenario", "zoom", "--zoom-rate-frame", "inf"),
    ])
    def test_non_finite_motion(self, capsys, tmp_path, args):
        err = self.run_main(capsys, *args, "--frames", 2, "--out", tmp_path / "o")
        assert err.startswith(f"flowcam {args[0]}: ") and "finite" in err

    @pytest.mark.parametrize("rate", ["nan", "0", "-5"])
    def test_bad_gen_frame_rate(self, capsys, tmp_path, rate):
        err = self.run_main(capsys, "gen", "--out", tmp_path / "seq", "--frames", 2,
                            "--frame-rate", rate)
        assert err.startswith("flowcam gen: frame_rate must be positive and finite")
        assert not (tmp_path / "seq").exists()

    def test_empty_pgm_frame(self, capsys, tmp_path):
        seq = tmp_path / "seq"
        seq.mkdir()
        write_pgm(Frame(np.zeros((64, 64), dtype=np.uint8)),
                  seq / "frame_0000.pgm")
        (seq / "frame_0001.pgm").write_bytes(b"P5\n0 0\n255\n")
        err = self.run_main(capsys, "run", "--param-set", 6, "--seq", seq,
                            "--out", tmp_path / "o")
        assert "frame_0001.pgm" in err

    def test_seq_frame_smaller_than_the_window(self, capsys, tmp_path):
        seq = tmp_path / "seq"
        seq.mkdir()
        for i in range(2):
            write_pgm(Frame(np.zeros((100, 100), dtype=np.uint8)), seq / f"frame_{i:04d}.pgm")
        err = self.run_main(capsys, "run", "--param-set", 3, "--seq", seq,
                            "--out", tmp_path / "o")
        assert err == ("flowcam run: frame 100x100 cannot supply the 640x480 window "
                       "at (240, 432)\n")

    @pytest.mark.parametrize("frames", [0, -3, 1])
    def test_frames_below_one(self, capsys, tmp_path, frames):
        err = self.run_main(capsys, "run", "--param-set", 6, "--scenario", "still",
                            "--duration", "0.05", "--frames", frames, "--out", tmp_path / "o")
        assert err == f"flowcam run: frame count {frames}; a run needs at least 2\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--frames", 2**32, "frame count 4294967296; a stream holds fewer than 4294967296"),
        ("--duration", "1e300", "duration 1e+300 s is 2400"),
        ("--duration", "17895697.07", "duration 17895697.07 s is 4294967297 frames"),
    ])
    def test_frame_count_beyond_the_stream_header(self, capsys, tmp_path, option, value,
                                                  message):
        err = self.run_main(capsys, "run", "--param-set", 6, "--scenario", "still",
                            option, value, "--out", tmp_path / "o")
        assert err.startswith(f"flowcam run: {message}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("frames, message", [
        (0, "frame count 0; a run needs at least 2"),
        (1, "frame count 1; a run needs at least 2"),
        (2**32, "frame count 4294967296; a stream holds fewer than 4294967296"),
    ])
    def test_gen_frame_count_checked_before_synthesis(self, capsys, monkeypatch, tmp_path,
                                                      frames, message):
        def unreachable(spec):
            raise AssertionError("texture generated")

        monkeypatch.setattr("flowcam.cli.generate_texture", unreachable)
        err = self.run_main(capsys, "gen", "--motion", "still", "--frames", frames,
                            "--out", tmp_path / "seq")
        assert err == f"flowcam gen: {message}\n"
        assert not (tmp_path / "seq").exists()

    def test_report_ground_truth_of_another_length(self, capsys, tmp_path):
        ofv = tmp_path / "s.ofv"
        write_ofv(ofv, 16, 16, VectorTable.from_frames([np.empty((0, 6), "<i2")] * 2))
        gt = tmp_path / "gt.csv"
        gt.write_text("frame,gt_dx,gt_dy\n0,0.0,0.0\n1,1.0,0.0\n2,1.0,0.0\n")
        err = self.run_main(capsys, "report", "--ofv", ofv, "--gt", gt,
                            "--out", tmp_path / "r")
        assert err == "flowcam report: estimate has 2 frames, ground truth 3\n"
        assert list(tmp_path.glob("**/report_*.csv")) == []

    @pytest.mark.parametrize("args", [
        ("gen", "--texture", "blocks", "--viewport", "64x64", "--motion", "still",
         "--frames", 2, "--frame-rate", 240),
        ("run", "--param-set", 6, "--scenario", "still", "--frames", 2),
        ("bench", "--param-set", 6, "--frames", 50),
    ])
    def test_negative_seed(self, capsys, tmp_path, args):
        err = self.run_main(capsys, *args, "--seed", -1,
                            *(["--out", tmp_path / "o"] if args[0] != "bench" else []))
        assert err == f"flowcam {args[0]}: texture seed must be non-negative, got -1\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_non_finite_duration(self, capsys, tmp_path, duration):
        err = self.run_main(capsys, "run", "--param-set", 6, "--scenario", "still",
                            "--duration", duration, "--out", tmp_path / "o")
        assert err.startswith("flowcam run: ") and "finite" in err

    @pytest.mark.parametrize("command", ["tracks", "report"])
    @pytest.mark.parametrize("radius", [-1, -2])
    def test_negative_radius(self, capsys, tmp_path, command, radius):
        # A track that vanishes for one frame, so there is something to re-detect.
        rows = [[], [[4, 4, 1, 0, 0, 256]], [], [[6, 4, 1, 0, 0, 256]]]
        ofv = tmp_path / "s.ofv"
        write_ofv(ofv, 16, 16, VectorTable.from_frames(
            [encode(VectorBatch(np.array(r, dtype=np.int64).reshape(-1, 6))) for r in rows]))
        gt = tmp_path / "gt.csv"
        gt.write_text("frame,gt_dx,gt_dy\n" + "".join(f"{i},1.0,0.0\n" for i in range(4)))
        extra = ["--gt", gt, "--out", tmp_path / "r"] if command == "report" else []
        err = self.run_main(capsys, command, "--ofv", ofv, "--radius", radius, *extra)
        assert err.startswith(f"flowcam {command}: ") and "radius" in err
