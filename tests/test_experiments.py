"""Smoke test of `scripts/run_experiments.py`, the one caller outside the
package that reads `run_parameter_set`'s return and `throughput_report`'s
fields."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def test_small_pass_writes_one_row_per_run(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_experiments.py"), "--sets", "6",
         "--scenarios", "still", "translate-hard", "--duration", "0.05",
         "--bench-frames", "50", "--out", str(tmp_path)],
        check=True, capture_output=True, timeout=300, env=dict(os.environ, PYTHONPATH=path),
    )
    runs = read_rows(tmp_path / "all_runs.csv")
    assert runs[0] == ["scenario", "set", "frames", "of_frame", "of_scale", "mean_vectors",
                       "final_rel_err", "rmse_x", "n_tracks", "max_track_len",
                       "p50_track_len", "us_per_frame", "wall_s"]
    # 0.05 s at set 6's 240 fps is 12 frames.
    assert [row[:4] for row in runs[1:]] == [["still", "6", "12", "272x336"],
                                             ["translate-hard", "6", "12", "272x336"]]
    bench = read_rows(tmp_path / "throughput.csv")
    assert bench[0] == ["set", "pixels", "us_per_frame", "software_fps",
                        "hw_reference_fps", "hw_model_fps"]
    assert [row[:2] for row in bench[1:]] == [["6", str(272 * 336)]]
