"""Span recording around flowcam's public functions, and the per-layer
figures derived from the spans.

Tracing is done from outside the package: every public function of the
traced modules is wrapped, and each module attribute that refers to the
original (including names bound by `from .x import y`) is pointed at the
wrapper for the duration of a traced pass, then restored.
"""

from __future__ import annotations

import json
import statistics
import sys
import types
from time import perf_counter_ns

PACKAGE = "flowcam"
MODULES = ("scene_synth", "sensor_frontend", "feature_engine", "matcher",
           "wire_format", "track_analyzer", "pipeline", "cli")


class Tracer:
    """Keeps spans in memory as tuples:
    (pass id, span id, parent span id or -1, "module.function", start ns,
    end ns, len(result) or -1)."""

    def __init__(self, keep: dict[str, set[int]] | None = None):
        self.spans: list[tuple] = []
        self.pass_id = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.keep = keep or {}  # name -> call indices whose args/result are kept
        self._calls: dict[str, int] = {}
        self.kept: dict[tuple[str, int], tuple] = {}

    def _wrap(self, name: str, fn):
        spans, stack, keep = self.spans, self._stack, self.keep.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (self.pass_id, sid, parent, name, start, end, -1)
            if isinstance(result, list):
                spans[sid] = spans[sid][:-1] + (len(result),)
            if keep is not None:
                call = self._calls.get(name, 0)
                self._calls[name] = call + 1
                if call in keep:
                    self.kept[(name, call)] = (args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        self.pass_id += 1
        self._calls.clear()
        wrappers = {}
        for mod_name in MODULES:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self._wrap(f"{mod_name}.{attr}", value)
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and isinstance(value, types.FunctionType):
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()
        self._stack.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for pass_id, sid, parent, name, start, end, n in self.spans:
                f.write(json.dumps({"pass": pass_id, "id": sid, "parent": parent,
                                    "name": name, "start_ns": start, "end_ns": end,
                                    "n_out": n}) + "\n")


def layer_figures(spans: list[tuple], frames_rendered: int, stream_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced pass (a run, its repeated pipeline
    calls and its report replays).

    `_ms` figures are milliseconds per frame through the pipeline, or per
    rendered frame for `render_ms`. `_s` figures are seconds per call; track
    analysis runs in the run's finalize_report and in each replay, and
    `csv_s` is per analysis. Counts are means per call.
    """
    by_id = {s[1]: s for s in spans}
    dur: dict[str, list[int]] = {}
    under: dict[tuple[str, str], list[int]] = {}
    outs: dict[str, list[int]] = {}
    child_ns: dict[int, int] = {}
    for _, sid, parent, name, start, end, n in spans:
        dur.setdefault(name, []).append(end - start)
        outs.setdefault(name, []).append(n)
        if parent >= 0:
            pname = by_id[parent][3]
            under.setdefault((name, pname), []).append(end - start)
            child_ns[parent] = child_ns.get(parent, 0) + end - start

    analyses = max(len(dur.get("track_analyzer.redetect", [])), 1)
    n_frames = frames_rendered * max(len(dur.get("pipeline.run_pipeline", [])), 1)

    def total(name, parent=None):
        return sum(dur.get(name, []) if parent is None else under.get((name, parent), []))

    def per_frame_ms(*names, parent="pipeline.run_pipeline"):
        return sum(total(n, parent) for n in names) / n_frames / 1e6

    def per_call_s(name):
        return total(name) / max(len(dur.get(name, [])), 1) / 1e9

    def self_ns(name):
        return sum(s[5] - s[4] - child_ns.get(s[1], 0) for s in spans if s[3] == name)

    corners = sum(outs.get("feature_engine.detect_fast", []))
    features = sum(outs.get("feature_engine.describe_corners", []))
    matched = sum(outs.get("matcher.match_features", []))
    emitted = sum(outs.get("matcher.ratio_filter", []))
    n_match = max(len(outs.get("matcher.match_features", [])), 1)
    n_detect = max(len(outs.get("feature_engine.detect_fast", [])), 1)
    return {
        "scene_synth.texture_s": total("scene_synth.generate_texture") / 1e9,
        "scene_synth.render_ms": total("scene_synth.render_camera_sequence")
                                  / frames_rendered / 1e6,
        "sensor_frontend.frontend_ms": per_frame_ms("pipeline.frontend_apply",
                                                    "sensor_frontend.downscale_for_of"),
        "feature_engine.detect_fast_ms": total("feature_engine.detect_fast") / n_frames / 1e6,
        "feature_engine.tile_cap_ms": (total("feature_engine.enforce_tile_budget")
                                       + total("feature_engine.cap_global")) / n_frames / 1e6,
        "feature_engine.orientation_ms": total("feature_engine.compute_orientations")
                                         / n_frames / 1e6,
        "feature_engine.brief_ms": total("feature_engine.describe_batch") / n_frames / 1e6,
        "feature_engine.describe_self_ms": self_ns("feature_engine.describe_corners")
                                           / n_frames / 1e6,
        "feature_engine.fast_corners": corners / n_detect,
        "feature_engine.features": features / n_detect,
        "feature_engine.kept_share": features / corners if corners else 0.0,
        "matcher.match_ms": per_frame_ms("matcher.match_features"),
        "matcher.ratio_ms": per_frame_ms("matcher.ratio_filter"),
        "matcher.matched": matched / n_match,
        "matcher.ratio_kept_share": emitted / matched if matched else 0.0,
        "wire_format.encode_ms": per_frame_ms("wire_format.encode"),
        "wire_format.write_ofv_s": per_call_s("wire_format.write_ofv"),
        "wire_format.read_ofv_s": per_call_s("wire_format.read_ofv"),
        "wire_format.stream_bytes": float(stream_bytes),
        "track_analyzer.link_s": per_call_s("track_analyzer.link_tracks"),
        "track_analyzer.redetect_s": per_call_s("track_analyzer.redetect"),
        "track_analyzer.accuracy_s": per_call_s("track_analyzer.accuracy_metrics"),
        "track_analyzer.csv_s": sum(total(n) for n in (
            "track_analyzer.write_summary_csv", "track_analyzer.write_frame_report_csv",
            "track_analyzer.write_ground_truth_csv", "track_analyzer.read_ground_truth_csv",
        )) / analyses / 1e9,
        "track_analyzer.tracks": statistics.mean(outs.get("track_analyzer.redetect", [0])),
        "pipeline.self_ms": self_ns("pipeline.run_pipeline") / n_frames / 1e6,
    }
