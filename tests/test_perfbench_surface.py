"""The package names the benchmark reads, checked by the test suite.

`perfbench/run.py` reaches the package only through attributes of the
imported `flowcam` module (`fc.PARAMETER_SETS`, `fc.pipeline.run_pipeline`,
...), and `perfbench/spans.py` wraps every public function of its traced
modules and derives the per-layer figures from spans named
"module.function". A renamed, moved or privatized function would make a
figure silently read zero, so each name is resolved here against the rule
the tracer wraps by. The benchmark sources are parsed read-only from their
paths; nothing under `perfbench/` is imported or compiled to bytecode.
"""

import ast
import json
import subprocess
import sys
import types
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_PATH = ROOT / "perfbench" / "run.py"
SPANS_PATH = ROOT / "perfbench" / "spans.py"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def attribute_chains(tree, roots):
    """Dotted names read from a name in `roots`, without the root:
    `fc.pipeline.run_pipeline(...)` gives "pipeline" and
    "pipeline.run_pipeline"."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in roots:
            chains.add(".".join(reversed(parts)))
    return chains


def assigned(tree, name):
    return next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name])


def benchmark_reads():
    """Every `fc.…` or `flowcam.…` chain in run.py, the fresh-interpreter
    setup code it times included."""
    tree = parse(RUN_PATH)
    setup = ast.parse(ast.literal_eval(assigned(tree, "SETUP_CODE")))
    return attribute_chains(tree, {"fc", "flowcam"}) | attribute_chains(setup, {"flowcam"})


def traced_modules():
    return ast.literal_eval(assigned(parse(SPANS_PATH), "MODULES"))


def span_names():
    """Quoted "module.function" names in `spans.layer_figures`, less the
    per-layer metric keys it returns."""
    metric_keys = {entry["name"] for entry in
                   json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    figures = next(node for node in parse(SPANS_PATH).body
                   if isinstance(node, ast.FunctionDef) and node.name == "layer_figures")
    return {node.value for node in ast.walk(figures)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.count(".") == 1 and node.value not in metric_keys}


# Imports the package as perfbench does, in a fresh interpreter, and reports
# the chains in argv[2] that do not resolve and the modules then loaded.
PROBE = """
import functools, json, sys
sys.path.insert(0, sys.argv[1])
import flowcam, flowcam.cli
missing = []
for chain in json.loads(sys.argv[2]):
    try:
        functools.reduce(getattr, chain.split("."), flowcam)
    except AttributeError:
        missing.append(chain)
print(json.dumps({"missing": missing, "modules": sorted(sys.modules)}))
"""


def benchmark_import(chains):
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), json.dumps(sorted(chains))],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_every_attribute_the_benchmark_reads_resolves():
    reads = benchmark_reads()
    assert reads >= {"PARAMETER_SETS", "cli.main", "pipeline.run_pipeline",
                     "pipeline.synthesize_sequence", "pipeline.finalize_report",
                     "pipeline.hardware_reference"}
    assert benchmark_import(reads)["missing"] == []


def test_every_span_name_is_a_traced_function():
    names = span_names()
    assert {"pipeline.run_pipeline", "feature_engine.compute_orientations"} <= names
    modules = traced_modules()
    untraced = []
    for name in sorted(names):
        module_name, attr = name.split(".")
        if module_name not in modules or attr.startswith("_"):
            untraced.append(name)
            continue
        module = import_module(f"flowcam.{module_name}")
        fn = getattr(module, attr, None)
        if not (isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__):
            untraced.append(name)
    assert untraced == []


def test_the_benchmark_import_loads_every_traced_module():
    # The tracer looks each module up in sys.modules after perfbench's import.
    loaded = set(benchmark_import(())["modules"])
    assert [m for m in traced_modules() if f"flowcam.{m}" not in loaded] == []
