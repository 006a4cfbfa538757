"""The inline Python scripts of the CI workflow, and the benchmark's tracer,
run by tier-1 too.

Each ``python - <<'PY' ... PY`` body of ``.github/workflows/tests.yml`` is cut
out by plain text splitting and run from the repository root with
``PYTHONPATH=src``, so a script that drifts from the API fails here and not
only on CI.  The time bounds (the steps' ``timeout``) stay CI's.  The tracer
of the traced benchmark runs (``benchmark/tracing.py``) wraps package
functions and methods by name; it is loaded by path and installed here, so a
renamed or deleted one fails tier-1 as well.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def workflow_scripts():
    """[(step name, script)] for each heredoc ``python - <<'PY'`` of the workflow."""
    scripts, name = [], None
    lines = iter(WORKFLOW.read_text().splitlines())
    for line in lines:
        line = line.strip()
        if line.startswith("- name:"):
            name = line.partition(":")[2].strip()
        elif line.endswith("python - <<'PY'"):
            body = []
            for inner in lines:
                if inner.strip() == "PY":
                    break
                body.append(inner)
            scripts.append((name, textwrap.dedent("\n".join(body)) + "\n"))
    return scripts


SCRIPTS = workflow_scripts()


def test_the_guards_are_found():
    names = [name for name, _ in SCRIPTS]
    assert {"Scaling fallback guard", "Scaling certificate guard"} <= set(names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("script", [s for _, s in SCRIPTS],
                         ids=[name.lower().replace(" ", "-") for name, _ in SCRIPTS])
def test_workflow_script_runs(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-"], input=script, cwd=ROOT, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-4000:]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmark" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_wraps_every_layer_and_restores_it():
    import asymspec  # noqa: F401  (the tracer wraps the modules the package loads)

    tracing = _load_tracing()
    layers = {layer: importlib.import_module(f"asymspec.{layer}") for layer in tracing.LAYERS}
    before = {layer: dict(vars(mod)) for layer, mod in layers.items()}
    methods = {(layer, cls, meth): vars(getattr(layers[layer], cls))[meth]
               for layer, classes in tracing.METHODS.items()
               for cls, names in classes.items() for meth in names}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for layer, mod in layers.items():
            wrapped = [name for name, value in vars(mod).items()
                       if value is not before[layer].get(name) and hasattr(value, "__wrapped__")]
            assert wrapped, f"nothing wrapped in asymspec.{layer}"
        for (layer, cls, meth), original in methods.items():
            assert vars(getattr(layers[layer], cls))[meth].__wrapped__ is original
    finally:
        tracer.uninstall()
    for layer, mod in layers.items():
        after = vars(mod)
        assert after.keys() == before[layer].keys()
        assert all(after[name] is value for name, value in before[layer].items())
    for (layer, cls, meth), original in methods.items():
        assert vars(getattr(layers[layer], cls))[meth] is original
