"""The inline Python scripts of the CI workflow, run by tier-1 too.

Each ``python - <<'PY' ... PY`` body of ``.github/workflows/tests.yml`` is cut
out by plain text splitting and run from the repository root with
``PYTHONPATH=src``, so a script that drifts from the API fails here and not
only on CI.  The time bounds (the steps' ``timeout``) stay CI's.
"""

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
