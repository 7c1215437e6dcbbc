"""Every ``examples/*.py`` script runs to completion.

Each runs as a user would run it, ``PYTHONPATH=src python
examples/<name>.py``, in a fresh interpreter and from a scratch working
directory, so a script that imports a deleted module or trips over a
changed API fails here rather than in a reader's terminal.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))
EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("script", sorted(path.name for path in
                                          EXAMPLES.glob("*.py")))
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    result = subprocess.run([sys.executable, str(EXAMPLES / script)],
                            env=env, cwd=tmp_path, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
