"""Every ``repro`` package imports on its own, in a fresh interpreter.

Inside one pytest process an import cycle hides: whichever module the
suite imported first decides the order, and later imports find the
cycle's modules already initialised. A fresh interpreter per package
is what a user running ``python -c "import repro.doh"`` gets. It is
also where a heavyweight import would show: no package may pull in
scipy, numpy or networkx, even where they are installed.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

PACKAGES = ["repro"] + sorted(
    module.name for module in pkgutil.walk_packages(repro.__path__, "repro.")
    if module.ispkg)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_in_fresh_interpreter(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    probe = (f"import sys, {package}\n"
             "print(sorted(m for m in ('scipy', 'numpy', 'networkx') "
             "if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]", result.stdout
