"""The tests run from a plain checkout: pytest puts src on this process's
import path (pythonpath in pyproject.toml), and the CLI subprocesses the
tests start inherit it through PYTHONPATH."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))
