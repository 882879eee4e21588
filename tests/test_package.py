"""The package's public surface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import errlens


def test_every_exported_name_resolves_and_the_list_is_sorted() -> None:
    missing = [name for name in errlens.__all__ if not hasattr(errlens, name)]
    assert missing == []
    assert list(errlens.__all__) == sorted(errlens.__all__)
    assert len(set(errlens.__all__)) == len(errlens.__all__)


def test_importing_the_cli_does_not_load_the_nearest_neighbour_index() -> None:
    # scipy.spatial is imported only when external predictions first answer
    # bare rows, so start-up stays as cheap for every other command
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, errlens.cli; print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
