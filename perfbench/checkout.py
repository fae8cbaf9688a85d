"""Find the checkout this benchmark sits in and import ``repro`` from it."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on the import path, for this
    process and the processes it starts.  Exits with a message and a
    non-zero code when the checkout has no ``repro`` package."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), inherited]))
