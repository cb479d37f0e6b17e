"""Where the library's source tree is, relative to this benchmark.

The benchmark measures the library straight from ``src/`` of the
checkout it lives in, never an installed copy, and refuses to run when
that tree is missing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench-out"


def use_source_tree() -> None:
    """Put ``src/`` first on the import path, or exit with code 2."""
    if not (SRC / "holonomy_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {SRC / 'holonomy_lab'}")
    sys.path.insert(0, str(SRC))
    import holonomy_lab

    if Path(holonomy_lab.__file__).resolve().parent != SRC / "holonomy_lab":
        sys.exit(f"perfbench: imported holonomy_lab from {holonomy_lab.__file__},"
                 f" not from {SRC}")


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the same source tree first."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env
