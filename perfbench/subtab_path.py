"""Make `import subtab` load the package from this checkout's `src/`.

Every benchmark module imports this first.  The benchmark never installs
the package, so it measures exactly the source tree it sits in.
"""
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if not (SRC / "subtab" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no subtab package under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
