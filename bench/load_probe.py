"""Set-up probe: import posetsys, then load and validate every given system file.

``run.py`` times this script from spawn to exit, so the figure covers a fresh
interpreter, the package import, parsing and validation. Exit code 1 means a
system failed validation.

    python3 bench/load_probe.py SRC_DIR FILE [FILE ...]
"""

import sys

sys.path.insert(0, sys.argv[1])

from posetsys.fileio import load_system  # noqa: E402
from posetsys.system import validate  # noqa: E402

ok = all(validate(load_system(path)).ok for path in sys.argv[2:])
sys.exit(0 if ok else 1)
