"""Set-up probe, run in a fresh interpreter:

    python3 perfbench/setup_probe.py <src dir> <config dir>

Imports the ``ahmass`` command line from <src dir> and loads and validates
every ``*.json`` config in <config dir>: what a command-line user pays
before a case starts.  The caller times the whole process.
"""

import json
import sys
from pathlib import Path


def main(argv):
    src, config_dir = argv
    sys.path.insert(0, src)
    import ahmass.cli  # noqa: F401  the entry point a user starts
    from ahmass.sweep import SweepConfig

    for path in sorted(Path(config_dir).glob("*.json")):
        with open(path) as fh:
            SweepConfig.from_dict(json.load(fh))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
