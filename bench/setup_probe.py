"""Time one fresh set-up: import ordwalk and validate a workload's specs.

Usage: python3 setup_probe.py SPECS_JSON, where SPECS_JSON holds a list of
spec documents. Prints the elapsed seconds, measured from before the import.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main(specs_path):
    t0 = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from ordwalk import cli

    with open(specs_path) as fh:
        for text in json.load(fh):
            cli.validate_spec(text)
    print(perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1])
