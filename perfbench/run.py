#!/usr/bin/env python3
"""Run one workload of the mining benchmark from the root of a checkout.

    python3 perfbench/run.py --workload queries-heavy --seed 1 --seconds 20 --trace 0

The last line of standard output is the JSON result; the lines before it
name every metric with its unit.  The package is imported from the
checkout's own src/, never from an installed copy.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    src = ROOT / "src"
    if not (src / "analogue" / "__init__.py").is_file():
        print("run.py: no analogue package under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import analogue
    if Path(analogue.__file__).resolve().parent != src / "analogue":
        print("run.py: imported analogue from %s, not from %s"
              % (analogue.__file__, src), file=sys.stderr)
        return 2
    import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
