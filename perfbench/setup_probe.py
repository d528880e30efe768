"""Set-up cost of one fresh process, as a command-line user pays it.

Times importing ``detrep`` from the checkout's ``src/`` and warming the
solver's representation cache for the given degrees, then prints the
seconds taken on the last line:

    python3 perfbench/setup_probe.py 3 4 5 6 7
"""

import os
import sys
from time import perf_counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(degrees: list[int]) -> int:
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    from detrep import twopareig

    for d in degrees:
        twopareig._cached_rep(d, "minunif")
    elapsed = perf_counter() - t0
    if not os.path.abspath(twopareig.__file__).startswith(SRC + os.sep):
        print(f"detrep was imported from {twopareig.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]]))
