"""Time one cold set-up: import scnls, load a config, build grid, state, noise.

Run as ``python3 perfbench/setup_probe.py <config.ini>``; prints the seconds
taken.  Each call is a fresh interpreter, so the import is cold in the
interpreter and warm in the file cache.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import scnls  # noqa: E402


def main(path: str) -> None:
    cfg = scnls.load_config(path)
    grid = cfg.build_grid()
    cfg.build_state(grid)
    cfg.build_noise_model(grid)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main(sys.argv[1])
