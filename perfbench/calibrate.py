"""A fixed job that measures how fast the machine is running right now.

    python3 perfbench/calibrate.py

run.py starts it before every timed stage and reports the pipeline's wall
time as a multiple of it (``pipeline_rel``). It imports nothing from raincop,
so no change to the program can change its time, and it does a little of each
kind of work the stages do: interpreter start-up and the numpy/scipy imports,
a pure-Python loop, text formatting and parsing, and dense linear algebra on a
400 x 400 matrix. Its inputs are fixed, so its work is the same on every call.
"""

import numpy as np
from scipy import special
from scipy.spatial.distance import pdist


def main() -> None:
    rng = np.random.default_rng(12345)
    total = 0
    for i in range(300_000):
        total += i * i % 7
    rows = rng.gamma(1.2, 3.0, size=(2000, 20))
    text = "\n".join(",".join(f"{v:.6g}" for v in row) for row in rows)
    parsed = np.array([[float(c) for c in line.split(",")] for line in text.splitlines()])
    dist = pdist(rng.uniform(0.0, 1000.0, size=(400, 2)))
    a = rng.standard_normal((400, 400))
    cov = a @ a.T + 400.0 * np.eye(400)
    for _ in range(2):
        np.linalg.cholesky(cov)
        np.linalg.eigh(cov)
    special.gammainc(1.5, parsed.ravel())
    if total <= 0 or dist.size != 400 * 399 // 2:
        raise SystemExit("calibration job computed the wrong values")


if __name__ == "__main__":
    main()
