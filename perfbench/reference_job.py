"""The benchmark's fixed reference job.

Usage: python3 perfbench/reference_job.py

Does not touch drskit.  It pays what every drskit command pays, in about
the same mix: interpreter start-up and the numpy and scipy imports, then
pure-Python record handling (JSON, sorting, grouping) and small scipy
least-squares fits.  ``run.py`` times it between drskit commands and
reports the workload's wall time in units of it (``wall_per_ref``).
"""

from __future__ import annotations

import json
import random

import numpy as np
import scipy.optimize
import scipy.stats  # noqa: F401  (imported by every drskit command)


def main() -> None:
    rng = random.Random(0)
    rows = [{"id": i, "x": rng.random(), "tag": f"t{i % 97}"} for i in range(80_000)]
    rows = json.loads(json.dumps(rows))
    rows.sort(key=lambda r: (r["tag"], r["x"]))
    groups: dict[str, list[float]] = {}
    for r in rows:
        groups.setdefault(r["tag"], []).append(r["x"])
    means = sorted(sum(v) / len(v) for v in groups.values())

    x = np.linspace(100.0, 10000.0, 40)
    y = 8.0 / (1.0 + np.exp(-(np.log(x) - np.log(900.0)) / 0.8))
    for k in range(24):

        def residuals(p):
            return p[0] / (1.0 + np.exp(-(np.log(x) - p[1]) / p[2])) - y

        scipy.optimize.least_squares(residuals, [5.0 + 0.1 * k, 6.0, 1.0], bounds=([0, 0, 0.1], [20, 12, 5]))
    if not 0.0 < means[0] <= means[-1] < 1.0:
        raise SystemExit("reference job: unexpected result")


if __name__ == "__main__":
    main()
