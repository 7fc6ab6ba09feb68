"""Maximum harmless set as one 0/1 program, solved by HiGHS through scipy.

A set S (indicator x) is harmless iff A x <= t - 1 row by row, where A is
the adjacency matrix: every vertex keeps fewer than t(v) selected
neighbours.  Restricting x to a pool (a kernel's solution core) is an upper
bound of 0 on the other variables.

Run as a script it answers a batch in a child process, so the measured
process never imports scipy and its peak memory stays the program's own:

    python3 oracle.py JOBS.json ANSWERS.json

where JOBS.json is a list of {"n", "edges", "thresholds"[, "pool"]}.
"""

from __future__ import annotations

import json
import sys

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix


def max_harmless(n: int, edges, thresholds, pool=None) -> int:
    if n == 0:
        return 0
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    A = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    upper = np.ones(n)
    if pool is not None:
        upper[:] = 0
        upper[list(pool)] = 1
    res = milp(
        -np.ones(n),
        constraints=LinearConstraint(A, -np.inf, np.asarray(thresholds, dtype=float) - 1),
        integrality=np.ones(n),
        bounds=Bounds(0, upper),
    )
    if not res.success:
        raise RuntimeError(f"MILP oracle failed: {res.message}")
    return int(round(-res.fun))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        jobs = json.load(fh)
    answers = [max_harmless(j["n"], j["edges"], j["thresholds"], j.get("pool")) for j in jobs]
    with open(argv[1], "w") as fh:
        json.dump(answers, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
