"""Independent references the tests check the package against, built with scipy."""

import numpy as np
from scipy.linalg import expm

from nes_sim.dynamics import compile_affine, strategy_law


def affine_law(cfg):
    """``(A, b)`` of the configuration's unclamped law, law(s) = A s + b."""
    law, layout = strategy_law(cfg.tag, cfg.game, graph=cfg.graph, gains=cfg.gains)
    return compile_affine(law, layout.size)


def exact_records(A, b, s0, h, n_records):
    """The exact flow of ds/dt = A s + b from ``s0``, read every ``h``.

    The flow over one interval is the affine map whose augmented matrix is
    expm(h [A b; 0 0]); it is computed once, then each record is one
    matrix-vector product with the previous record and a trailing 1.
    """
    n = b.size
    generator = np.zeros((n + 1, n + 1))
    generator[:n, :n], generator[:n, n] = A, b
    step = expm(h * generator)
    records = np.empty((n_records, n))
    z = np.append(s0, 1.0)
    for k in range(n_records):
        records[k] = z[:n]
        z = step @ z
    return records
