import math

import numpy as np
import pytest

from ccradon.geometry import builtin_models

# populated by the acceptance module; echoed after the run so the
# per-criterion lines survive output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def models():
    return builtin_models()


@pytest.fixture(scope="session")
def parabola(models):
    return models["parabola"]


@pytest.fixture(scope="session")
def cubic(models):
    return models["cubic"]


@pytest.fixture(scope="session")
def quartic(models):
    return models["quartic"]


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def continuum_pairing(E, F, gamma, n=20_000):
    """int prod_i |[a_i, b_i) cap ([c_i, e_i) - gamma_i(t))| dt for box sets.

    [a, b) and [c, e) are the boxes the cells of E and F cover (cell j spans
    [j h - h/2, j h + h/2)); t runs over [-1 - h/2, 1 - h/2), the cells of the
    node centres j h in [-1, 1).  Midpoint rule with ``n`` nodes;
    ``gamma(t)`` returns one array per coordinate.
    """
    h = E.h
    a, b = E.cells.min(axis=0) * h - h / 2, E.cells.max(axis=0) * h + h / 2
    c, e = F.cells.min(axis=0) * h - h / 2, F.cells.max(axis=0) * h + h / 2
    lo = math.ceil(-1.0 / h) * h - h / 2
    hi = math.ceil(1.0 / h) * h - h / 2
    dt = (hi - lo) / n
    t = lo + (np.arange(n) + 0.5) * dt
    prod = np.ones(n)
    for i, g in enumerate(gamma(t)):
        prod *= np.clip(np.minimum(b[i], e[i] - g) - np.maximum(a[i], c[i] - g), 0.0, None)
    return float(prod.sum() * dt)


def exhaustive_minimal_dyadic(cells, h, eta, c_eta):
    """Independent oracle: enumerate every dyadic interval, test the mass
    condition directly, take the minimal length, leftmost."""
    level = round(math.log2(1.0 / h))
    cells = set(int(c) for c in np.asarray(cells).ravel())
    total = len(cells) * h
    best = None
    for lev in range(0, level + 1):
        length = 2.0 ** -lev
        for index in range(-(1 << lev), 1 << lev):
            b = 1 << (level - lev)
            lo_cell = index * b
            mass = sum(1 for c in cells if lo_cell <= c < lo_cell + b) * h
            if mass >= c_eta * length ** eta * total - 1e-12:
                cand = (lev, index)
                if best is None or cand[0] > best[0]:
                    best = cand
                elif cand[0] == best[0] and cand[1] < best[1]:
                    best = cand
    return best
