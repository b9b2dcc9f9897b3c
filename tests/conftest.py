"""Shared oracles: independent Hamiltonian constructions used to check the
banded/analytic builders against straightforward operator algebra."""

import math
import os
import sys

import numpy as np
import pytest
from hypothesis import settings, HealthCheck

settings.register_profile(
    "numerics", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("numerics")


def schwinger_hamiltonian(params):
    """Two-boson realization of the spin-j Hamiltonian.

    J+ = a+ b, J- = b+ a, Jz = (n_a - n_b)/2 on the 2j-boson sector,
    basis index n = n_a = m + j.  Built from explicit ladder matrices,
    so any error in the analytic band elements shows up as a mismatch.
    """
    dim = 2 * params.j + 1
    n = np.arange(dim, dtype=float)
    jp = np.zeros((dim, dim))
    for k in range(dim - 1):
        jp[k + 1, k] = math.sqrt((k + 1) * (2 * params.j - k))
    jm = jp.T
    jz = np.diag(n - params.j)
    h = (params.eps * jz
         + 0.5 * params.lam * (jp @ jp + jm @ jm)
         + 0.5 * params.gam * (jp @ jm + jm @ jp))
    return h


def pair_hamiltonian(levels, gamma, basis):
    """Dense bosonic pairing Hamiltonian from raw operator action."""
    index = {occ: i for i, occ in enumerate(basis)}
    dim = len(basis)
    h = np.zeros((dim, dim))
    for col, occ in enumerate(basis):
        h[col, col] += sum(e * n for e, n in zip(levels, occ))
        for l, nl in enumerate(occ):
            if nl < 2:
                continue
            amp_l = math.sqrt(nl * (nl - 1))
            lowered = list(occ)
            lowered[l] -= 2
            for k in range(len(levels)):
                raised = list(lowered)
                raised[k] += 2
                amp = amp_l * math.sqrt((lowered[k] + 1) * (lowered[k] + 2))
                h[index[tuple(raised)], col] += 0.25 * gamma * amp
    return h


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_state(j, rng, parity=None):
    """Normalized random StateVector, optionally parity-pure."""
    from pairons import StateVector
    c = rng.standard_normal(2 * j + 1) + 1j * rng.standard_normal(2 * j + 1)
    if parity == "even":
        c[1::2] = 0.0
    elif parity == "odd":
        c[0::2] = 0.0
    return StateVector(j=j, coeffs=c / np.linalg.norm(c))


def module_cli(module="pairons.cli"):
    """Command prefix and environment that run `python -m module` in a
    fresh interpreter: `lmg` by default, `pairons` for `lmg|bcs ...`.

    Neither needs an installed console script; the directory holding the
    imported pairons goes first on PYTHONPATH, so the child runs the same
    source as the tests whatever its cwd.
    """
    import pairons
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pairons.__file__)))
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + rest if rest else "")
    return [sys.executable, "-m", module], env


def shift_one_pairon(monkeypatch, delta=1e-3):
    """Make paironmap._slice_pairons move the first pairon of every set by
    delta, so the rebuilt state misses the eigenstate."""
    from pairons import paironmap
    slice_pairons = paironmap._slice_pairons

    def shifted(*args):
        pairons, residual, refusals = slice_pairons(*args)
        pairons = pairons.copy()
        pairons[:, 0] += delta
        return pairons, residual, refusals

    monkeypatch.setattr(paironmap, "_slice_pairons", shifted)
