"""Reference computations the benchmark checks the program against.

They are written from the model definitions, with plain numpy and none of
the package's code, so a wrong answer from the program cannot pass a check
by sharing the defect.  They run outside the timed region.
"""
from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np


def lmg_eigenstates(j: int, gx: float, gy: float, eps: float = 1.0
                    ) -> list[tuple[float, np.ndarray]]:
    """All (energy, Dicke vector) pairs of the LMG Hamiltonian, ascending.

    H = eps Jz + (lam/2)(J+^2 + J-^2) + (gam/2)(J+J- + J-J+) with
    gx = (2j-1)(gam+lam)/eps and gy = (2j-1)(gam-lam)/eps.  The two parity
    sectors (j+m even / odd) are solved apart, so every vector has a sharp
    parity even where levels of opposite parity nearly cross.
    """
    scale = eps / (2.0 * (2 * j - 1))
    lam, gam = scale * (gx - gy), scale * (gx + gy)
    m = np.arange(-j, j + 1, dtype=float)
    h = np.diag(eps * m + gam * (j * (j + 1) - m * m))
    mm = m[:-2]
    band = 0.5 * lam * np.sqrt((j - mm) * (j + mm + 1) * (j - mm - 1)
                               * (j + mm + 2))
    idx = np.arange(2 * j - 1)
    h[idx + 2, idx] = band
    h[idx, idx + 2] = band
    out = []
    for offset in (0, 1):
        w, v = np.linalg.eigh(h[offset::2, offset::2])
        for col in range(len(w)):
            full = np.zeros(2 * j + 1)
            full[offset::2] = v[:, col]
            out.append((float(w[col]), full))
    out.sort(key=lambda item: item[0])
    return out


def pairon_state(j: int, nu: int, energies, t: float) -> np.ndarray:
    """Dicke vector of prod_a [(e_a - t) A+ + (e_a + t) B+] |nu, nu>.

    A+ and B+ create a pair in the lower and the upper level.  The term
    with s pairs up has n_b = 2s + nu upper and n_a = 2j - n_b lower
    particles, i.e. Dicke index k = j + m = n_b, and picks up the norm
    sqrt(n_a! n_b!) of the unnormalized occupation state.
    """
    sigma = np.array([1.0 + 0.0j])
    for e in energies:
        sigma = np.convolve(sigma, np.array([e - t, e + t]))
        sigma = sigma / np.max(np.abs(sigma))
    s = np.arange(len(sigma))
    n_b = 2 * s + nu
    n_a = 2 * j - n_b
    logw = np.array([0.5 * (math.lgamma(a + 1) + math.lgamma(b + 1))
                     for a, b in zip(n_a, n_b)])
    vec = np.zeros(2 * j + 1, dtype=complex)
    vec[n_b] = sigma * np.exp(logw - logw.max())
    return vec / np.linalg.norm(vec)


def fidelity_loss(a: np.ndarray, b: np.ndarray) -> float:
    """1 - |<a|b>| for unit vectors."""
    return 1.0 - float(abs(np.vdot(a, b)))


def best_match_loss(states: list[tuple[float, np.ndarray]], energy: float,
                    vec: np.ndarray, energy_tol: float) -> float:
    """Smallest fidelity loss of vec against the eigenstates within
    energy_tol of energy (inf when no eigenvalue is that close)."""
    losses = [fidelity_loss(v, vec) for e, v in states
              if abs(e - energy) <= energy_tol]
    return min(losses, default=math.inf)


def boson_basis(n_levels: int, n_bosons: int) -> list[tuple[int, ...]]:
    """Occupation tuples (n_0..n_L) with n_bosons in all."""
    return [tuple(combo.count(l) for l in range(n_levels)) for combo in
            combinations_with_replacement(range(n_levels), n_bosons)]


def boson_eigenstates(levels: tuple[float, ...], gamma: float,
                      n_bosons: int
                      ) -> list[tuple[float, tuple[int, ...], np.ndarray]]:
    """All (energy, seniority, vector) of the uniform-coupling boson model

        H = sum_l eps_l n_l + (gamma/4) sum_{k,l} bk+ bk+ bl bl,

    ascending in energy, vectors over boson_basis(len(levels), n_bosons).
    Per-level occupation parities (the seniority) are conserved, so each
    parity sector is diagonalized on its own.
    """
    n_levels = len(levels)
    basis = boson_basis(n_levels, n_bosons)
    index = {occ: i for i, occ in enumerate(basis)}
    h = np.zeros((len(basis), len(basis)))
    g4 = gamma / 4.0
    for i, occ in enumerate(basis):
        h[i, i] = sum(e * n for e, n in zip(levels, occ)) + g4 * sum(
            n * (n - 1) for n in occ)
        for l, n_l in enumerate(occ):
            if n_l < 2:
                continue
            for k in range(n_levels):
                if k == l:
                    continue
                target = list(occ)
                target[l] -= 2
                target[k] += 2
                h[index[tuple(target)], i] += g4 * math.sqrt(
                    n_l * (n_l - 1) * (occ[k] + 1) * (occ[k] + 2))
    sectors: dict[tuple[int, ...], list[int]] = {}
    for i, occ in enumerate(basis):
        sectors.setdefault(tuple(n % 2 for n in occ), []).append(i)
    out = []
    for parity, members in sectors.items():
        sub = np.array(members)
        w, v = np.linalg.eigh(h[np.ix_(sub, sub)])
        for col in range(len(w)):
            full = np.zeros(len(basis))
            full[sub] = v[:, col]
            out.append((float(w[col]), parity, full))
    out.sort(key=lambda item: item[0])
    return out


def boson_pairon_state(levels: tuple[float, ...], n_bosons: int,
                       seniority: tuple[int, ...], energies) -> np.ndarray:
    """Vector over boson_basis of prod_a [sum_l bl+ bl+ / (2 eps_l - e_a)]
    |nu>, the seniority state nu carrying one boson on each level with
    nu_l = 1.

    Each factor is multiplied by prod_k (2 eps_k - e_a), which leaves the
    state unchanged and keeps a pairon at 2 eps_l finite.  The product of
    the M linear forms in x_l = bl+ bl+ is expanded as a dense array of
    pair counts p_l; (bl+)^(2 p_l) |nu_l> = sqrt(n_l! / nu_l!) |n_l> with
    n_l = nu_l + 2 p_l, and nu_l! = 1.
    """
    n_levels = len(levels)
    pairs = (n_bosons - sum(seniority)) // 2
    poly = np.zeros((pairs + 1,) * n_levels, dtype=complex)
    poly[(0,) * n_levels] = 1.0
    for e in energies:
        factors = [2.0 * eps - e for eps in levels]
        grown = np.zeros_like(poly)
        for l in range(n_levels):
            weight = np.prod([f for k, f in enumerate(factors) if k != l])
            head = [slice(None)] * n_levels
            tail = [slice(None)] * n_levels
            head[l], tail[l] = slice(1, None), slice(None, -1)
            grown[tuple(head)] += weight * poly[tuple(tail)]
        poly = grown / np.max(np.abs(grown))
    basis = boson_basis(n_levels, n_bosons)
    vec = np.zeros(len(basis), dtype=complex)
    logw = np.full(len(basis), -math.inf)
    for i, occ in enumerate(basis):
        if all(n >= s and (n - s) % 2 == 0 for n, s in zip(occ, seniority)):
            logw[i] = 0.5 * sum(math.lgamma(n + 1) for n in occ)
            vec[i] = poly[tuple((n - s) // 2 for n, s in zip(occ, seniority))]
    vec *= np.exp(logw - logw.max())
    return vec / np.linalg.norm(vec)


def collapse_targets(j: int, line_sum: float) -> list[tuple[int, str, float]]:
    """(k, branch, gx) of every collapse on the line gx + gy = line_sum.

    k + 1 pairons merge where gx * gy = ((2j-1)/(2j-1-2k))^2 for
    k < j - 1; on the diagonal gx = gy = line_sum/2 all j pairons merge
    (k = j - 1).
    """
    half = line_sum / 2.0
    out = []
    for k in range(j - 1):
        disc = half * half - ((2 * j - 1) / (2 * j - 1 - 2 * k)) ** 2
        if disc < 0:
            continue
        r = math.sqrt(disc)
        out.append((k, "upper", half + r))
        out.append((k, "lower", half - r))
    out.append((j - 1, "diagonal", half))
    return out
