import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairons import (ModelParams, PaironSet, TrajectorySpec,
                     UnresolvedAnchorError, anchor_profile, anchor_value,
                     build_hamiltonian, collapse_points, collapse_zero_pattern,
                     crossing_points, find_collapses, hyperbola_levels,
                     pairon_cluster_sizes, pattern_radius, scan_trajectory,
                     split_parity, total_collapse)


def test_hyperbola_levels_frozen():
    lv = hyperbola_levels(10)
    expect = [(19.0 / (19 - 2 * k)) ** 2 for k in range(10)]
    assert_allclose(lv, expect, rtol=1e-15)


def test_collapse_points_count_and_symmetry():
    pts = collapse_points(10, 10.0)
    assert len(pts) == 16  # k = 0..7, two branches each
    by_k = {}
    for p in pts:
        by_k.setdefault(p.k, []).append(p)
    assert sorted(by_k) == list(range(8))
    for k, pair in by_k.items():
        lo, hi = sorted(p.gamma_x for p in pair)
        assert lo + hi == 10.0  # exact arithmetic symmetry
        c = (19.0 / (19 - 2 * k)) ** 2
        assert_allclose(lo * (10.0 - lo), c, rtol=1e-12)
    assert {p.branch for p in pts} == {"lower", "upper"}
    assert all(p.merged_zero_multiplicity == 2 * (p.k + 1) for p in pts)


def test_collapse_points_wider_line():
    # line sum 40 accommodates every hyperbola up to k = j-1
    assert len(collapse_points(10, 40.0)) == 20
    assert len(collapse_points(10, 1.0)) == 0


def test_crossing_points_frozen():
    cps = crossing_points(10)
    assert [cp.k for cp in cps] == list(range(10))
    assert_allclose([cp.gamma_x for cp in cps],
                    [-19.0 / (19 - 2 * k) for k in range(10)], rtol=1e-15)
    assert cps[0].pairs == ((-10, -9),)
    assert len(cps[3].pairs) == 4


def test_crossings_are_exact_degeneracies():
    for cp in crossing_points(6):
        params = ModelParams.from_gammas(6, cp.gamma_x, cp.gamma_x)
        h = build_hamiltonian(params)
        even, odd, _ = split_parity(h)
        ev = np.linalg.eigvalsh(even)
        od = np.linalg.eigvalsh(odd)
        gap = min(abs(a - b) for a in ev for b in od)
        assert gap <= 1e-10 * h.norm


def test_trajectory_spec_validation():
    with pytest.raises(ValueError):
        TrajectorySpec(j=4, line="sum", line_sum=10.0, start=0.0, stop=5.0,
                       steps=100, state_index=0)  # start on singular line
    with pytest.raises(ValueError):
        TrajectorySpec(j=4, line="sum", line_sum=10.0, start=1.0, stop=1.0,
                       steps=100, state_index=0)
    spec = TrajectorySpec(j=4, line="sum", line_sum=10.0, start=0.1,
                          stop=9.9, steps=50, state_index=0)
    assert len(spec.samples()) == 50
    assert_allclose(spec.gamma_y(3.0), 7.0)


def test_scan_and_detect_small():
    spec = TrajectorySpec(j=4, line="sum", line_sum=10.0, start=0.08,
                          stop=9.92, steps=400, state_index=0)
    table = scan_trajectory(spec, threads=2)
    assert not table.failures
    assert len(table.samples) == 400
    found = find_collapses(anchor_profile(spec))
    targets = sorted(p.gamma_x for p in collapse_points(4, 10.0)) + [5.0]
    assert len(found) == len(targets)
    for gx in targets:
        assert min(abs(c.gamma_x - gx) for c in found) <= 1e-9


def test_collapse_root_is_analytic():
    target = min(collapse_points(4, 10.0), key=lambda p: p.gamma_x)
    spec = TrajectorySpec(j=4, line="sum", line_sum=10.0,
                          start=target.gamma_x - 5e-3,
                          stop=target.gamma_x + 5e-3, steps=2)
    (cand,) = find_collapses(anchor_profile(spec))
    assert abs(cand.gamma_x - target.gamma_x) <= 1e-9
    assert not cand.total
    assert abs(cand.anchor_value) < abs(
        anchor_value(spec, target.gamma_x + 4e-3)[0])


def test_total_collapse_closed_form():
    # on the diagonal the ground state is the single Dicke state |j,-j>:
    # all zeros coincide at the pole, checked in closed form at c/2
    spec = TrajectorySpec(j=3, line="sum", line_sum=10.0, start=4.0,
                          stop=6.0, steps=60, state_index=0)
    assert total_collapse(spec) == 5.0
    value, noise = anchor_value(spec, 4.9)
    assert value != 0.0 and abs(value) > noise
    found = find_collapses(anchor_profile(spec))
    assert [(c.gamma_x, c.anchor_value, c.total) for c in found] == [
        (5.0, 0.0, True)]
    excited = TrajectorySpec(j=3, line="sum", line_sum=10.0, start=4.0,
                             stop=6.0, steps=60, state_index=1)
    assert total_collapse(excited) is None
    off_range = TrajectorySpec(j=3, line="sum", line_sum=10.0, start=5.5,
                               stop=6.0, steps=60, state_index=0)
    assert total_collapse(off_range) is None


def test_exact_zero_sample_at_total_collapse():
    # a sample on gx = gy has lam = 0: f and its noise bound are both
    # exactly zero, a resolved root that the closed-form row absorbs
    spec = TrajectorySpec(j=4, line="sum", line_sum=10.0, start=4.0,
                          stop=6.0, steps=5, state_index=0)
    profile = anchor_profile(spec)
    assert profile.value[2] == 0.0 and profile.noise[2] == 0.0
    assert not profile.unresolved().any()
    assert [c.gamma_x for c in find_collapses(profile)] == [5.0]


def test_unresolved_anchor_refused():
    spec = TrajectorySpec(j=20, line="sum", line_sum=10.0, start=0.05,
                          stop=9.95, steps=40, state_index=0)
    profile = anchor_profile(spec)
    assert profile.unresolved()[0]
    with pytest.raises(UnresolvedAnchorError,
                       match=r"first over gx in \[0.05, "):
        find_collapses(profile)


def test_anchor_noise_bounds_true_error():
    # the noise bound must cover the difference to a 50-digit reference
    mp = pytest.importorskip("mpmath")
    j, c = 6, 10.0
    spec = TrajectorySpec(j=j, line="sum", line_sum=c, start=0.05,
                          stop=c - 0.05, steps=40, state_index=0)
    with mp.workdps(50):
        for gx in spec.samples():
            value, noise = anchor_value(spec, float(gx))
            assert abs(value - _anchor_value_mp(mp, j, gx, c - gx)) <= noise


def _anchor_value_mp(mp, j, gx, gy):
    """anchor_value of the ground state in mpmath arithmetic."""
    gx, gy = mp.mpf(gx), mp.mpf(gy)
    lam = (gx - gy) / (2 * (2 * j - 1))
    gam = (gx + gy) / (2 * (2 * j - 1))
    best = None
    for off in (0, 1):
        idx = list(range(off, 2 * j + 1, 2))
        a = mp.matrix(len(idx), len(idx))
        for r, k in enumerate(idx):
            m = k - j
            a[r, r] = m + gam * (j * (j + 1) - m * m)
            if r + 1 < len(idx):
                a[r, r + 1] = a[r + 1, r] = lam / 2 * mp.sqrt(
                    (j - m) * (j + m + 1) * (j - m - 1) * (j + m + 2))
        energies, vectors = mp.eigsy(a)
        col = min(range(len(idx)), key=lambda i: energies[i])
        if best is None or energies[col] < best[0]:
            best = (energies[col], [vectors[r, col] * mp.sqrt(
                mp.binomial(2 * j, k)) for r, k in enumerate(idx)])
    d = best[1] if best[1][0] > 0 else [-x for x in best[1]]
    t = mp.sqrt(abs(gx / gy))
    w = (t - 1) / (t + 1)
    value = mp.mpf(0)
    for x in d:
        value = value * w + x
    return float(value / max(abs(x) for x in d))


def test_scan_branches_are_continuous():
    from pairons.sphere import chordal_distance
    spec = TrajectorySpec(j=4, line="sum", line_sum=10.0, start=1.2,
                          stop=3.8, steps=120, state_index=0)
    table = scan_trajectory(spec)
    prev = {}
    for s in table.samples:
        cur = {}
        for rec in s.records:
            cur[rec.branch_id] = rec.site
            if rec.branch_id in prev:
                assert chordal_distance(prev[rec.branch_id], rec.site) < 0.1
        prev = cur


def test_pattern_radius_monotone():
    radii = [pattern_radius(m) for m in range(1, 9)]
    assert all(b > a for a, b in zip(radii, radii[1:]))


def test_pairon_cluster_sizes():
    ps = PaironSet(j=3, nu=0, energies=(-1.0, -1.0 + 1e-3, 4.0), t=1.0,
                   flags=())
    assert pairon_cluster_sizes(ps, 1e-2) == [2, 1]
    assert pairon_cluster_sizes(ps, 1e-5) == [1, 1, 1]


def test_collapse_pattern_j4():
    for p in collapse_points(4, 10.0):
        params = ModelParams.from_gammas(4, p.gamma_x, 10.0 - p.gamma_x)
        pattern = sorted(collapse_zero_pattern(params, p.k), reverse=True)
        expect = sorted([2 * (p.k + 1)] + [2] * (4 - 1 - p.k), reverse=True)
        assert pattern == expect


def test_collapse_pattern_j10_low_k():
    for p in collapse_points(10, 10.0):
        if p.k > 3:
            continue
        params = ModelParams.from_gammas(10, p.gamma_x, 10.0 - p.gamma_x)
        pattern = sorted(collapse_zero_pattern(params, p.k), reverse=True)
        assert pattern == sorted([2 * (p.k + 1)] + [2] * (9 - p.k),
                                 reverse=True)


def test_anchor_value_changes_sign_at_collapse():
    spec = TrajectorySpec(j=4, line="sum", line_sum=10.0, start=0.08,
                          stop=9.92, steps=100, state_index=0)
    for p in collapse_points(4, 10.0):
        below = anchor_value(spec, p.gamma_x - 1e-4)[0]
        above = anchor_value(spec, p.gamma_x + 1e-4)[0]
        assert below * above < 0
        assert 0 < abs(above) < abs(anchor_value(spec, p.gamma_x + 2e-4)[0])
