import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq, linear_sum_assignment

import pairons
import pairons.cli
from pairons import (ConvergenceError, DegenerateStateError, ModelParams,
                     PaironsError, SingularParameterError, TrajectorySpec,
                     UnresolvedAnchorError, anchor_profile, anchor_value,
                     build_hamiltonian, chordal_distance, collapse_points,
                     collapse_zero_pattern, crossing_points, eigenpair,
                     extract_pairons, find_collapses, hyperbola_levels,
                     parity_slice, scan_trajectory, split_parity,
                     strip_and_solve, total_collapse,
                     total_collapse_candidates)
from pairons import collapse, paironmap, sphere, spin
from pairons.paironmap import extract_stack
from pairons.sphere import INFINITY, chordal_distances, coordinates
from pairons.collapse import (SINGULAR_MARGIN, AnchorProfile,
                              CollapseCandidate, _anchor_coefficients,
                              _anchor_slices, _assign_branches, _brentq,
                              _linear_sum_assignment, _steady_costs,
                              collapse_rows)


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


def _margin_refusal(start, stop, steps, line, line_sum):
    """The refusal message of the first sample within SINGULAR_MARGIN of
    a singular point, or None: the check sample by sample in Python
    floats, which overflow to inf without a warning."""
    singular = [0.0] + ([line_sum] if line == "sum" else [])
    for g in np.linspace(start, stop, steps).tolist():
        for s in singular:
            if abs(g - float(s)) < SINGULAR_MARGIN:
                return (f"sample gx={g:.6g} is within {SINGULAR_MARGIN} of "
                        f"the singular point gx={s:.6g}")
    return None


@pytest.mark.parametrize("start, stop, steps, line, line_sum", [
    # at the margin of gx = 0 and one ulp inside it, from both sides
    (SINGULAR_MARGIN, 5.0, 1200, "sum", 10.0),
    (np.nextafter(SINGULAR_MARGIN, 0.0), 5.0, 1200, "sum", 10.0),
    (-5.0, -SINGULAR_MARGIN, 1200, "diagonal", 10.0),
    (-5.0, np.nextafter(-SINGULAR_MARGIN, 0.0), 1200, "diagonal", 10.0),
    # gx = line_sum -+ the margin, which rounds inside it, and one ulp
    # further out
    (5.0, 10.0 - SINGULAR_MARGIN, 1200, "sum", 10.0),
    (5.0, np.nextafter(10.0 - SINGULAR_MARGIN, 0.0), 1200, "sum", 10.0),
    (10.0 + SINGULAR_MARGIN, 15.0, 1200, "sum", 10.0),
    (np.nextafter(10.0 + SINGULAR_MARGIN, 20.0), 15.0, 1200, "sum", 10.0),
    # both singular points inside the range: gx = 0 is named first
    (-10.0, 20.0, 31, "sum", 10.0),
    (-10.0, 20.0, 31, "sum", -7.0),
    # endpoints near +-1e308, where gx - line_sum overflows
    (1e308, 1.7e308, 1200, "sum", -1.5e308),
    (-1.7e308, -1e308, 1200, "sum", 1.5e308),
    (1e308, 1.7e308, 1200, "sum", 1.7e308),
    (-1.7e308, -1e308, 7, "sum", -1.7e308),
])
def test_trajectory_spec_margin_is_the_sample_loop(start, stop, steps, line,
                                                   line_sum):
    # the first sample, in gx order, within the margin of the first
    # singular point is named, as the loop over samples names it
    expected = _margin_refusal(start, stop, steps, line, line_sum)
    if expected is None:
        TrajectorySpec(j=4, start=start, stop=stop, steps=steps, line=line,
                       line_sum=line_sum)
        return
    with pytest.raises(ValueError) as refused:
        TrajectorySpec(j=4, start=start, stop=stop, steps=steps, line=line,
                       line_sum=line_sum)
    assert str(refused.value) == expected


@pytest.mark.parametrize("start, stop", [(-1e308, 1e308),
                                         (-1.7e308, 1.7e308)])
def test_trajectory_spec_refuses_a_span_that_overflows(start, stop):
    # stop - start is inf, so linspace would scan gx = nan
    with pytest.raises(ValueError) as refused:
        TrajectorySpec(j=2, start=start, stop=stop, steps=3)
    assert str(refused.value) == (
        f"the span from start={start:.6g} to stop={stop:.6g} overflows")


@pytest.mark.parametrize("j", [0, 1.5])
def test_trajectory_spec_refuses_a_j_that_is_not_a_positive_integer(j):
    with pytest.raises(ValueError, match="j must be a positive integer"):
        TrajectorySpec(j=j, start=0.1, stop=9.9, steps=50)


def test_scan_and_detect_small():
    spec = TrajectorySpec(j=4, line="sum", line_sum=10.0, start=0.08,
                          stop=9.92, steps=400, state_index=0)
    table = scan_trajectory(spec)
    assert not table.failures
    assert len(table.gamma_x) == 400
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


def test_total_collapse_on_diagonal_checks_midpoint():
    # lam = 0 along gx = gy: |j,-j> is the ground state for gx > 0 only;
    # at gx = -2 the j = 4 ground state is |4,-2>
    spec = TrajectorySpec(j=4, line="diagonal", start=1.0, stop=3.0,
                          steps=20)
    assert total_collapse(spec) == 2.0
    assert [(c.gamma_x, c.anchor_value, c.total)
            for c in total_collapse_candidates(spec)] == [(2.0, 0.0, True)]
    negative = TrajectorySpec(j=4, line="diagonal", start=-3.0, stop=-1.0,
                              steps=20)
    assert total_collapse(negative) is None
    assert total_collapse_candidates(negative) == []


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


def _anchor_value_reference(spec, gx):
    """anchor_value of one sample composed from the one-state primitives:
    eigenpair, parity_slice and np.polyval."""
    params = ModelParams.from_gammas(spec.j, gx, spec.gamma_y(gx),
                                     eps=spec.eps)
    pair = eigenpair(build_hamiltonian(params), spec.state_index)
    assert not pair.degenerate
    d = parity_slice(pair.state)[1].real
    d = -d if d[0] < 0 else d
    t = params.t
    w = (t - 1.0) / (t + 1.0)
    scale = float(np.max(np.abs(d)))
    bound = float(np.polyval(np.abs(d), abs(w))) / scale
    return (float(np.polyval(d, w)) / scale,
            collapse.ANCHOR_NOISE_C * (len(d) - 1) * np.finfo(float).eps
            * bound)


@pytest.mark.parametrize("j, line_sum, state, start, stop", [
    (j, c, 0, 0.05, c - 0.05) for j in (4, 6, 10) for c in (10.0, 12.0)] + [
    # stacks whose state sits in the even sector at some samples and in
    # the odd one at others
    (6, 10.0, 3, 0.05, 9.95), (10, -7.0, 0, -9.0, -0.05)])
def test_anchor_profile_is_anchor_value_bitwise(j, line_sum, state, start,
                                                stop):
    spec = TrajectorySpec(j=j, line="sum", line_sum=line_sum, start=start,
                          stop=stop, steps=240, state_index=state)
    profile = anchor_profile(spec)
    one = np.array([anchor_value(spec, float(g)) for g in spec.samples()])
    ref = np.array([_anchor_value_reference(spec, float(g))
                    for g in spec.samples()])
    for pairs in (one, ref):
        assert profile.value.tobytes() == pairs[:, 0].tobytes()
        assert profile.noise.tobytes() == pairs[:, 1].tobytes()


@pytest.mark.parametrize("j, budget", [(10, 7 * 21 ** 2), (40, None)])
def test_anchor_profile_across_chunks(monkeypatch, j, budget):
    # chunks of 7 samples at j = 10, and the default budget's 39 at j = 40
    if budget is not None:
        monkeypatch.setattr(paironmap, "STACK_ENTRIES", budget)
    spec = TrajectorySpec(j=j, line="sum", line_sum=10.0, start=0.05,
                          stop=9.95, steps=100, state_index=0)
    assert paironmap.STACK_ENTRIES // (2 * j + 1) ** 2 < 50
    profile = anchor_profile(spec)
    pairs = np.array([anchor_value(spec, float(g)) for g in spec.samples()])
    assert profile.value.tobytes() == pairs[:, 0].tobytes()
    assert profile.noise.tobytes() == pairs[:, 1].tobytes()


def test_anchor_profile_refuses_as_the_first_failing_sample(monkeypatch):
    # lam = 0 on the diagonal, and at j = 3 state 4 is degenerate within
    # its parity sector at gx = 1.25 and at gx = 2.5
    spec = TrajectorySpec(j=3, line="diagonal", start=1.0, stop=3.0,
                          steps=9, state_index=4)
    with pytest.raises(DegenerateStateError) as alone:
        anchor_value(spec, 1.25)
    with pytest.raises(DegenerateStateError) as stacked:
        anchor_profile(spec)
    assert str(stacked.value) == str(alone.value) == (
        "state 4 at (gx=1.25, gy=1.25) is degenerate within its parity "
        "sector")
    # a LAPACK failure of a stack is traced to its first failing sample
    solve = spin.parity_eigh

    def failing(blocks, name):
        # <-3|H|-3> = 3 gx/5 - 3 picks the samples gx >= 2.5
        if name == "even" and np.any(blocks[:, 0, 0] > -1.6):
            raise ConvergenceError(f"eigensolve failed in the {name} sector")
        return solve(blocks, name)

    monkeypatch.setattr(spin, "parity_eigh", failing)
    with pytest.raises(DegenerateStateError, match="gx=1.25"):
        anchor_profile(spec)
    spec = TrajectorySpec(j=3, line="diagonal", start=1.0, stop=3.0,
                          steps=9, state_index=0)
    anchor_value(spec, 2.25)
    with pytest.raises(ConvergenceError, match="in the even sector"):
        anchor_value(spec, 2.5)
    with pytest.raises(ConvergenceError, match="in the even sector"):
        anchor_profile(spec)


def test_one_refusal_per_point_whatever_the_path():
    # the extraction, the anchor and the zero pattern refuse a point with
    # one exception and one message: state 4 at j = 3 is degenerate
    # within its parity sector at gx = gy = 1.25
    spec = TrajectorySpec(j=3, line="diagonal", start=1.0, stop=3.0,
                          steps=9, state_index=4)
    params = ModelParams.from_gammas(3, 1.25, 1.25)
    messages = []
    for refused in (lambda: extract_pairons(params, 4),
                    lambda: anchor_value(spec, 1.25),
                    lambda: collapse_zero_pattern(params, 4)):
        with pytest.raises(DegenerateStateError) as exc:
            refused()
        messages.append(str(exc.value))
    assert messages == ["state 4 at (gx=1.25, gy=1.25) is degenerate "
                        "within its parity sector"] * 3
    # gamma_y = 0 at gx = c on a sum line, and gamma_x = 0 at gx = 0
    spec = TrajectorySpec(j=3, line_sum=10.0, start=1.0, stop=3.0, steps=3)
    for gx in (10.0, 0.0):
        with pytest.raises(SingularParameterError) as alone:
            extract_pairons(ModelParams.from_gammas(3, gx, 10.0 - gx))
        with pytest.raises(SingularParameterError) as anchored:
            anchor_value(spec, gx)
        assert str(anchored.value) == str(alone.value)
    # on c = 1.7e308 at j = 2, gy = c - gx is not finite at gx = -1e308,
    # so lam is -inf; at gx = 1.6e308 the couplings are finite but the row
    # sums of |H| overflow.  Each path refuses with ModelParams' words or
    # with the overflow, and no RuntimeWarning (an error here) is emitted.
    for start, stop, message in (
            (-1e308, -9e307, "lam must be finite, got -inf"),
            (1e307, 1.6e308, "H overflows at (gx=1.6e+308, gy=1e+307)")):
        spec = TrajectorySpec(j=2, line_sum=1.7e308, start=start, stop=stop,
                              steps=3)
        gx = start if start < 0 else stop
        lam, gam = spin.couplings(2, gx, spec.gamma_y(gx))

        def at_point(call):
            return lambda: call(ModelParams.from_gammas(2, gx,
                                                        spec.gamma_y(gx)))

        refusals = [_refusal(call) for call in (
            lambda: extract_stack(2, 1.0, [lam], [gam])[0],
            lambda: anchor_value(spec, gx),
            lambda: collapse._zero_patterns(2, 1.0, np.array([lam]),
                                            np.array([gam]), 0)[0],
            at_point(extract_pairons),
            at_point(collapse_zero_pattern),
            at_point(lambda p: eigenpair(build_hamiltonian(p), 0)),
            at_point(lambda p: spin.diagonalize(build_hamiltonian(p))))]
        assert [(type(r), str(r)) for r in refusals] == (
            [(ValueError, message)] * len(refusals))
        failures = dict(scan_trajectory(spec).failures)
        assert failures[gx] == f"ValueError: {message}"


def _refusal(call):
    """The ValueError that call raises, or returns as a stacked result."""
    try:
        return call()
    except ValueError as exc:
        return exc


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
    for live, branches, sites in zip(table.live, table.branch, table.sites):
        cur = {}
        for branch, site in zip(branches[live].tolist(), sites[live].tolist()):
            cur[branch] = site
            if branch in prev:
                assert chordal_distance(prev[branch], site) < 0.1
        prev = cur


@pytest.mark.parametrize("spec, minimum", [
    (TrajectorySpec(j=10, start=0.05, stop=9.95, steps=200), 100),
    (TrajectorySpec(j=7, start=0.05, stop=9.95, steps=100, state_index=3),
     90)], ids=["j10-sum", "j7-state3"])
def test_scan_sites_continue_their_branch(spec, minimum):
    # each emitted site is the member of its +- pair that is not strictly
    # farther than the other from the site its branch emitted one sample
    # before, and the canonical member on a tie; enough of them are the
    # negated member that the comparison against an emitted negated site
    # is exercised
    table = scan_trajectory(spec)
    before, negated = {}, 0
    for live, pairons, t, branches, sites in zip(
            table.live, table.pairons, table.t, table.branch, table.sites):
        records = list(zip(pairons[live].tolist(), branches[live].tolist(),
                           sites[live].tolist()))
        for energy, branch, site in records:
            canonical = complex(paironmap.pairon_sites(energy, t))
            assert site in (canonical, _negation(canonical))
            negated += site != canonical
            p = before.get(branch)
            if p is None or cmath.isinf(p) or cmath.isinf(site):
                continue
            to_other = chordal_distance(p, _negation(site))
            to_site = chordal_distance(p, site)
            assert not to_other < to_site
            if to_other == to_site:
                assert site == canonical
        before = {branch: site for _, branch, site in records}
    assert negated >= minimum


def _negation(z):
    """The image of a site under zeta -> -zeta, infinity its own."""
    return z if cmath.isinf(z) else -z


def test_dicke_line_pole_multiplicities():
    # on the diagonal gx = gy < 0 every state is a Dicke state, whose
    # pairons are the exact structural roots of its u-polynomial: n0 at
    # +t and n_inf at -t, each putting both its zeros on its pole, where a
    # nu = 1 state adds its seniority zero
    spec = TrajectorySpec(j=10, line="diagonal", start=-9.95, stop=-0.05,
                          steps=50)
    table = scan_trajectory(spec)
    assert len(table.gamma_x) == 50
    seen = set()
    for s, (gx, gy, nu) in enumerate(zip(table.gamma_x.tolist(),
                                         table.gamma_y.tolist(),
                                         table.nu.tolist())):
        params = ModelParams.from_gammas(10, gx, gy)
        state = eigenpair(build_hamiltonian(params), spec.state_index).state
        n0, n_inf, rest = strip_and_solve(parity_slice(state)[1])
        assert rest.size == 0
        live = table.live[s]
        for pole, site, mult in zip(table.pole[s, live].tolist(),
                                    table.sites[s, live].tolist(),
                                    table.multiplicity[s, live].tolist()):
            assert pole
            assert cmath.isinf(site) or site == 0
            expect = (2 * n_inf if cmath.isinf(site) else 2 * n0) + nu
            assert mult == expect
            seen.add((nu, cmath.isinf(site), expect))
    # both seniorities, both poles
    assert {(nu, pole) for nu, pole, _ in seen} == {
        (0, False), (0, True), (1, False), (1, True)}


def test_collapse_pattern_j4():
    for p in collapse_points(4, 10.0):
        params = ModelParams.from_gammas(4, p.gamma_x, 10.0 - p.gamma_x)
        pattern = sorted(collapse_zero_pattern(params), reverse=True)
        expect = sorted([2 * (p.k + 1)] + [2] * (4 - 1 - p.k), reverse=True)
        assert pattern == expect


def test_collapse_pattern_j10_low_k():
    for p in collapse_points(10, 10.0):
        if p.k > 3:
            continue
        params = ModelParams.from_gammas(10, p.gamma_x, 10.0 - p.gamma_x)
        pattern = sorted(collapse_zero_pattern(params), reverse=True)
        assert pattern == sorted([2 * (p.k + 1)] + [2] * (9 - p.k),
                                 reverse=True)


def _one_row_pattern(d, w):
    """The pattern of one slice d (n+1,) at w, a_m taken row by row for
    m = 0, 1, ... until one exceeds its bound."""
    n0, hi = np.flatnonzero(d)[[0, -1]].tolist()
    n = len(d) - 1
    n_inf = n - hi if w != 0 else 0
    free = n - n0 - n_inf
    merged = 0
    while merged < free:
        (value,), (noise,) = _anchor_coefficients(d[None], np.array([w]),
                                                  merged)
        if abs(value) > noise:
            break
        merged += 1
    sites = [merged, n0, n_inf] + [1] * (free - merged)
    return sorted((2 * s for s in sites if s), reverse=True)


@pytest.mark.parametrize("line_sum", [10.0, 12.0])
def test_stacked_zero_patterns_are_the_one_point_patterns(line_sum):
    # every analytic collapse point of j = 2..10 on the line, in one stack
    # per j: each point's pattern is collapse_zero_pattern's at the point
    # alone, and the one a row-by-row Taylor count of its slice gives
    for j in range(2, 11):
        gx = np.array([p.gamma_x for p in collapse_points(j, line_sum)])
        lam, gam = spin.couplings(j, gx, line_sum - gx)
        stacked = collapse._zero_patterns(j, 1.0, lam, gam, 0)
        assert len(stacked) == len(gx) >= 2
        assert stacked == [
            collapse_zero_pattern(ModelParams.from_gammas(j, g, line_sum - g))
            for g in gx.tolist()]
        _, slices = _anchor_slices(j, 1.0, lam, gam, 0)
        for rows, d, w in slices:
            for i, row, at in zip(rows.tolist(), d, w.tolist()):
                assert stacked[i] == _one_row_pattern(row, at)


@pytest.mark.parametrize("j, gx, pattern", [
    (5, -3.0, [6, 4]),   # |5,-1>: pairons -1, -1, -1, +1, +1
    (3, -2.0, [4, 2]),   # |3,-1>: pairons -1, -1, +1
    (4, -2.0, [6, 2]),   # |4,-2>: pairons -1, -1, -1, +1
])
def test_collapse_pattern_dicke_state_split(j, gx, pattern):
    # on the diagonal the ground state is a Dicke state whose pairons sit
    # at -eps and +eps: two sites, not one merged group of all j
    params = ModelParams.from_gammas(j, gx, gx)
    assert collapse_zero_pattern(params) == pattern


def _anchor_multiplicity(j, gx, gy):
    """(m, ratios): Taylor count at the anchor and |a_m|/bound for all m."""
    params = ModelParams.from_gammas(j, gx, gy)
    refusals, [(_, d, w)] = _anchor_slices(
        j, params.eps, np.array([params.lam]), np.array([params.gam]), 0)
    assert refusals == [None]
    ratios = []
    for m in range(d.shape[1]):
        (value,), (noise,) = _anchor_coefficients(d, w, m)
        ratios.append(abs(value) / noise if noise else 0.0)  # 0 is exact
    m = next((i for i, r in enumerate(ratios) if r > 1.0), d.shape[1] - 1)
    return m, ratios


@pytest.mark.parametrize("line_sum", [10.0, 12.0])
def test_anchor_taylor_count_over_envelope(line_sum):
    # every analytic point with j <= 10 gives m = k+1: the vanishing
    # coefficients stay below half their bound (0.24 at worst) and the
    # next one exceeds it a thousandfold (1.9e4 at worst).  Where a
    # hyperbola touches the line at c/2 the state is |j,-j> and all j
    # pairons sit at the anchor.  1e-3 off each point a_0 exceeds its
    # bound (2.5-fold at worst), so the count is not true by construction.
    for j in range(1, 11):
        for p in collapse_points(j, line_sum):
            m, ratios = _anchor_multiplicity(j, p.gamma_x, p.gamma_y)
            merged = j if p.gamma_x == line_sum / 2 else p.k + 1
            assert m == merged, (j, p)
            assert max(ratios[:merged]) <= 0.5, (j, p)
            if merged < j:
                assert ratios[merged] >= 1e3, (j, p)
            params = ModelParams.from_gammas(j, p.gamma_x, p.gamma_y)
            assert collapse_zero_pattern(params) == (
                [2 * merged] + [2] * (j - merged))
            for step in (-1e-3, 1e-3):
                gx = p.gamma_x + step
                m, ratios = _anchor_multiplicity(j, gx, line_sum - gx)
                assert m == 0 and ratios[0] >= 1.5, (j, p, step)


def test_anchor_value_changes_sign_at_collapse():
    spec = TrajectorySpec(j=4, line="sum", line_sum=10.0, start=0.08,
                          stop=9.92, steps=100, state_index=0)
    for p in collapse_points(4, 10.0):
        below = anchor_value(spec, p.gamma_x - 1e-4)[0]
        above = anchor_value(spec, p.gamma_x + 1e-4)[0]
        assert below * above < 0
        assert 0 < abs(above) < abs(anchor_value(spec, p.gamma_x + 2e-4)[0])


def _root_or_failure(solve, failure, f, a, b):
    """The root's hex, or which way the solve failed."""
    try:
        return solve(f, a, b).hex()
    except ValueError:
        return "no sign change"
    except failure:
        return "no convergence"


def _same_as_scipy(f, a, b):
    return (_root_or_failure(_brentq, ConvergenceError, f, a, b)
            == _root_or_failure(brentq, RuntimeError, f, a, b))


# (f, lo, root, hi): brackets are drawn with one end in [lo, root) and
# the other in (root, hi]
BRENTQ_CASES = [
    (lambda x: math.cos(x) - x, -2.0, 0.7390851332151607, 3.0),
    (lambda x: x ** 3 - 2 * x - 5, 0.0, 2.0945514815423265, 4.0),
    (lambda x: math.exp(x) - 3, -1.0, math.log(3), 3.0),
    (lambda x: (x - 0.3) ** 5, -2.0, 0.3, 2.0),  # often out of steps
    (lambda x: math.tan(x) - 1, -1.5, math.pi / 4, 1.5),
    (lambda x: x ** 4 - 1e-10, 0.0, 10 ** -2.5, 2.0)]


@pytest.mark.parametrize("case", range(len(BRENTQ_CASES)))
def test_brentq_is_scipy_bitwise(case):
    f, lo, root, hi = BRENTQ_CASES[case]
    rng = np.random.default_rng(case)
    for _ in range(100):
        a = float(rng.uniform(lo, root))
        b = float(rng.uniform(root, hi))
        if rng.random() < 0.5:
            a, b = b, a
        assert _same_as_scipy(f, a, b), (case, a, b)


def test_brentq_edge_cases():
    # an endpoint where f is 0 is the root; a bracket without a sign
    # change raises ValueError, one that does not converge in 100 steps
    # ConvergenceError (scipy: RuntimeError)
    f = lambda x: x * x - 4
    p5 = lambda x: (x - 0.3) ** 5
    assert _brentq(f, 2.0, 5.0) == 2.0
    assert _brentq(f, 0.0, -2.0) == -2.0
    assert _brentq(p5, 0.3, 1.0) == 0.3
    with pytest.raises(ValueError):
        _brentq(f, 3.0, 4.0)
    with pytest.raises(ConvergenceError):
        _brentq(p5, 0.0, 1.0)
    for g, a, b in [(f, 2.0, 5.0), (f, 0.0, -2.0), (p5, 0.3, 1.0),
                    (f, 3.0, 4.0), (p5, 0.0, 1.0)]:
        assert _same_as_scipy(g, a, b)


def test_brentq_is_scipy_bitwise_on_anchor_brackets():
    # every sign-change bracket the collapse command refines at these
    # (j, line sum), on its default sampling
    lo = SINGULAR_MARGIN + 0.049
    count = 0
    for j in (3, 6, 10):
        for c in (10.0, 12.0):
            spec = TrajectorySpec(j=j, start=lo, stop=c - lo, steps=1200,
                                  line_sum=c)
            gx = spec.samples()
            sign = np.sign(anchor_profile(spec).value)
            f = lambda g: anchor_value(spec, g)[0]
            for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
                assert _same_as_scipy(f, float(gx[i]), float(gx[i + 1])), \
                    (j, c, i)
                count += 1
    assert count == 64


def _same_assignment(cost):
    """Whether _linear_sum_assignment gives cost scipy's assignment, or
    the same ValueError."""
    def solve(f):
        try:
            rows, cols = f(cost)
        except ValueError as exc:
            return str(exc)
        return list(rows), list(cols)
    return solve(_linear_sum_assignment) == solve(linear_sum_assignment)


def test_linear_sum_assignment_is_scipy_bitwise():
    # random real tables, and small integer tables, whose ties the tie
    # rules decide, also with infinite entries; wide, square and tall
    rng = np.random.default_rng(7)
    for _ in range(2000):
        shape = rng.integers(1, 8, size=2)
        ties = rng.integers(0, 4, size=shape).astype(float)
        blocked = np.where(rng.random(shape) < 0.3, np.inf, ties)
        for cost in (rng.random(shape), ties, blocked):
            assert _same_assignment(cost), cost.tolist()


def test_linear_sum_assignment_edge_cases():
    for shape in [(0, 3), (3, 0), (0, 0), (1, 1)]:
        assert _same_assignment(np.ones(shape))
    # a constant table gets the identity, as scipy's reverse scan gives it
    assert _linear_sum_assignment(np.zeros((4, 4)))[1] == [0, 1, 2, 3]
    for bad in (math.nan, -math.inf):
        cost = np.ones((3, 4))
        cost[1, 2] = bad
        with pytest.raises(ValueError, match="invalid numeric entries"):
            _linear_sum_assignment(cost)
        assert _same_assignment(cost) and _same_assignment(cost.T)
    infeasible = np.array([[math.inf, math.inf], [1.0, 2.0]])
    with pytest.raises(ValueError, match="infeasible"):
        _linear_sum_assignment(infeasible)
    assert _same_assignment(infeasible)
    with pytest.raises(ValueError, match="2-D"):
        _linear_sum_assignment(np.ones(3))


SCAN_LINES = [(10, 200, 0), (7, 100, 3), (40, 100, 0)]


def _matcher_inputs(monkeypatch, j, steps, state):
    """The energies and counts that the scan of gx + gy = 10 from 0.05 to
    9.95 gives _assign_branches."""
    calls = []
    assign = collapse._assign_branches
    monkeypatch.setattr(collapse, "_assign_branches",
                        lambda *args: calls.append(args) or assign(*args))
    scan_trajectory(TrajectorySpec(j=j, start=0.05, stop=9.95, steps=steps,
                                   state_index=state))
    monkeypatch.undo()
    (energies, counts), = calls
    assert len(counts) == steps
    return energies, counts


@pytest.mark.parametrize("j, steps, state", SCAN_LINES)
def test_linear_sum_assignment_is_scipy_bitwise_on_scan_tables(
        monkeypatch, j, steps, state):
    # every cost table of the branch matcher on lmg scan lines
    tables = []
    assignment = collapse._linear_sum_assignment
    monkeypatch.setattr(collapse, "_linear_sum_assignment",
                        lambda cost: tables.append(cost) or assignment(cost))
    scan_trajectory(TrajectorySpec(j=j, start=0.05, stop=9.95, steps=steps,
                                   state_index=state))
    monkeypatch.undo()
    assert len(tables) == steps - 1
    assert all(_same_assignment(cost) for cost in tables)


def _reference_sources(energies, counts):
    """For each sample, the column of the previous sample that each of its
    records continues (-1 where a branch starts): one chordal_distances
    call per step on continuations taken in Python, and scipy's
    assignment."""
    rows = energies.tolist()
    sources, back = [], []
    for s, n in enumerate(counts):
        prev_back, back = back, [-1] * n
        if n and prev_back:
            last = rows[s - 1][:len(prev_back)]
            guess = [2 * e - rows[s - 2][k] if k >= 0 else 0j
                     for e, k in zip(last, prev_back)]
            direct, ahead = chordal_distances(
                energies[s, :n, None], np.array([last, guess])[:, None, :])
            cost = np.where([k >= 0 for k in prev_back],
                            np.minimum(direct, ahead), direct)
            for i, k in zip(*linear_sum_assignment(cost)):
                back[i] = int(k)
        sources.append(back)
    return sources


@pytest.mark.parametrize("j, steps, state", SCAN_LINES)
def test_steady_costs_are_each_steps_costs(monkeypatch, j, steps, state):
    # one _steady_costs call over every step gives the bits of each step's
    # own chordal_distances call on its continuations, taken in Python's
    # complex arithmetic; and however many steps share a call, the matcher
    # continues the records that the per-step scipy matcher continues
    energies, counts = _matcher_inputs(monkeypatch, j, steps, state)
    rows = energies.tolist()
    steady = _steady_costs(energies, 1, steps)
    for s in range(1, steps):
        n, m = counts[s], counts[s - 1]
        last = rows[s - 1][:m]
        guess = last if s == 1 else [2 * e - rows[s - 2][k]
                                     for k, e in enumerate(last)]
        direct, ahead = chordal_distances(energies[s, :n, None],
                                          np.array([last, guess])[:, None, :])
        assert steady[s - 1, :n, :m].tobytes() == \
            np.minimum(direct, ahead).tobytes(), s
    reference = _reference_sources(energies, counts)
    for entries in (1, collapse.AHEAD_ENTRIES, 1 << 30):
        monkeypatch.setattr(collapse, "AHEAD_ENTRIES", entries)
        _, source = _assign_branches(energies, counts)
        assert [row[:n] for row, n in zip(source.tolist(), counts)] \
            == reference


def _brackets(profile):
    gx = profile.spec.samples()
    sign = np.sign(profile.value)
    return [(float(gx[i]), float(gx[i + 1]))
            for i in np.flatnonzero(sign[:-1] * sign[1:] < 0)]


def _serial_collapses(profile):
    """find_collapses bracket by bracket: _brentq on one-sample
    anchor_value calls, then anchor_value at each root."""
    spec = profile.spec
    f = lambda g: anchor_value(spec, g)[0]
    roots = [float(g) for g, v in zip(spec.samples(), profile.value)
             if v == 0]
    roots += [_brentq(f, a, b) for a, b in _brackets(profile)]
    found = total_collapse_candidates(spec)
    for total in found:
        roots = [r for r in roots
                 if abs(r - total.gamma_x) > 1e-9 * abs(spec.line_sum)]
    found += [CollapseCandidate(gamma_x=r, anchor_value=f(r)) for r in roots]
    return sorted(found, key=lambda c: c.gamma_x)


def _fields(found):
    return [(c.gamma_x.hex(), c.anchor_value.hex(), c.total) for c in found]


@pytest.mark.parametrize("j, line_sum, state", [
    (j, c, 0) for j in (3, 6, 10) for c in (10.0, 12.0, 20.0)] + [
    (6, 10.0, 1)])
def test_find_collapses_is_serial_brent_bitwise(j, line_sum, state):
    # the lockstep rounds give every bracket the root and the anchor value
    # that _brentq on one-sample anchor_value calls gives it
    lo = SINGULAR_MARGIN + 0.049
    spec = TrajectorySpec(j=j, start=lo, stop=line_sum - lo, steps=1200,
                          line_sum=line_sum, state_index=state)
    profile = anchor_profile(spec)
    if profile.unresolved().any():  # j = 10 on c = 20: exit 3
        with pytest.raises(UnresolvedAnchorError):
            find_collapses(profile)
        found = find_collapses(AnchorProfile(
            spec, profile.value, np.zeros_like(profile.noise)))
    else:
        found = find_collapses(profile)
    assert _fields(found) == _fields(_serial_collapses(profile))
    if profile.unresolved().any():
        return
    rows = collapse_rows(spec, found)
    assert len(rows) == len(found)
    for row in rows:
        params = ModelParams.from_gammas(j, row.point.gamma_x,
                                         row.point.gamma_y)
        assert list(row.pattern) == collapse_zero_pattern(params, state)


def test_find_collapses_raises_as_the_first_failing_bracket(monkeypatch):
    # the later bracket is refused at its first point, the earlier one
    # only near its root, rounds later: the earlier bracket's refusal
    # wins, as it does bracket by bracket.  Each refused point is
    # evaluated once: a refusal stops its own bracket and no other.
    spec = TrajectorySpec(j=6, start=0.05, stop=9.95, steps=1200)
    profile = anchor_profile(spec)
    found = find_collapses(profile)
    brackets = _brackets(profile)
    (early, late) = brackets[1], brackets[4]
    (root,) = [c.gamma_x for c in found if early[0] < c.gamma_x < early[1]]
    values = collapse._anchor_values
    refused = []

    def refusing(spec, gx):
        value, noise, refusals = values(spec, gx)
        for k, g in enumerate(gx.tolist()):
            if late[0] <= g <= late[1]:
                refused.append("late")
                refusals[k] = DegenerateStateError(
                    f"state 0 is degenerate at {g!r}")
            elif early[0] <= g <= early[1] and abs(g - root) < 1e-7:
                refused.append("early")
                refusals[k] = ConvergenceError(f"eigensolve failed at {g!r}")
        return value, noise, refusals

    monkeypatch.setattr(collapse, "_anchor_values", refusing)
    with pytest.raises(ConvergenceError) as serial:
        _serial_collapses(profile)
    assert refused == ["early"]
    refused.clear()
    with pytest.raises(ConvergenceError) as lockstep:
        find_collapses(profile)
    assert refused == ["late", "early"]
    assert str(lockstep.value) == str(serial.value)

    # an earlier bracket out of Brent steps wins over a later bracket
    # whose first point is refused
    spec = TrajectorySpec(j=2, start=1.0, stop=3.0, steps=3)

    def quintic(spec, gx):
        refusals = [DegenerateStateError("state 0 is degenerate")
                    if 2.0 < g < 3.0 else None for g in gx.tolist()]
        return (np.where(gx <= 2.0, (gx - 1.3) ** 5, -1.0),
                np.zeros(len(gx)), refusals)

    monkeypatch.setattr(collapse, "_anchor_values", quintic)
    profile = anchor_profile(spec)
    assert _brackets(profile) == [(1.0, 2.0), (2.0, 3.0)]
    with pytest.raises(ConvergenceError) as serial:
        _serial_collapses(profile)
    with pytest.raises(ConvergenceError) as lockstep:
        find_collapses(profile)
    assert str(lockstep.value) == str(serial.value) == (
        "brentq did not converge in 100 steps in [1.0, 2.0]")


def test_profile_points_solve_one_block_each(monkeypatch):
    # the 1200 profile points of `lmg collapse --j 10` take three stacks of
    # 400, each certified in its one block, and their profile is that of
    # the two-block solve; a 16-point stack, as a Brent round, passes both
    # blocks of every point to np.linalg.eigh
    assert 16 * 21 < spin.ONE_BLOCK_MIN_ROWS <= 400 * 21
    lo = SINGULAR_MARGIN + 0.049
    spec = TrajectorySpec(j=10, start=lo, stop=10.0 - lo, steps=1200)
    monkeypatch.setattr(spin, "ONE_BLOCK_MIN_ROWS", 10 ** 9)
    reference = anchor_profile(spec)
    monkeypatch.undo()
    blocks = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        blocks.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    profile = anchor_profile(spec)
    assert sum(blocks) == 1200 and len(blocks) == 3
    assert profile.value.tobytes() == reference.value.tobytes()
    assert profile.noise.tobytes() == reference.noise.tobytes()
    blocks.clear()
    collapse._anchor_values(spec, np.linspace(0.3, 9.7, 16))
    assert blocks == [16, 16]


def test_find_collapses_stacks_its_brent_steps(monkeypatch):
    # j = 10 on the default grid: 16 brackets, each round one stacked
    # call (one chunk), and no one-sample anchor_value call at all, where
    # the bracket-by-bracket refinement made 316 of them
    lo = SINGULAR_MARGIN + 0.049
    spec = TrajectorySpec(j=10, start=lo, stop=10.0 - lo, steps=1200)
    profile = anchor_profile(spec)
    assert len(_brackets(profile)) == 16
    assert 16 <= paironmap.STACK_ENTRIES // 21 ** 2
    calls = {"one": 0, "stacked": 0}
    one, values = collapse.anchor_value, collapse._anchor_values

    def counted_one(*args):
        calls["one"] += 1
        return one(*args)

    def counted_stacked(*args):
        calls["stacked"] += 1
        return values(*args)

    monkeypatch.setattr(collapse, "anchor_value", counted_one)
    monkeypatch.setattr(collapse, "_anchor_values", counted_stacked)
    assert len(find_collapses(profile)) == 17
    assert calls["one"] == 0
    assert 0 < calls["stacked"] <= 101


def _chordal_reference(a, b):
    """The chordal metric in Python's scalar arithmetic."""
    if a is None and b is None:
        return 0.0
    if a is None or b is None:
        return 2.0 / math.hypot(1.0, abs(b if a is None else a))
    return 2.0 * abs(a - b) / math.sqrt((1.0 + abs(a) ** 2)
                                        * (1.0 + abs(b) ** 2))


def test_chordal_array_form_is_the_scalar_formula_bitwise(rng):
    # finite points over 16 decades, zero, infinity and near-coincident
    # pairs; a cost matrix of the branch matcher has this shape
    z = ((rng.normal(size=80) + 1j * rng.normal(size=80))
         * 10.0 ** rng.uniform(-8, 8, 80))
    points = [complex(p) for p in z] + [0j, None, 1.0 + 1e-12j, 1.0 + 0j]
    ref = np.array([[_chordal_reference(a, b) for b in points]
                    for a in points])
    coords = coordinates(points)
    assert chordal_distances(coords[:, None],
                             coords[None, :]).tobytes() == ref.tobytes()
    assert all(chordal_distance(a, b) == ref[i, k]
               for i, a in enumerate(points) for k, b in enumerate(points))
    assert chordal_distances(INFINITY, np.array([0j, INFINITY])).tolist() \
        == [2.0, 0.0]


def _table_bits(table):
    return ([(f, r) for f, r in table.failures], table.flags,
            [(a.dtype, a.shape, a.tobytes())
             for a in (table.gamma_x, table.gamma_y, table.t, table.energy,
                       table.nu, table.pairons, table.sites,
                       table.multiplicity, table.branch, table.pole)])


def test_scan_solves_each_sample_alone_when_the_stack_fails(monkeypatch):
    # j = 3, state 4: degenerate within its sector at gx = 1.25 and 2.5 on
    # the diagonal; the patched solver refuses every stack of several
    # blocks, and the even blocks of the points with gx >= 2.5 alone
    spec = TrajectorySpec(j=3, line="diagonal", start=1.0, stop=3.0,
                          steps=9, state_index=4)
    params = [ModelParams.from_gammas(3, g, g) for g in spec.samples()]
    solve = spin.parity_eigh

    def failing(blocks, name):
        if len(blocks) > 1:
            raise ConvergenceError(f"stack of {len(blocks)} refused")
        if name == "even" and blocks[0, 0, 0] > -1.6:
            raise ConvergenceError(f"eigensolve failed in the {name} sector")
        return solve(blocks, name)

    monkeypatch.setattr(spin, "parity_eigh", failing)
    alone = []
    for p in params:
        try:
            alone.append(extract_pairons(p, 4))
        except (PaironsError, ValueError) as exc:
            alone.append(exc)
    stacked = extract_stack(3, 1.0, [p.lam for p in params],
                            [p.gam for p in params], 4)
    kinds = [type(r).__name__ for r in alone]
    assert kinds == (["tuple", "DegenerateStateError"] + ["tuple"] * 4
                     + ["ConvergenceError"] * 3)
    for a, b in zip(alone, stacked):
        if isinstance(a, Exception):
            assert (type(a), str(a)) == (type(b), str(b))
        else:
            assert a == b
    table = scan_trajectory(spec)
    assert [f for f, _ in table.failures] == [
        float(g) for g, r in zip(spec.samples(), alone)
        if isinstance(r, Exception)]
    assert table.failures[0][1] == (
        "DegenerateStateError: state 4 at (gx=1.25, gy=1.25) is degenerate "
        "within its parity sector")
    assert table.failures[1][1] == (
        "ConvergenceError: eigensolve failed in the even sector")


@pytest.mark.parametrize("budget, direct",
                         [(None, False), (7 * 21 ** 2, False),
                          (7 * 21 ** 2, True)],
                         ids=["one-chunk", "chunks-of-7", "direct-chunks-of-7"])
def test_scan_is_one_stacked_extraction_per_chunk(monkeypatch, budget,
                                                  direct):
    # at most one parity_eigh call per parity and chunk, no one-point
    # extraction, and the table of the default chunks; extract_stack
    # called directly chunks its points as the scan's call does
    spec = TrajectorySpec(j=10, line="sum", line_sum=10.0, start=0.05,
                          stop=9.95, steps=200, state_index=0)
    params = [ModelParams.from_gammas(10, g, spec.gamma_y(g))
              for g in spec.samples()]

    def run():
        if direct:
            return repr(extract_stack(10, 1.0, [p.lam for p in params],
                                      [p.gam for p in params], 0))
        table = scan_trajectory(spec)
        assert not table.failures
        return _table_bits(table)

    reference = run()
    if budget is not None:
        monkeypatch.setattr(paironmap, "STACK_ENTRIES", budget)
    chunks = len(paironmap.stack_slices(10, 200))
    assert chunks == (1 if budget is None else 29)
    solves = []
    solve = spin.parity_eigh

    def counted(blocks, name):
        solves.append(blocks.shape)
        return solve(blocks, name)

    def refused(*args, **kwargs):
        raise AssertionError("extract_pairons called by the scan")

    monkeypatch.setattr(spin, "parity_eigh", counted)
    for module in (pairons, paironmap):
        monkeypatch.setattr(module, "extract_pairons", refused)
    assert run() == reference
    assert len(solves) <= 2 * chunks
    # the one chunk of 200 points solves one certified block per point,
    # the chunks of 7 (7 * 21 rows, below ONE_BLOCK_MIN_ROWS) both blocks
    assert 7 * 21 < spin.ONE_BLOCK_MIN_ROWS <= 200 * 21
    assert sum(shape[0] for shape in solves) == (
        1 if budget is None else 2) * 200


def test_scan_builds_no_sphere_points(monkeypatch, capsys):
    # the sites stay complex columns from the extraction to the table and
    # to the rows of lmg scan: no SpherePoint is built on the way
    spec = TrajectorySpec(j=10, line="sum", line_sum=10.0, start=0.05,
                          stop=9.95, steps=200, state_index=0)
    reference = _table_bits(scan_trajectory(spec))

    def refused(*args, **kwargs):
        raise AssertionError("SpherePoint built by the scan")

    monkeypatch.setattr(sphere.SpherePoint, "__init__", refused)
    table = scan_trajectory(spec)
    assert len(table.gamma_x) == 200
    assert _table_bits(table) == reference
    assert pairons.cli.lmg_main(
        ["scan", "--j", "10", "--from", "0.05", "--to", "9.95", "--steps",
         "200"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len({row.split(",")[0] for row in rows}) == 200


def test_scan_builds_no_per_sample_objects(monkeypatch):
    # the diagnostics of all 200 samples come from stacked arrays: no
    # HamiltonianMatrix, no eigen_residual call and no StateVector built
    # through __post_init__
    spec = TrajectorySpec(j=10, line="sum", line_sum=10.0, start=0.05,
                          stop=9.95, steps=200, state_index=0)
    reference = _table_bits(scan_trajectory(spec))
    counts = {"HamiltonianMatrix": 0, "eigen_residual": 0,
              "StateVector": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spin.HamiltonianMatrix, "__init__",
                        counted("HamiltonianMatrix",
                                spin.HamiltonianMatrix.__init__))
    monkeypatch.setattr(spin.StateVector, "__post_init__",
                        counted("StateVector",
                                spin.StateVector.__post_init__))
    residual = counted("eigen_residual", spin.eigen_residual)
    for module in (pairons, spin, paironmap, collapse):
        if hasattr(module, "eigen_residual"):
            monkeypatch.setattr(module, "eigen_residual", residual)
    table = scan_trajectory(spec)
    assert counts == {"HamiltonianMatrix": 0, "eigen_residual": 0,
                      "StateVector": 0}
    assert len(table.gamma_x) == 200
    assert _table_bits(table) == reference
