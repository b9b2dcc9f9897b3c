"""Collapse and crossing structure along control-parameter trajectories.

Ground-state zeros (equivalently pairons) of the quasispin model coalesce
on the hyperbolas

    gamma_x * gamma_y = h_k = ((2j-1)/(2j-1-2k))^2,   k = 0 .. j-2,

where k+1 pairons sit exactly at e = -eps, i.e. 2(k+1) zeros merge at the
conjugate sphere points +-sqrt((t+1)/(t-1)).  On the line gx + gy = c the
crossings are at gx = c/2 +- sqrt(c^2/4 - h_k).  On the diagonal gx = gy
(lam = 0) the spectrum is diagonal and even-odd level crossings happen at
gx = -(2j-1)/(2j-1-2k).

The numeric detector uses the paper's exact structure: a pairon at -eps
is a root of the state's u-polynomial at the anchor u* = (t+1)/(t-1), so
the polynomial's value there is a signed, smooth function of gx that
changes sign at every collapse.  Sign changes between samples are
bracketed and root-solved; samples whose value is below its rounding
noise are refused, not guessed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PaironsError, UnresolvedAnchorError
from .paironmap import (PaironSet, extract_stack, pairon_sites, solve_states,
                        stack_slices)
from .phasespace import _binomial_sqrt
from .sphere import SpherePoint, chordal_distances, sphere_points
from .spin import ModelParams, build_hamiltonian, couplings, eigenpair

LINE_SUM = "sum"
LINE_DIAGONAL = "diagonal"

SINGULAR_MARGIN = 1e-3


# ---------------------------------------------------------------------------
# Analytic loci
# ---------------------------------------------------------------------------

def hyperbola_levels(j: int) -> list[float]:
    """h_k for k = 0 .. j-1 (the last one, ((2j-1)/1)^2, is the full merge)."""
    return [((2 * j - 1) / (2 * j - 1 - 2 * k)) ** 2 for k in range(j)]


@dataclass(frozen=True)
class CollapsePoint:
    k: int
    gamma_x: float
    gamma_y: float
    branch: str  # "upper" (gx > c/2) or "lower"

    @property
    def merged_zero_multiplicity(self) -> int:
        return 2 * (self.k + 1)


def collapse_points(j: int, line_sum: float) -> list[CollapsePoint]:
    """Intersections of gx + gy = line_sum with the collapse hyperbolas.

    Only hyperbola branches with gx, gy of equal sign intersect the line;
    each existing k gives two points, mirror images under gx <-> gy.
    """
    out: list[CollapsePoint] = []
    half = line_sum / 2.0
    for k, h in enumerate(hyperbola_levels(j)):
        disc = half * half - h
        if disc < 0:
            continue
        r = math.sqrt(disc)
        for branch, gx in (("upper", half + r), ("lower", half - r)):
            out.append(CollapsePoint(k=k, gamma_x=gx,
                                     gamma_y=line_sum - gx, branch=branch))
    return out


@dataclass(frozen=True)
class CrossingPoint:
    k: int
    gamma_x: float
    pairs: tuple[tuple[int, int], ...]  # degenerate Dicke pairs (m, m')


def crossing_points(j: int) -> list[CrossingPoint]:
    """Even-odd ground-sector crossings on the diagonal gx = gy < 0.

    With lam = 0 the Hamiltonian is diagonal; E(m) = E(m') exactly when
    m + m' = (2j-1)/gamma_x, giving crossings at
    gx = -(2j-1)/(2j-1-2k), k = 0..j-1, with m + m' = -(2j-1-2k).
    """
    out: list[CrossingPoint] = []
    for k in range(j):
        s = -(2 * j - 1 - 2 * k)
        gx = (2 * j - 1) / s
        pairs = tuple((m, s - m) for m in range(-j, j + 1)
                      if -j <= s - m <= j and m < s - m)
        out.append(CrossingPoint(k=k, gamma_x=gx, pairs=pairs))
    return out


# ---------------------------------------------------------------------------
# Trajectory scanning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectorySpec:
    """A 1-parameter family of control points, sampled uniformly in gx.

    line = "sum": gy = line_sum - gx; line = "diagonal": gy = gx.  The
    range must keep a margin of SINGULAR_MARGIN away from the singular
    values gx = 0 and (for sum lines) gx = line_sum.
    """

    j: int
    start: float
    stop: float
    steps: int
    line: str = LINE_SUM
    line_sum: float = 10.0
    state_index: int = 0
    eps: float = 1.0

    def __post_init__(self):
        if self.line not in (LINE_SUM, LINE_DIAGONAL):
            raise ValueError(f"unknown line type {self.line!r}")
        for name in ("line_sum", "eps", "start", "stop"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
        if self.eps == 0:
            raise ValueError("eps must be nonzero")
        if self.steps < 2:
            raise ValueError("need at least 2 samples")
        if self.stop <= self.start:
            raise ValueError("stop must exceed start")
        singular = [0.0] + ([self.line_sum] if self.line == LINE_SUM else [])
        for g in np.linspace(self.start, self.stop, self.steps):
            for s in singular:
                if abs(g - s) < SINGULAR_MARGIN:
                    raise ValueError(
                        f"sample gx={g:.6g} is within {SINGULAR_MARGIN} of the "
                        f"singular point gx={s:.6g}")

    def gamma_y(self, gx: float) -> float:
        return self.line_sum - gx if self.line == LINE_SUM else gx

    def samples(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass
class BranchRecord:
    """One pairon at one sample, with its representative zero."""

    alpha: int
    energy: complex
    site: SpherePoint          # member of the +- zero pair on the branch
    site_multiplicity: int     # zeros of the sample's pairons at the site
    branch_id: int
    flags: tuple[str, ...]


@dataclass
class ScanSample:
    gamma_x: float
    gamma_y: float
    t: float
    state_index: int
    energy: float
    nu: int
    records: list[BranchRecord]


@dataclass
class ScanTable:
    spec: TrajectorySpec
    samples: list[ScanSample]
    failures: list[tuple[float, str]]


def _sample_records(sets: list[PaironSet]) -> list[list[BranchRecord]]:
    """The branch records of each pairon set, the sets in scan order.

    The pairons of all sets sit in one array, padded to the longest set.
    Their canonical sites come from one pairon_sites call; a site's
    multiplicity counts the zeros of the pairons of its set at exactly
    that site, two per pairon.  _assign_branches gives their branch ids
    and _align_branch_signs the member of each site's +- pair that is
    emitted.  Each SpherePoint and BranchRecord is built once, with its
    final site.
    """
    counts = [len(p.energies) for p in sets]
    live = np.arange(max(counts, default=0)) < np.array(counts)[:, None]
    energies = np.zeros(live.shape, dtype=complex)
    energies[live] = [e for p in sets for e in p.energies]
    z = pairon_sites(energies, np.array([p.t for p in sets])[:, None])
    same = z[:, :, None] == z[:, None, :]
    mult = 2 * np.sum(same & live[:, None, :], axis=2)
    branch, source = _assign_branches(energies, counts)
    flip = _align_branch_signs(z, source)
    pole = ((z == 0) | np.isinf(z))[live].tolist()
    cells = iter(zip(sphere_points(np.where(flip, -z, z)[live]),
                     mult[live].tolist(), branch[live].tolist(), pole))
    return [[BranchRecord(alpha=alpha, energy=e, site=site,
                          site_multiplicity=m, branch_id=b,
                          flags=p.flags + ("pole",) if at_pole else p.flags)
             for alpha, (e, (site, m, b, at_pole))
             in enumerate(zip(p.energies, cells))]
            for p in sets]


def _assign_branches(energies: np.ndarray, counts: list[int]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Propagate stable branch ids by continuation of the pairon energies.

    Energies move slowly and stay well separated away from collapses, so
    they are the reliable thing to follow; zero sites crowd together near
    the poles and mislead a matcher long before the pairons actually
    collide.  Each step solves the optimal assignment between consecutive
    energy sets, taking for each candidate pair the better of the direct
    distance and the distance to the linear continuation of the branch.
    Distances are chordal on the e-sphere: a branch sweeping through the
    map's pole (e past -t) moves a bounded amount there, however large |e|.
    Each step's costs are one chordal_distances matrix.

    energies holds the pairons of each sample (S, M), its first counts[s]
    columns live.  Returns each record's branch id and the column of the
    record of the previous sample that it continues (-1 where a branch
    starts), both -1 past counts.
    """
    from scipy.optimize import linear_sum_assignment

    rows = energies.tolist()
    branch = np.full(energies.shape, -1)
    source = np.full(energies.shape, -1)
    ids: list[int] = []
    back: list[int] = []
    next_id = 0
    for s, n in enumerate(counts):
        prev_ids, prev_back, back = ids, back, [-1] * n
        if n and prev_ids:
            m = len(prev_ids)
            # continuation 2 h[-1] - h[-2] of each branch with two energies,
            # in Python's complex arithmetic
            guess = [2 * e - rows[s - 2][k] if k >= 0 else 0j
                     for e, k in zip(rows[s - 1][:m], prev_back)]
            # distances to each branch's last energy and to its continuation
            direct, ahead = chordal_distances(
                energies[s, :n, None],
                np.array([rows[s - 1][:m], guess])[:, None, :])
            cost = np.where([k >= 0 for k in prev_back],
                            np.minimum(direct, ahead), direct)
            matched, cols = linear_sum_assignment(cost)
            for i, k in zip(matched.tolist(), cols.tolist()):
                back[i] = k
        ids = []
        for k in back:
            if k < 0:
                k, next_id = next_id, next_id + 1
            else:
                k = prev_ids[k]
            ids.append(k)
        branch[s, :n] = ids
        source[s, :n] = back
    return branch, source


def _align_branch_signs(z: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Pick the +- representative that continues each branch: whether each
    canonical site z (S, M) is emitted negated.

    Branch matching is sign-blind, but the emitted site is one member of
    the pair; the canonical pick can hop between members when a zero
    drifts across the representative's boundary, which would read as a
    fake discontinuity in the table.  A finite site is negated when its
    negation is strictly nearer than itself to the emitted site of the
    record it continues (source, from _assign_branches).

    chordal_distances gives (-p, -s) the bits of (p, s), since hypot and a
    negated difference are sign-symmetric.  So one call takes the distance
    of every continuing site s and of -s to its raw predecessor p, and a
    record whose predecessor was negated compares the two the other way
    round: the chain is walked once over the records in scan order.
    """
    sample, col = np.nonzero(source >= 0)
    back = source[sample, col]
    site = z[sample, col]
    to_site, to_negated = chordal_distances(z[sample - 1, back],
                                            np.array([site, -site]))
    finite = ~np.isinf(site)
    nearer_negated = (finite & (to_negated < to_site)).tolist()
    nearer_site = (finite & (to_site < to_negated)).tolist()
    width = z.shape[1]
    flip = [False] * z.size
    for here, there, negated, kept in zip(
            (sample * width + col).tolist(),
            ((sample - 1) * width + back).tolist(),
            nearer_negated, nearer_site):
        flip[here] = kept if flip[there] else negated
    return np.array(flip, dtype=bool).reshape(z.shape)


def scan_trajectory(spec: TrajectorySpec) -> ScanTable:
    """Extract pairons at every sample; failures are recorded, not fatal.

    Each sample's couplings come from ModelParams.from_gammas; the samples
    whose couplings are valid are extracted by one extract_stack call.
    Every sample gets the pairons, or the failure, that extract_pairons
    gives it alone, and failures are listed in gx order.
    """
    gx = spec.samples().tolist()
    results: list = []
    for g in gx:
        try:
            results.append(ModelParams.from_gammas(spec.j, g, spec.gamma_y(g),
                                                   eps=spec.eps))
        except (PaironsError, ValueError) as exc:
            results.append(exc)
    valid = [i for i, r in enumerate(results) if isinstance(r, ModelParams)]
    for i, result in zip(valid, extract_stack(
            int(spec.j), spec.eps, [results[i].lam for i in valid],
            [results[i].gam for i in valid], spec.state_index)):
        results[i] = result
    done = [(g, r) for g, r in zip(gx, results)
            if not isinstance(r, Exception)]
    records = _sample_records([pairons for _, (pairons, _) in done])
    samples = [ScanSample(gamma_x=g, gamma_y=spec.gamma_y(g), t=pairons.t,
                          state_index=spec.state_index, energy=diag.energy,
                          nu=pairons.nu, records=recs)
               for (g, (pairons, diag)), recs in zip(done, records)]
    failures = [(g, f"{type(r).__name__}: {r}")
                for g, r in zip(gx, results) if isinstance(r, Exception)]
    return ScanTable(spec=spec, samples=samples, failures=failures)


# ---------------------------------------------------------------------------
# Collapse detection: the amplitude at the -eps anchor changes sign
# ---------------------------------------------------------------------------

# Noise-bound constant of anchor_value; its docstring derives it.
ANCHOR_NOISE_C = 8.0

# |<j,-j|psi>| that confirms the closed-form total collapse (criterion 4).
TOTAL_COLLAPSE_OVERLAP = 1.0 - 1e-12


def anchor_value(spec: TrajectorySpec, gx: float) -> tuple[float, float]:
    """Signed amplitude of the tracked state at the -eps anchor, and its noise.

    A pairon at e = -eps puts a +- zero pair at zeta^2 = u* = (t+1)/(t-1).
    An eigenstate has definite parity, so its Majorana polynomial is
    zeta^parity * P(zeta^2) with real coefficients d_0..d_n (the parity
    slice), and a k-collapse, k+1 roots of P meeting at u*, makes P(u*)
    vanish.  The value is taken on the chart w = 1/u* = (t-1)/(t+1),
    where |w| < 1 on both branches and t = 1 is an ordinary point:

        f = sum_i d_i w^(n-i) / max|d|,   sign fixed by d_0 > 0.

    d_0 is the first component of an eigenvector of an unreduced
    tridiagonal block (lam != 0), which never vanishes, so f is continuous
    in gx.  It changes sign at every collapse: the k+1 roots leave u* like
    the (k+1)-th root of the offset, so their product is linear in it.

    The noise bound is c*n*eps*S/max|d|, S = sum_i |d_i||w|^(n-i), with
    c = ANCHOR_NOISE_C = 8.  Horner's rule in double precision errs by at
    most gamma_2n*S ~ n*eps*S (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 5.1).  The coefficients carry the eigenvector's error
    of order eps*|v| from the backward-stable LAPACK eigensolver of the
    parity block (parity_eigh), plus one rounding each for the binomial
    weight and the normalization; taken as at most n*eps
    relative per coefficient (the check below tests this), they reach f
    through the same sum S.  The two sources give 2*n*eps*S, and c = 8
    allows four times that.  Rounding in w only moves the evaluation point
    by a few ulps of gx: it shifts a root but cannot flip a sign away from
    one.  Against 50-digit references (j <= 10 on line sums 10, 12 and
    20, 600 samples) the error of f stays below 0.04 of the bound; a test
    repeats the check at j = 6.

    The same derivation bounds every Taylor coefficient of f at w,
    a_m = sum_i d_i C(n-i, m) w^(n-i-m): the integer weights C(n-i, m)
    are exact and their product adds one rounding per coefficient, within
    the n*eps allowance, so the bound is c*n*eps*S_m/max|d| with
    S_m = sum_i |d_i| C(n-i, m) |w|^(n-i-m).  f is a_0 (_anchor_coefficients
    computes both), and collapse_zero_pattern counts the leading a_m
    within their bounds as the multiplicity of the root at the anchor.
    """
    value, noise = _anchor_values(spec, np.array([gx], dtype=float))
    return float(value[0]), float(noise[0])


def _anchor_values(spec: TrajectorySpec,
                   gx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """anchor_value and its noise bound at every point of the array gx,
    solved in the stacks of stack_slices."""
    lam, gam = couplings(spec.j, gx, spec.gamma_y(gx), spec.eps)
    value, noise = np.empty(len(gx)), np.empty(len(gx))
    for part in stack_slices(spec.j, len(gx)):
        for rows, d, w in _anchor_slices(spec.j, spec.eps, lam[part],
                                         gam[part], spec.state_index):
            rows = rows + part.start
            value[rows], noise[rows] = _anchor_coefficients(d, w, 0)
    return value, noise


def _anchor_slices(j: int, eps: float, lam: np.ndarray, gam: np.ndarray,
                   state_index: int
                   ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Parity slices d of the state at a stack of parameter points, with
    w = 1/u*, as [(rows, d, w)], one entry per parity sector that holds
    the state somewhere: rows index the points, d (len(rows), n+1) holds
    their slices with the sign fixed by d_0 > 0, and w their anchors.

    The states are solved, and the points refused, by solve_states, as
    extract_stack solves and refuses them; the first refused point in
    order raises its refusal.  The slice is the eigenvector's column
    times the sector's sqrt(C(2j, k)), as parity_slice computes it, so
    each point gets the bits it gets alone.
    """
    out, _, t, sectors = solve_states(j, eps, lam, gam, state_index)
    for refusal in out:
        if refusal is not None:
            raise refusal
    w = (t - 1.0) / (t + 1.0)
    binom = _binomial_sqrt(2 * j)
    slices = []
    for nu, rows, columns, _ in sectors:
        d = columns * binom[nu::2]
        d[d[:, 0] < 0] *= -1.0
        slices.append((rows, d, w[rows]))
    return slices


def _anchor_coefficients(d: np.ndarray, w: np.ndarray,
                         m: int) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficient a_m of f at w, and its noise bound, over max|d|,
    for each row of the stack of slices d and its w.

    The bound is derived in anchor_value's docstring.  Multiplying by the
    weight C(n-i, 0) = 1 is exact, so m = 0 gives anchor_value.  Both
    sums run Horner's rule over the whole stack (polyval with tensor=False
    evaluates column k of its coefficients at x[k]).
    """
    n = d.shape[1] - 1
    weights = np.array([math.comb(n - i, m) for i in range(n - m + 1)],
                       dtype=float)
    scale = np.max(np.abs(d), axis=1)
    terms = (d[:, :n - m + 1] * weights)[:, ::-1].T  # lowest power first
    polyval = np.polynomial.polynomial.polyval
    value = polyval(w, terms, tensor=False) / scale
    bound = polyval(np.abs(w), np.abs(terms), tensor=False) / scale
    eps = float(np.finfo(float).eps)
    return value, ANCHOR_NOISE_C * n * eps * bound


@dataclass(frozen=True)
class AnchorProfile:
    """anchor_value and its noise bound at every sample of a trajectory."""

    spec: TrajectorySpec
    value: np.ndarray
    noise: np.ndarray

    def unresolved(self) -> np.ndarray:
        """Mask of the samples whose sign is lost in the noise.

        A zero noise bound means f was computed without rounding (all
        terms vanish but one, as at lam = 0), so f = 0 there is exact.
        """
        return (self.noise > 0) & (np.abs(self.value) <= self.noise)


def anchor_profile(spec: TrajectorySpec) -> AnchorProfile:
    """anchor_value at every sample of spec, bit for bit.

    The samples are solved by _anchor_values.  A failing sample raises
    what anchor_value raises for the first failing sample in gx order.
    """
    return AnchorProfile(spec, *_anchor_values(spec, spec.samples()))


def total_collapse(spec: TrajectorySpec) -> float | None:
    """The point of spec on gx = gy if the state there is |j, -j>.

    On gx = gy, lam = 0 and H is diagonal; for gx > 0 the ground state is
    |j, -j>, with all 2j zeros at the pole and all j pairons at -eps.
    That is not a sign change of anchor_value (f vanishes there like
    (gx - c/2)^j, which changes sign only for odd j), so it is checked in
    closed form: at gx = c/2 on a sum line, if in [start, stop], and at
    the segment's midpoint on the diagonal line (all Dicke states).
    """
    if spec.line == LINE_SUM:
        gx = spec.line_sum / 2.0
        if not spec.start <= gx <= spec.stop:
            return None
    else:
        gx = 0.5 * (spec.start + spec.stop)
    params = ModelParams.from_gammas(spec.j, gx, gx, eps=spec.eps)
    state = eigenpair(build_hamiltonian(params), spec.state_index).state
    return gx if abs(state.coeffs[0]) >= TOTAL_COLLAPSE_OVERLAP else None


def _brentq(f, xa: float, xb: float) -> float:
    """A root of f in the sign-change bracket [xa, xb], by Brent's method.

    Drives _brent_steps with f, calling f at xa, at xb and then at each
    point the steps ask for.  Given float brackets it returns the same
    root as scipy.optimize.brentq, bit for bit, which tests pin; keeping
    it here spares every collapse command the import of scipy.optimize.
    """
    steps = _brent_steps(xa, xb, f(xa), f(xb))
    try:
        x = next(steps)
        while True:
            x = steps.send(f(x))
    except StopIteration as done:
        return done.value[0]


def _brent_steps(xa: float, xb: float, fa: float, fb: float):
    """Brent's method on the sign-change bracket [xa, xb] with f(xa) = fa
    and f(xb) = fb, as a generator: it yields each point where it needs
    f, is sent f there, and returns (root, f(root)).

    A step-for-step transcription of scipy's brentq.c (Brent 1973,
    "Algorithms for Minimization without Derivatives", ch. 4): inverse
    quadratic extrapolation or secant interpolation where the step is
    short enough, bisection otherwise, with the defaults of
    scipy.optimize.brentq (xtol 2e-12, rtol 4*eps, maxiter 100).  An
    endpoint where f is 0 is returned as is; a bracket without a sign
    change raises ValueError, and 100 steps without convergence raise
    ConvergenceError.
    """
    xtol, rtol, maxiter = 2e-12, 4 * math.ulp(1.0), 100
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fa, fb
    if fpre == 0:
        return xpre, fpre
    if fcur == 0:
        return xcur, fcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, fcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:  # C's inf or nan step: bisect
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = yield xcur
    raise ConvergenceError(
        f"brentq did not converge in {maxiter} steps in [{xa!r}, {xb!r}]",
        partial=xcur)


@dataclass(frozen=True)
class CollapseCandidate:
    gamma_x: float
    anchor_value: float
    total: bool = False  # the closed-form total collapse at gx = gy


def total_collapse_candidates(spec: TrajectorySpec
                              ) -> list[CollapseCandidate]:
    """total_collapse as a list of at most one candidate."""
    gx = total_collapse(spec)
    return [] if gx is None else [CollapseCandidate(gx, 0.0, total=True)]


def find_collapses(profile: AnchorProfile) -> list[CollapseCandidate]:
    """Collapses on the profile's sum-line segment, ascending in gx.

    A sample where f is exactly zero is a root itself, and each sign
    change of anchor_value between neighbouring samples is refined by
    _refine_brackets, all brackets in lockstep.  The total collapse comes
    from total_collapse, and a sign change within 1e-9*c of it (odd j) is
    the same event and dropped.  Raises UnresolvedAnchorError if any
    sample's sign is below its noise bound: the count of sign changes
    would not be trustworthy.
    """
    spec = profile.spec
    gx = spec.samples()
    bad = profile.unresolved()
    if bad.any():
        first = last = int(np.argmax(bad))
        while last + 1 < len(bad) and bad[last + 1]:
            last += 1
        raise UnresolvedAnchorError(
            f"anchor value within its noise bound at {int(bad.sum())} of "
            f"{len(bad)} samples, first over gx in "
            f"[{gx[first]:.6g}, {gx[last]:.6g}]")
    value = profile.value
    sign = np.sign(value)
    roots = [(float(gx[i]), float(value[i]))
             for i in np.flatnonzero(sign == 0)]
    roots += _refine_brackets(spec, [
        (float(gx[i]), float(gx[i + 1]), float(value[i]), float(value[i + 1]))
        for i in np.flatnonzero(sign[:-1] * sign[1:] < 0)])
    found = total_collapse_candidates(spec)
    for total in found:
        roots = [r for r in roots
                 if abs(r[0] - total.gamma_x) > 1e-9 * abs(spec.line_sum)]
    found += [CollapseCandidate(gamma_x=r, anchor_value=f) for r, f in roots]
    return sorted(found, key=lambda c: c.gamma_x)


def _refine_brackets(spec: TrajectorySpec,
                     brackets: list[tuple[float, float, float, float]]
                     ) -> list[tuple[float, float]]:
    """(root, anchor_value there) in each bracket (xa, xb, f(xa), f(xb)),
    the roots _brentq finds bracket by bracket, bit for bit.

    One _brent_steps generator per bracket; the brackets step in
    lockstep, and each round evaluates every pending point with one
    _anchor_values call.  A bracket whose point fails, or whose
    steps raise (ConvergenceError after 100 steps), stops with that
    exception while the others go on.  If the stacked call raises, the
    round's points are evaluated one by one with anchor_value, so each
    bracket keeps the exception its own point raises alone.  The
    brackets do not depend on each other, so the exception of the first
    failed bracket is the one the bracket-by-bracket order raises first,
    and it is raised once all are done.
    """
    failures = (PaironsError, ValueError)
    steps = [_brent_steps(*bracket) for bracket in brackets]
    results: list = [None] * len(steps)  # (root, f), or the failure
    pending: dict[int, float] = {}  # bracket -> the point it asks f at

    def advance(i: int, f: float | None) -> None:
        try:
            pending[i] = next(steps[i]) if f is None else steps[i].send(f)
        except StopIteration as done:
            results[i] = done.value
        except failures as exc:
            results[i] = exc

    for i in range(len(steps)):
        advance(i, None)
    while pending:
        index, x = list(pending), list(pending.values())
        pending.clear()
        try:
            values = _anchor_values(spec, np.array(x))[0].tolist()
        except failures:
            values = []
            for g in x:
                try:
                    values.append(anchor_value(spec, g)[0])
                except failures as exc:
                    values.append(exc)
        for i, f in zip(index, values):
            if isinstance(f, failures):
                results[i] = f
            else:
                advance(i, f)
    for result in results:
        if isinstance(result, failures):
            raise result
    return results


def label_collapses(spec: TrajectorySpec, found: list[CollapseCandidate]
                    ) -> list[tuple[CollapseCandidate, int, str, float]]:
    """Each detected collapse with its analytic point: (cand, k, branch, gx).

    The total collapse is labelled (j-1, "diagonal", its gx); every other
    candidate takes the nearest analytic point, a hyperbola point of
    collapse_points or the total collapse at c/2.  These are the ground
    state's points, so for state 0 on a sum line the match is checked:
    points within 1e-9*c of each other are one point, and each distinct
    point inside [start, stop] must take exactly one candidate and every
    other point none.  Otherwise neighbouring sign changes have cancelled
    between two samples (or a spurious one appeared), and
    UnresolvedAnchorError names the points.
    """
    j, c = spec.j, spec.line_sum
    targets = [(p.k, p.branch, p.gamma_x) for p in collapse_points(j, c)]
    targets.append((j - 1, "diagonal", c / 2.0))
    labelled = []
    for cand in found:
        if cand.total:
            k, branch, gx = j - 1, "diagonal", cand.gamma_x
        else:
            k, branch, gx = min(targets,
                                key=lambda tg: abs(tg[2] - cand.gamma_x))
        labelled.append((cand, k, branch, gx))
    if spec.line != LINE_SUM or spec.state_index != 0:
        return labelled

    tol = 1e-9 * abs(c)
    points: list[float] = []
    for gx in sorted(tg[2] for tg in targets):
        if not points or gx - points[-1] > tol:
            points.append(gx)
    missed, extra = [], []
    for p in points:
        rows = sum(abs(row[3] - p) <= tol for row in labelled)
        expected = int(spec.start <= p <= spec.stop)
        if rows < expected:
            missed.append(p)
        elif rows > expected:
            extra.append(p)
    if missed or extra:
        parts = []
        if missed:
            parts.append("no collapse detected at analytic gx "
                         + ", ".join(f"{p:.6g}" for p in missed))
        if extra:
            parts.append("more collapses than analytic points at gx "
                         + ", ".join(f"{p:.6g}" for p in extra))
        raise UnresolvedAnchorError(
            "; ".join(parts) + f": sign changes cancel or split between "
            f"the {spec.steps} samples; rerun with more --steps")
    return labelled


# ---------------------------------------------------------------------------
# Multiplicity pattern at a collapse point
# ---------------------------------------------------------------------------

def collapse_zero_pattern(params: ModelParams,
                          state_index: int = 0) -> list[int]:
    """Zero multiplicity pattern of a state, descending, read off its u-roots.

    Zeros come in +- pairs sharing one pairon, so s pairons merged at one
    site count as multiplicity 2s.  The sites are the anchor u* (pairons
    at e = -eps), whose multiplicity is the number of leading Taylor
    coefficients of f at w = 1/u* within their noise bound (anchor_value
    derives it); the structural roots at u = 0 (e = +t) and, for w != 0,
    at u = infinity (e = -t), as strip_and_solve counts them; and each
    other pairon on its own.  No pairon is computed.

    The count is exact only at the collapse itself: an offset delta in gx
    leaves the vanishing a_m of order delta.  At the analytic points with
    j <= 10 on line sums 10 and 12 they stay below 0.24 of their bound
    and the next coefficient exceeds its bound 1.9e4-fold; at the
    root-solved gx of find_collapses (up to 6e-7 off at j = 10) the count
    falls short at 65 of the 178 points with j = 2..10.

    This is the one-point case of _zero_patterns, which collapse_rows
    calls on all its points at once.
    """
    return _zero_patterns(params.j, params.eps, np.array([params.lam]),
                          np.array([params.gam]), state_index)[0]


def _zero_patterns(j: int, eps: float, lam: np.ndarray, gam: np.ndarray,
                   state_index: int) -> list[list[int]]:
    """collapse_zero_pattern at each point of the arrays of couplings lam,
    gam, with the slices of all points from one _anchor_slices call.

    When points fail, the first one in order raises what it raises alone.
    """
    patterns: list = [None] * len(lam)
    for rows, d, w in _anchor_slices(j, eps, lam, gam, state_index):
        for r, i in enumerate(rows.tolist()):
            patterns[i] = _zero_pattern(d[r:r + 1], w[r:r + 1])
    return patterns


def _zero_pattern(d: np.ndarray, w: np.ndarray) -> list[int]:
    """The pattern of one point from its slice d (1, n+1) and w (1,)."""
    n0, hi = np.flatnonzero(d[0])[[0, -1]].tolist()
    n = d.shape[1] - 1
    n_inf = n - hi if w[0] != 0 else 0
    free = n - n0 - n_inf
    merged = 0
    while merged < free:
        value, noise = _anchor_coefficients(d, w, merged)
        if abs(value[0]) > noise[0]:
            break
        merged += 1
    sites = [merged, n0, n_inf] + [1] * (free - merged)
    return sorted((2 * s for s in sites if s), reverse=True)


@dataclass(frozen=True)
class CollapseRow:
    """A detected collapse, its analytic point and the zero pattern there."""

    candidate: CollapseCandidate
    point: CollapsePoint
    pattern: tuple[int, ...]   # collapse_zero_pattern at point.gamma_x
    expected: tuple[int, ...]

    @property
    def pattern_ok(self) -> bool:
        return self.pattern == self.expected


def collapse_rows(spec: TrajectorySpec, found: list[CollapseCandidate]
                  ) -> list[CollapseRow]:
    """label_collapses with the zero pattern at each analytic point.

    The expected pattern is a site of merged_zero_multiplicity = 2(k+1)
    and a 2 for each other pairon.  The pattern is taken at the analytic
    gx, where collapse_zero_pattern's count is exact, not the detected one;
    the patterns of all rows come from one stacked solve (_zero_patterns).
    """
    labelled = label_collapses(spec, found)
    at = np.array([row[3] for row in labelled], dtype=float)
    lam, gam = couplings(spec.j, at, spec.gamma_y(at), spec.eps)
    patterns = _zero_patterns(spec.j, spec.eps, lam, gam, spec.state_index)
    rows = []
    for (cand, k, branch, gx), pattern in zip(labelled, patterns):
        point = CollapsePoint(k=k, gamma_x=gx, gamma_y=spec.gamma_y(gx),
                              branch=branch)
        rows.append(CollapseRow(
            candidate=cand, point=point, pattern=tuple(pattern),
            expected=((point.merged_zero_multiplicity,)
                      + (2,) * (spec.j - 1 - k))))
    return rows
