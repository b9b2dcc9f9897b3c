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

from .errors import (DegenerateStateError, PaironsError,
                     UnresolvedAnchorError)
from .paironmap import (PaironSet, extract_pairons, u_from_pairon)
from .phasespace import majorana_poly
from .sphere import SpherePoint, chordal_distance
from .spin import PARITY_ODD, ModelParams, build_hamiltonian, diagonalize

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
    site: SpherePoint          # canonical member of the +- zero pair
    site_multiplicity: int     # zeros sharing the site at default radius
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


def _canonical_site(u: complex | None) -> SpherePoint:
    """Deterministic representative of the +- pair with squared value u."""
    if u is None:
        return SpherePoint.infinity()
    if u == 0:
        return SpherePoint.from_zeta(0.0)
    root = complex(np.sqrt(complex(u)))
    # prefer the member with phi in [0, pi): Im(zeta) <= 0, tie on Re > 0
    if root.imag > 0 or (root.imag == 0 and root.real < 0):
        root = -root
    return SpherePoint.from_zeta(root)


def _sample_records(pairons: PaironSet) -> list[BranchRecord]:
    sites: list[SpherePoint] = []
    for e in pairons.energies:
        sites.append(_canonical_site(u_from_pairon(e, pairons.t)))
    records = []
    for alpha, (e, site) in enumerate(zip(pairons.energies, sites)):
        mult = sum(1 for other in sites
                   if chordal_distance(site, other) <= 1e-6) * 2
        flags = list(pairons.flags)
        if site.is_infinity or (not site.is_infinity and site.zeta == 0):
            flags.append("pole")
        records.append(BranchRecord(alpha=alpha, energy=e, site=site,
                                    site_multiplicity=mult,
                                    branch_id=-1, flags=tuple(flags)))
    return records


def _pairon_chordal(a: complex, b: complex) -> float:
    """Chordal distance between pairons on the e-sphere.

    The pairon plane is compactified exactly like the zero plane: a
    branch sweeping through the map's pole (e past -t, zeros through the
    south pole) moves a bounded amount here while |e| itself blows up.
    """
    return 2.0 * abs(a - b) / math.sqrt(
        (1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))


def _assign_branches(samples: list[ScanSample]) -> None:
    """Propagate stable branch ids by continuation of the pairon energies.

    Energies move slowly and stay well separated away from collapses, so
    they are the reliable thing to follow; zero sites crowd together near
    the poles and mislead a matcher long before the pairons actually
    collide.  Each step solves the optimal assignment between consecutive
    energy sets, taking for each candidate pair the better of the direct
    distance and the distance to the linear continuation of the branch.
    """
    from scipy.optimize import linear_sum_assignment

    next_id = 0
    prev: list[BranchRecord] = []
    history: dict[int, list[complex]] = {}

    for sample in samples:
        if not prev:
            for rec in sample.records:
                rec.branch_id = next_id
                next_id += 1
        else:
            cost = np.zeros((len(sample.records), len(prev)))
            for i, rec in enumerate(sample.records):
                for p_idx, p in enumerate(prev):
                    d = _pairon_chordal(rec.energy, p.energy)
                    hist = history.get(p.branch_id, [])
                    if len(hist) >= 2:
                        predicted = 2 * hist[-1] - hist[-2]
                        d = min(d, _pairon_chordal(rec.energy, predicted))
                    cost[i, p_idx] = d
            rows, cols = linear_sum_assignment(cost)
            matched = dict(zip(rows.tolist(), cols.tolist()))
            for i, rec in enumerate(sample.records):
                if i in matched:
                    rec.branch_id = prev[matched[i]].branch_id
                else:
                    rec.branch_id = next_id
                    next_id += 1
        for rec in sample.records:
            history.setdefault(rec.branch_id, []).append(rec.energy)
        prev = sample.records
    _align_branch_signs(samples)


def _align_branch_signs(samples: list[ScanSample]) -> None:
    """Pick the +- representative that continues each branch.

    Branch matching is sign-blind, but the emitted site is one member of
    the pair; the canonical pick can hop between members when a zero
    drifts across the representative's boundary, which would read as a
    fake discontinuity in the table.
    """
    last: dict[int, SpherePoint] = {}
    for sample in samples:
        for rec in sample.records:
            seen = last.get(rec.branch_id)
            if seen is not None and not rec.site.is_infinity:
                flipped = rec.site.antipode_negation()
                if (chordal_distance(seen, flipped)
                        < chordal_distance(seen, rec.site)):
                    rec.site = flipped
            last[rec.branch_id] = rec.site


def scan_trajectory(spec: TrajectorySpec, threads: int = 1) -> ScanTable:
    """Extract pairons at every sample; failures are recorded, not fatal.

    The per-sample work is independent; with threads > 1 it is distributed
    over a pool and gathered back in sample order, so the table does not
    depend on the thread count.
    """
    gxs = spec.samples()

    def work(gx: float):
        params = ModelParams.from_gammas(spec.j, gx, spec.gamma_y(gx),
                                         eps=spec.eps)
        pairons, diag = extract_pairons(params, spec.state_index)
        return pairons, diag

    results: list = [None] * len(gxs)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for i, res in enumerate(pool.map(_safe_call(work), gxs)):
                results[i] = res
    else:
        f = _safe_call(work)
        for i, gx in enumerate(gxs):
            results[i] = f(gx)

    samples: list[ScanSample] = []
    failures: list[tuple[float, str]] = []
    for gx, res in zip(gxs, results):
        if isinstance(res, Exception):
            failures.append((float(gx), f"{type(res).__name__}: {res}"))
            continue
        pairons, diag = res
        samples.append(ScanSample(
            gamma_x=float(gx), gamma_y=spec.gamma_y(float(gx)),
            t=pairons.t, state_index=spec.state_index, energy=diag.energy,
            nu=pairons.nu, records=_sample_records(pairons)))
    _assign_branches(samples)
    return ScanTable(spec=spec, samples=samples, failures=failures)


def _safe_call(fn):
    def wrapped(gx):
        try:
            return fn(gx)
        except (PaironsError, ValueError, ZeroDivisionError) as exc:
            return exc
    return wrapped


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
    of order eps*|v| from the tridiagonal solver, plus one rounding each
    for the binomial weight and the normalization; taken as at most n*eps
    relative per coefficient (the check below tests this), they reach f
    through the same sum S.  The two sources give 2*n*eps*S, and c = 8
    allows four times that.  Rounding in w only moves the evaluation point
    by a few ulps of gx: it shifts a root but cannot flip a sign away from
    one.  Against 50-digit references (j <= 10 on line sums 10, 12 and
    20, 600 samples) the error of f stays below 0.04 of the bound; a test
    repeats the check at j = 6.
    """
    params = ModelParams.from_gammas(spec.j, gx, spec.gamma_y(gx),
                                     eps=spec.eps)
    pair = diagonalize(build_hamiltonian(params))[spec.state_index]
    if pair.degenerate:
        raise DegenerateStateError(
            f"state {spec.state_index} is degenerate at gx={gx:.6g}")
    d = majorana_poly(pair.state).coeffs.real
    d = d[1::2] if pair.state.parity == PARITY_ODD else d[0::2]
    if d[0] < 0:
        d = -d
    t = params.t
    w = (t - 1.0) / (t + 1.0)
    scale = float(np.max(np.abs(d)))
    value = float(np.polyval(d, w)) / scale
    bound = float(np.polyval(np.abs(d), abs(w))) / scale
    eps = float(np.finfo(float).eps)
    return value, ANCHOR_NOISE_C * (len(d) - 1) * eps * bound


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
    """anchor_value at every sample of spec."""
    pairs = [anchor_value(spec, float(g)) for g in spec.samples()]
    return AnchorProfile(spec=spec, value=np.array([p[0] for p in pairs]),
                         noise=np.array([p[1] for p in pairs]))


def total_collapse(spec: TrajectorySpec) -> float | None:
    """gx = c/2 if the state there is |j, -j>, on a sum line through it.

    On gx = gy, lam = 0 and H is diagonal; for gx > 0 the ground state is
    |j, -j>, with all 2j zeros at the pole and all j pairons at -eps.
    That is not a sign change of anchor_value (f vanishes there like
    (gx - c/2)^j, which changes sign only for odd j), so it is checked in
    closed form.
    """
    half = spec.line_sum / 2.0
    if spec.line != LINE_SUM or not spec.start <= half <= spec.stop:
        return None
    params = ModelParams.from_gammas(spec.j, half, half, eps=spec.eps)
    state = diagonalize(build_hamiltonian(params))[spec.state_index].state
    return half if abs(state.coeffs[0]) >= TOTAL_COLLAPSE_OVERLAP else None


@dataclass(frozen=True)
class CollapseCandidate:
    gamma_x: float
    anchor_value: float
    total: bool = False  # the closed-form total collapse at gx = gy


def find_collapses(profile: AnchorProfile) -> list[CollapseCandidate]:
    """Collapses on the profile's sum-line segment, ascending in gx.

    Each sign change of anchor_value between neighbouring samples is
    refined with brentq; a sample where f is exactly zero is a root
    itself.  The total collapse comes from total_collapse, and a sign
    change within 1e-9*c of it (odd j) is the same event and dropped.
    Raises UnresolvedAnchorError if any sample's sign is below its noise
    bound: the count of sign changes would not be trustworthy.
    """
    from scipy.optimize import brentq

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
    sign = np.sign(profile.value)
    roots = [float(g) for g, s in zip(gx, sign) if s == 0]
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        roots.append(float(brentq(lambda g: anchor_value(spec, g)[0],
                                  gx[i], gx[i + 1])))
    found = []
    total = total_collapse(spec)
    if total is not None:
        found.append(CollapseCandidate(gamma_x=total, anchor_value=0.0,
                                       total=True))
        roots = [r for r in roots
                 if abs(r - total) > 1e-9 * abs(spec.line_sum)]
    found += [CollapseCandidate(gamma_x=r,
                                anchor_value=anchor_value(spec, r)[0])
              for r in roots]
    return sorted(found, key=lambda c: c.gamma_x)


# ---------------------------------------------------------------------------
# Multiplicity pattern at a collapse point
# ---------------------------------------------------------------------------

def pattern_radius(m: int) -> float:
    """Pairon-space clustering radius for an expected m-fold merge.

    Calibrated at the j = 10 sum-line collapse points on both hyperbola
    branches: the merged group's double-precision diameter grows with m
    (the splitting of an m-fold root goes like the m-th root of the
    parameter offset) while the gap to the nearest distinct pairon
    shrinks with t on the lower branch, leaving a window per m that this
    law threads with a few-1e-3 margin on the tight side (m = 6, 7 on
    the lower branch, where the window is roughly [0.02, 0.034]).
    """
    return 0.003 * m + 0.008


def pairon_cluster_sizes(pairons: PaironSet, radius: float) -> list[int]:
    """Single-linkage cluster sizes of the pairon multiset, descending."""
    e = list(pairons.energies)
    n = len(e)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in range(n):
        for b in range(a + 1, n):
            if abs(e[a] - e[b]) <= radius:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    sizes: dict[int, int] = {}
    for i in range(n):
        r = find(i)
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.values(), reverse=True)


def _mst_max_edge(pts: list[complex]) -> float:
    """Largest edge of the minimum spanning tree of a point set (Prim)."""
    if len(pts) < 2:
        return 0.0
    rest = list(range(1, len(pts)))
    dist = {i: abs(pts[i] - pts[0]) for i in rest}
    worst = 0.0
    while rest:
        i = min(rest, key=lambda q: dist[q])
        worst = max(worst, dist[i])
        rest.remove(i)
        for q in rest:
            d = abs(pts[q] - pts[i])
            if d < dist[q]:
                dist[q] = d
    return worst


def collapse_zero_pattern(params: ModelParams, k: int,
                          state_index: int = 0) -> list[int]:
    """Zero multiplicity pattern at a k-collapse point, as 2x pairon sizes.

    Zeros occur in +- pairs sharing one pairon, so a pairon cluster of
    size s corresponds to two sphere points of multiplicity s each; the
    reported pattern counts the pair as one merged object of multiplicity
    2s, matching how coincident conjugate zeros are tallied.

    The clustering radius is chosen adaptively: the k + 1 pairons nearest
    -eps form the expected merged group, and any radius between that
    group's diameter (largest single-linkage edge) and the smallest
    remaining pairon distance yields identical clusters, so the geometric
    mean of the two scales is used.  If the scales overlap -- the
    evaluation point is far enough from the collapse that the m-th-root
    splitting of the merge exceeds the gap to its neighbours -- the fixed
    pattern_radius law is the fallback.
    """
    pairons, _ = extract_pairons(params, state_index)
    e = list(pairons.energies)
    m = k + 1
    if not 1 <= m <= len(e):
        raise ValueError(f"k={k} expects between 1 and {len(e)} merged"
                         " pairons")
    order = sorted(range(len(e)), key=lambda i: abs(e[i] + params.eps))
    group = [e[i] for i in order[:m]]
    rest = [e[i] for i in order[m:]]
    diam = _mst_max_edge(group)
    sep = min((abs(a - b) for a in group for b in rest), default=math.inf)
    sep = min(sep, min((abs(rest[a] - rest[b])
                        for a in range(len(rest))
                        for b in range(a + 1, len(rest))),
                       default=math.inf))
    if math.isinf(sep):  # total collapse: everything is one group
        radius = 2.0 * diam + 1e-9
    elif diam < sep:
        radius = math.sqrt(max(diam, 1e-4 * sep) * sep)
    else:
        radius = pattern_radius(m)
    sizes = pairon_cluster_sizes(pairons, radius)
    return [2 * s for s in sizes]
