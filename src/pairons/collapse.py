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

from .errors import ConvergenceError, UnresolvedAnchorError
from .paironmap import (PaironSet, extract_stack, names_of, pairon_sites,
                        solve_states, stack_slices)
from .phasespace import _live_ranges, _polyval, _raised, sector_slices
from .sphere import chordal_distances
from .spin import (ModelParams, build_hamiltonian, check_j, couplings,
                   eigenpair)

LINE_SUM = "sum"
LINE_DIAGONAL = "diagonal"

SINGULAR_MARGIN = 1e-3

# Entries of the steady cost tables that _assign_branches takes in one
# chordal_distances call: enough to share the call's cost among the steps
# of small tables, few enough that a block wastes little on the steps
# that turn out not to be steady.
AHEAD_ENTRIES = 1 << 12


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

    line = "sum": gy = line_sum - gx; line = "diagonal": gy = gx.  j is
    a positive integer (check_j).  The range must keep a margin of
    SINGULAR_MARGIN away from the singular values gx = 0 and (for sum
    lines) gx = line_sum, and its span stop - start must be finite, so
    that the samples are.
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
        check_j(self.j)
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
        if not math.isfinite(self.stop - self.start):
            raise ValueError(f"the span from start={self.start:.6g} to "
                             f"stop={self.stop:.6g} overflows")
        singular = [0.0] + ([float(self.line_sum)]
                            if self.line == LINE_SUM else [])
        gx = self.samples()
        # a difference that overflows to inf is far from the point
        with np.errstate(over="ignore"):
            near = np.abs(gx[:, None] - singular) < SINGULAR_MARGIN
        if near.any():
            # the first sample, in gx order, then its first singular point
            i, k = np.argwhere(near)[0].tolist()
            raise ValueError(
                f"sample gx={gx[i]:.6g} is within {SINGULAR_MARGIN} of the "
                f"singular point gx={singular[k]:.6g}")

    def gamma_y(self, gx: float) -> float:
        return self.line_sum - gx if self.line == LINE_SUM else gx

    def samples(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass
class ScanTable:
    """The samples of a scan that were extracted, in columns, and the
    (gx, reason) of each sample that failed.

    Per sample, in gx order: gamma_x, gamma_y, t, the state's energy, its
    seniority nu and the flags of its pairon set.  Per pairon, (S, M)
    arrays padded to the longest set, of which the first j - nu columns
    of each row hold the sample's pairons (the mask live): the pairons;
    the emitted site, the member of its +- zero pair that continues its
    branch (_align_branch_signs), complex with sphere.INFINITY for the
    point at infinity; its multiplicity, the zeros of the sample's state
    at exactly that site, as zero_sites counts them: two per pairon, and
    at a pole one more where nu = 1 (its seniority zero); the branch id
    (_assign_branches), -1 past the live columns; and whether the site is
    a pole (0 or infinity), False past the live columns.
    """

    spec: TrajectorySpec
    gamma_x: np.ndarray
    gamma_y: np.ndarray
    t: np.ndarray
    energy: np.ndarray
    nu: np.ndarray
    flags: list[tuple[str, ...]]
    pairons: np.ndarray
    sites: np.ndarray
    multiplicity: np.ndarray
    branch: np.ndarray
    pole: np.ndarray
    failures: list[tuple[float, str]]

    @property
    def live(self) -> np.ndarray:
        """Mask (S, M) of the columns that hold a pairon."""
        return (np.arange(self.pairons.shape[1])
                < (self.spec.j - self.nu)[:, None])


def _sample_columns(sets: list[PaironSet]) -> tuple[np.ndarray, ...]:
    """The per-pairon columns of a ScanTable (pairons, sites,
    multiplicity, branch, pole) of the pairon sets of a scan's samples.

    The pairons of all sets sit in one array, padded to the longest set.
    Their canonical sites come from one pairon_sites call; a site's
    multiplicity counts the zeros of its set at exactly that site, as
    paironmap.zero_sites does: two per pairon, and at a pole (0 or
    infinity) the seniority zero a nu = 1 set puts on each pole.
    _assign_branches gives the branch ids
    and _align_branch_signs the member of each site's +- pair that is
    emitted.
    """
    counts = [len(p.energies) for p in sets]
    live = np.arange(max(counts, default=0)) < np.array(counts)[:, None]
    energies = np.zeros(live.shape, dtype=complex)
    energies[live] = [e for p in sets for e in p.energies]
    z = pairon_sites(energies, np.array([p.t for p in sets])[:, None])
    same = z[:, :, None] == z[:, None, :]
    pole = live & ((z == 0) | np.isinf(z))
    nu = np.array([p.nu for p in sets], dtype=int)[:, None]
    mult = 2 * np.sum(same & live[:, None, :], axis=2) + pole * nu
    branch, source = _assign_branches(energies, counts)
    flip = _align_branch_signs(z, source)
    return energies, np.where(flip, -z, z), mult, branch, pole


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
    Each step's costs are one chordal_distances matrix.  Most steps are
    steady: each branch continues the column it came from, so the costs
    follow from the energies alone, and _steady_costs takes them for a
    block of up to AHEAD_ENTRIES entries in one call.  Either way each
    entry has the same bits.

    energies holds the pairons of each sample (S, M), its first counts[s]
    columns live.  Returns each record's branch id and the column of the
    record of the previous sample that it continues (-1 where a branch
    starts), both -1 past counts.
    """
    rows = energies.tolist()
    block = max(1, AHEAD_ENTRIES // max(1, 2 * energies.shape[1] ** 2))
    steady, first = [], 0  # the steady cost tables of steps first, ...
    all_ids: list[int] = []
    all_back: list[int] = []
    ids: list[int] = []
    back: list[int] = []
    next_id = 0
    for s, n in enumerate(counts):
        prev_ids, prev_back, back = ids, back, [-1] * n
        if n and prev_ids:
            m = len(prev_ids)
            if s == 1 or prev_back == list(range(m)):
                if s >= first + len(steady):
                    steady, first = _steady_costs(energies, s, s + block), s
                cost = steady[s - first, :n, :m]
            else:
                # continuation 2 h[-1] - h[-2] of each branch with two
                # energies, in Python's complex arithmetic; a branch with
                # one energy continues to it, so its distance is the
                # direct one
                last = rows[s - 1][:m]
                guess = [2 * e - rows[s - 2][k] if k >= 0 else e
                         for e, k in zip(last, prev_back)]
                # distances to each branch's last energy and to its
                # continuation
                direct, ahead = chordal_distances(
                    energies[s, :n, None],
                    np.array([last, guess])[:, None, :])
                cost = np.minimum(direct, ahead)
            for i, k in zip(*_linear_sum_assignment(cost)):
                back[i] = k
        ids = []
        for k in back:
            if k < 0:
                k, next_id = next_id, next_id + 1
            else:
                k = prev_ids[k]
            ids.append(k)
        all_ids += ids
        all_back += back
    live = np.arange(energies.shape[1]) < np.array(counts)[:, None]
    branch = np.full(energies.shape, -1)
    source = np.full(energies.shape, -1)
    branch[live] = all_ids
    source[live] = all_back
    return branch, source


def _steady_costs(energies: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The cost tables of _assign_branches at the steps lo..hi-1 (lo >= 1,
    hi clipped to S) of the padded energies (S, M), as they are when
    every branch continues its column: (hi - lo, M, M), entry [s, i, k]
    the lesser chordal distance of e[s, i] to e[s-1, k] and to the
    continuation 2 e[s-1, k] - e[s-2, k], which is e[0, k] itself at step
    1.  numpy's complex arithmetic gives the continuation the bits of
    Python's, up to the sign of a zero part, which no distance reads.
    """
    hi = min(hi, len(energies))
    last = energies[lo - 1:hi - 1]
    guess = last.copy()
    one = 1 if lo == 1 else 0  # step 1 has no continuation
    guess[one:] = 2 * last[one:] - energies[lo - 2 + one:hi - 2]
    direct, ahead = chordal_distances(energies[lo:hi, :, None],
                                      np.stack([last, guess])[:, :, None, :])
    return np.minimum(direct, ahead)


def _linear_sum_assignment(cost) -> tuple[list[int], list[int]]:
    """The assignment of least total cost between the rows and columns of
    a cost table, as scipy.optimize.linear_sum_assignment gives it: the
    assigned rows in order, and their columns, as lists.

    A transcription of scipy's rectangular_lsap.cpp (Crouse, IEEE TAES
    52(4), 2016), which tests pin bit for bit; keeping it here spares
    `lmg scan` the import of scipy.optimize.  A tall table is transposed
    and its assignment sorted by row, as there.  When the first column of
    least cost of each row is finite and its own, _shortest_paths would
    assign it to the row without a path, so the argmin is the answer.  A
    NaN or -inf entry raises ValueError, as does a table with no finite
    assignment.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(
            f"expected a matrix (2-D array), got a {cost.ndim} array")
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    nr = cost.shape[0]
    if nr == 0:
        return [], []
    least = cost.min(axis=1).tolist()
    if not all(m > -math.inf for m in least):  # min() propagates NaN
        raise ValueError("matrix contains invalid numeric entries")
    low = cost.argmin(axis=1).tolist()
    if len(set(low)) < nr or max(least) == math.inf:
        low = _shortest_paths(cost, low, least)
    if transpose:
        order = sorted(range(nr), key=low.__getitem__)
        return [low[k] for k in order], order
    return list(range(nr)), low


def _shortest_paths(cost: np.ndarray, low: list[int], least: list[float]
                    ) -> list[int]:
    """The column of each row of a cost table (nr <= nc, no NaN or -inf)
    in scipy's assignment, given each row's first column of least cost
    (low) and that cost.

    Step for step the loop of rectangular_lsap.cpp: each row in turn is
    joined by the shortest path of reduced costs to an unassigned column,
    the dual variables u, v updated and the path augmented.  The columns
    are scanned in reverse, a path cost is ((min + c) - u) - v, and a tie
    goes to an unassigned column.  So the same IEEE double operations in
    the same order give scipy's assignment, ties included.

    A new row's path cost to a column is its cost there less v, and v
    is 0.0 on every unassigned column and never positive: a path lowers
    v only on the columns it visits, which are assigned once it is
    augmented.  So when the row's first column of least cost, low, is
    unassigned, the scan settles on it first as the sink, and v stays
    as it is (the sink's path cost is the minimum): the row is assigned
    low without a path.  The dual updates run over the rows and columns
    a path visited, which are the ones scipy updates.
    """
    nr, nc = cost.shape
    inf = math.inf
    col4row, row4col = [-1] * nr, [-1] * nc
    u, v = [0.0] * nr, [0.0] * nc
    c = None
    for cur, (j, m) in enumerate(zip(low, least)):
        if m < inf and row4col[j] < 0:
            col4row[cur], row4col[j] = j, cur
            u[cur] = 0.0 + m
            continue
        if c is None:
            c = cost.tolist()
        # shortest augmenting path from row cur to an unassigned column
        spc, path = [inf] * nc, [-1] * nc
        remaining = list(range(nc - 1, -1, -1))
        rows, cols = [], []
        i, min_val = cur, 0.0
        while True:
            rows.append(i)
            ci, ui = c[i], u[i]
            sink, lowest = -1, inf
            for j in remaining:
                s = spc[j]
                r = min_val + ci[j] - ui - v[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                if s < lowest or s == lowest and row4col[j] < 0:
                    lowest, sink = s, j
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            cols.append(sink)
            index = remaining.index(sink)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[sink] < 0:
                break
            i = row4col[sink]
        # dual update over the visited rows and columns
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - spc[col4row[i]]
        for k in cols:
            v[k] -= min_val - spc[k]
        # augment along the path back from the sink
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


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

    The couplings of all samples come from one couplings call over the
    gx array, which gives each the bits of ModelParams.from_gammas, and
    every sample is extracted by one extract_stack call; solve_states
    refuses a sample whose couplings are not finite in ModelParams'
    words.  Every sample gets the pairons, or the failure, that
    extract_pairons gives it alone, and failures are listed in gx order.
    The table holds the extracted samples in columns, the per-pairon
    ones from one _sample_columns call over all samples.
    """
    gx = spec.samples()
    with np.errstate(all="ignore"):  # as float arithmetic overflows
        gy = spec.gamma_y(gx)
        lam, gam = couplings(spec.j, gx, gy, spec.eps)
    results = extract_stack(int(spec.j), spec.eps, lam, gam, spec.state_index,
                            (gx, gy))
    ok = np.array([not isinstance(r, Exception) for r in results], bool)
    done = [r for r, keep in zip(results, ok.tolist()) if keep]
    sets = [pairons for pairons, _ in done]
    failures = [(g, f"{type(r).__name__}: {r}") for g, r, keep
                in zip(gx.tolist(), results, ok.tolist()) if not keep]
    return ScanTable(
        spec, gx[ok], gy[ok], np.array([p.t for p in sets], dtype=float),
        np.array([diag.energy for _, diag in done], dtype=float),
        np.array([p.nu for p in sets], dtype=int), [p.flags for p in sets],
        *_sample_columns(sets), failures)


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
    value, noise, (refusal,) = _anchor_values(spec, np.array([gx], float))
    _raised(refusal)
    return float(value[0]), float(noise[0])


def _anchor_values(spec: TrajectorySpec, gx: np.ndarray) -> tuple:
    """anchor_value and its noise bound at every point of the array gx,
    and per point None or the exception that refuses it (_anchor_slices);
    value and noise are NaN at a refused point."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused as such
        gy = spec.gamma_y(gx)
        lam, gam = couplings(spec.j, gx, gy, spec.eps)
    value, noise = np.full(len(gx), math.nan), np.full(len(gx), math.nan)
    refusals, slices = _anchor_slices(spec.j, spec.eps, lam, gam,
                                      spec.state_index, (gx, gy))
    for rows, d, w in slices:
        value[rows], noise[rows] = _anchor_coefficients(d, w, 0)
    return value, noise, refusals


def _anchor_slices(j: int, eps: float, lam: np.ndarray, gam: np.ndarray,
                   state_index: int, names=None) -> tuple[list, list]:
    """Parity slices d of the state at an array of parameter points, with
    w = 1/u*.  Returns (refusals, slices): per point None or the exception
    that refuses it, and [(rows, d, w)], one entry per part of
    solve_states: rows index the live points, d (len(rows), n+1) holds
    their slices with the sign fixed by d_0 > 0, and w their anchors.

    The points are taken in the stacks of stack_slices, so the memory a
    stack holds is bounded however many points there are.  The states are
    solved, and the points refused, by solve_states, as extract_stack
    solves and refuses them, naming the points by names, the callers'
    (gamma_x, gamma_y) arrays, where given; nothing is raised.  The slice
    is sector_slices of the eigenvector's column, as parity_slice takes
    it, so each point gets the bits it gets alone.
    """
    refusals, slices = [], []
    for part in stack_slices(j, len(lam)):
        out, _, _, t, sectors = solve_states(
            j, eps, lam[part], gam[part], state_index, names_of(names, part))
        refusals += out
        for nu, rows, columns, _ in sectors:
            d = sector_slices(columns, nu, 2 * j)
            d[d[:, 0] < 0] *= -1.0
            ts = t[rows]
            slices.append((rows + part.start, d, (ts - 1.0) / (ts + 1.0)))
    return refusals, slices


def _anchor_coefficients(d: np.ndarray, w: np.ndarray,
                         m: int) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficient a_m of f at w, and its noise bound, over max|d|,
    for each row of the stack of slices d and its w.

    The bound is derived in anchor_value's docstring.  Multiplying by the
    weight C(n-i, 0) = 1 is exact, so m = 0 gives anchor_value.  Both
    sums run Horner's rule over the whole stack (_polyval evaluates
    column k of its coefficients at x[k]).
    """
    n = d.shape[1] - 1
    weights = np.array([math.comb(n - i, m) for i in range(n - m + 1)],
                       dtype=float)
    scale = np.max(np.abs(d), axis=1)
    terms = (d[:, :n - m + 1] * weights)[:, ::-1].T  # lowest power first
    value = _polyval(w, terms) / scale
    bound = _polyval(np.abs(w), np.abs(terms)) / scale
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
    value, noise, refusals = _anchor_values(spec, spec.samples())
    for refusal in refusals:
        _raised(refusal)
    return AnchorProfile(spec, value, noise)


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

    def values(x: np.ndarray) -> tuple:
        value, _, refusals = _anchor_values(spec, x)
        return value, refusals

    roots += _refine_brackets(values, [
        (float(gx[i]), float(gx[i + 1]), float(value[i]), float(value[i + 1]))
        for i in np.flatnonzero(sign[:-1] * sign[1:] < 0)])
    found = total_collapse_candidates(spec)
    for total in found:
        roots = [r for r in roots
                 if abs(r[0] - total.gamma_x) > 1e-9 * abs(spec.line_sum)]
    found += [CollapseCandidate(gamma_x=r, anchor_value=f) for r, f in roots]
    return sorted(found, key=lambda c: c.gamma_x)


def _refine_brackets(f, brackets: list[tuple[float, float, float, float]]
                     ) -> list[tuple[float, float]]:
    """(root, f(root)) in each bracket (a, b, f(a), f(b)), a < b, where
    f(a) and f(b) have opposite signs.

    f maps an array of points to their values and to one refusal or None
    per point, as _anchor_values does.  All brackets are refined at once
    by regula falsi with the Illinois rule (Dowell & Jarratt, BIT 11,
    1971): each round takes x = (a f(b) - b f(a)) / (f(b) - f(a)) in every
    open bracket, by one f call, and x replaces the end whose value has
    the sign of f(x); an end kept for a second round in a row has its
    value halved.  A bracket closes with (x, f(x)) when f(x) is 0, when x
    is not strictly inside (a, b), or when the new width is at most
    2e-12 + 4*eps*|x|, the stop of scipy.optimize.brentq.  Every step is
    elementwise, so each bracket gets the root it gets alone.

    A bracket whose point is refused closes with that refusal, and one
    still open after 100 rounds with a ConvergenceError that names it.
    Once every bracket is closed, the first failed bracket's exception is
    raised.
    """
    xtol, rtol = 2e-12, 4 * math.ulp(1.0)
    results: list = [None] * len(brackets)  # (root, f), or the failure
    index = np.arange(len(brackets))
    a, b, fa, fb = np.array(brackets, dtype=float).reshape(-1, 4).T
    kept = np.zeros(len(brackets))  # -1: a kept last round, 1: b, 0: none
    x = a  # the partials, if no round runs
    for _ in range(100):
        if not len(index):
            break
        x = (a * fb - b * fa) / (fb - fa)
        fx, refusals = f(x)
        inside = (a < x) & (x < b)
        to_b = np.signbit(fx) == np.signbit(fb)  # x replaces b, keeps a
        fa = np.where(to_b & (kept == -1), 0.5 * fa, fa)
        fb = np.where(~to_b & (kept == 1), 0.5 * fb, fb)
        a, fa = np.where(to_b, a, x), np.where(to_b, fa, fx)
        b, fb = np.where(to_b, x, b), np.where(to_b, fx, fb)
        kept = np.where(to_b, -1.0, 1.0)
        done = ((fx == 0) | ~inside | (b - a <= xtol + rtol * np.abs(x))
                | np.array([r is not None for r in refusals], dtype=bool))
        for i in np.flatnonzero(done).tolist():
            results[index[i]] = (refusals[i] if refusals[i] is not None
                                 else (float(x[i]), float(fx[i])))
        index, a, b, fa, fb, kept, x = (
            v[~done] for v in (index, a, b, fa, fb, kept, x))
    for k, partial in zip(index.tolist(), x.tolist()):
        lo, hi = brackets[k][:2]
        results[k] = ConvergenceError(
            f"regula falsi did not converge in 100 rounds in "
            f"[{lo!r}, {hi!r}]", partial=partial)
    for result in results:
        _raised(result)
    return results


def label_collapses(spec: TrajectorySpec, found: list[CollapseCandidate]
                    ) -> list[tuple[CollapseCandidate, CollapsePoint]]:
    """Each detected collapse with its analytic point: (cand, point), the
    point's gamma_y that of spec's line, spec.gamma_y(gamma_x).

    The total collapse is labelled k = j-1, branch "diagonal", at its own
    gx; every other candidate takes the nearest analytic point, a
    hyperbola point of collapse_points or the total collapse at c/2.
    These are the ground state's points, so for state 0 on a sum line the
    match is checked: points within 1e-9*c of each other are one point,
    and each distinct point inside [start, stop] must take exactly one
    candidate and every other point none.  Otherwise neighbouring sign changes have cancelled
    between two samples (or a spurious one appeared), and
    UnresolvedAnchorError names the points.
    """
    j, c = spec.j, spec.line_sum

    def at(k: int, branch: str, gx: float) -> CollapsePoint:
        return CollapsePoint(k=k, gamma_x=gx, gamma_y=spec.gamma_y(gx),
                             branch=branch)

    targets = [at(p.k, p.branch, p.gamma_x) for p in collapse_points(j, c)]
    targets.append(at(j - 1, "diagonal", c / 2.0))
    labelled = [(cand, at(j - 1, "diagonal", cand.gamma_x) if cand.total
                 else min(targets,
                          key=lambda tg: abs(tg.gamma_x - cand.gamma_x)))
                for cand in found]
    if spec.line != LINE_SUM or spec.state_index != 0:
        return labelled

    tol = 1e-9 * abs(c)
    points: list[float] = []
    for gx in sorted(tg.gamma_x for tg in targets):
        if not points or gx - points[-1] > tol:
            points.append(gx)
    missed, extra = [], []
    for p in points:
        rows = sum(abs(point.gamma_x - p) <= tol for _, point in labelled)
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
    root-solved gx of find_collapses (up to 1.9e-6 off at j = 10) the count
    falls short at 61 of the 178 hyperbola points with j = 2..10.

    This is the one-point case of _zero_patterns, which collapse_rows
    calls on all its points at once.
    """
    return _zero_patterns(params.j, params.eps, np.array([params.lam]),
                          np.array([params.gam]), state_index)[0]


def _zero_patterns(j: int, eps: float, lam: np.ndarray, gam: np.ndarray,
                   state_index: int, names=None) -> list[list[int]]:
    """collapse_zero_pattern at each point of the arrays of couplings lam,
    gam, with the slices of all points from one _anchor_slices call.

    When points are refused, the first one in order raises its refusal,
    which names the point by names where given (_anchor_slices).
    """
    refusals, slices = _anchor_slices(j, eps, lam, gam, state_index, names)
    for refusal in refusals:
        _raised(refusal)
    patterns: list = [None] * len(lam)
    for rows, d, w in slices:
        for i, pattern in zip(rows.tolist(), _slice_patterns(d, w)):
            patterns[i] = pattern
    return patterns


def _slice_patterns(d: np.ndarray, w: np.ndarray) -> list[list[int]]:
    """The pattern of each row of a stack of slices d (R, n+1) and their
    w (R,).

    n0 and n_inf count a row's structural roots, its zero coefficients at
    the low end and, for w != 0, at the high end (_live_ranges; each row
    of a unit state's slice has a nonzero one).  Of its other (free)
    roots, merged sit at the anchor: the number of leading Taylor
    coefficients a_0, a_1, ... within their bounds, at most all free
    roots.  Round m takes a_m of every row by one _anchor_coefficients
    call, which gives each row the bits it gets alone, and the rounds
    stop once every row has its count.
    """
    n = d.shape[1] - 1
    n0, last = _live_ranges(d)
    n_inf = np.where(w != 0, n - last, 0)
    free = n - n0 - n_inf
    merged = free.copy()
    pending = free > 0
    m = 0
    while pending.any():
        value, noise = _anchor_coefficients(d, w, m)
        found = pending & (np.abs(value) > noise)
        merged[found] = m
        m += 1
        pending &= ~found & (m < free)
    return [sorted((2 * s for s in (k, a, b) + (1,) * (f - k) if s),
                   reverse=True)
            for k, a, b, f in zip(merged.tolist(), n0.tolist(),
                                  n_inf.tolist(), free.tolist())]


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
    at = np.array([point.gamma_x for _, point in labelled], dtype=float)
    gy = spec.gamma_y(at)
    lam, gam = couplings(spec.j, at, gy, spec.eps)
    patterns = _zero_patterns(spec.j, spec.eps, lam, gam, spec.state_index,
                              (at, gy))
    return [CollapseRow(candidate=cand, point=point, pattern=tuple(pattern),
                        expected=((point.merged_zero_multiplicity,)
                                  + (2,) * (spec.j - 1 - point.k)))
            for (cand, point), pattern in zip(labelled, patterns)]
