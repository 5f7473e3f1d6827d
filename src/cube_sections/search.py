"""Multistart search and classification of critical section directions.

Critical directions of the section-volume functional on the unit sphere
are located by a damped Newton iteration on the stationarity system
(gradient parallel to the direction, unit norm), started from every
diagonal direction plus a batch of random seeds.  All seeds of a scan run
through one lock-step iteration: each sweep builds one batched corner
table (:func:`cube_sections.criticality._corner_rows`) for the rows that
need an exact Jacobian and one for the rows trying a step, and every row
takes exactly the steps it would take alone, so a seed's result does not
depend on the batch it runs in.  The step-halving line search tries
several scales of a row per sweep, more the longer it has run, so a row
that halves through all 30 scales takes seven sweeps, not 30, and stops
at the same trial as one trying a scale per sweep.  Converged points are
folded into the closed positive orthant, deduplicated, and classified:
kinks by their degenerate verdicts, every other point by the eigenvalues
of the exact tangent Hessian, read off the same corner table as Newton's
Jacobian, with a sign probe of the volume where that Hessian is
degenerate.

Directions with zero coordinates are genuine non-smooth points.  Rows
whose coordinates collapse below a threshold, or whose line search stalls
on noise-sized coordinates, leave the batch with those coordinates zeroed
and are refined again on the reduced dimension, in one batch per live
count, so the recursion batches again at every level.  A seed that
arrives with zero coordinates recurses on its own; every other seed goes
through Newton.  Every refined row of a level is snapped and certified in
one batch: certification reads the balance residuals and the stationarity
gap of the whole batch off one corner table per live count, with the
verdicts, degenerate ones included, of
:func:`cube_sections.criticality.criticality_residuals`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criticality import _balance_residuals, _corner_rows, _degenerate_verdict, _sinc_rows
from .density import MAX_CLOSED_FORM_WEIGHTS
from .sections import _central, _central_rows, diagonal_direction
from .weights import InvalidInputError, _binade_scaled, _unit_vector, as_unit_vector, as_weight_vector

__all__ = [
    "ScanConfig",
    "CriticalPoint",
    "canonicalize",
    "refine_critical",
    "classify_critical_point",
    "scan",
]

_NEWTON_MAX_ITERS = 60
_NEWTON_TOL = 1e-11
_DEDUP_TOL = 1e-6
_ZERO_COORD_TOL = 1e-7
_CERTIFY_TOL = 1e-8
_SNAP_TOL = 1e-7
_CLASSIFY_EIG_TOL = 1e-6
# each coordinate below ~1e-3 costs the corner-table gradient and Hessian
# roughly three digits (the alternating corner sums are divided by the
# weight product), so once Newton stalls with coordinates this small its
# residual has sunk into cancellation noise and the only sound move is to
# commit them to zero
_STALL_COLLAPSE_TOL = 1e-3
# at diagonals with a degenerate sphere Hessian the gradient is quadratic
# in the offset, so Newton residual-converges while still ~1e-6 away; a
# snap from that far is accepted only when certified not to worsen the
# stationarity gap
_WIDE_SNAP_TOL = 1e-4
# step halvings a Newton line search tries before the iterate counts as stalled
_HALVINGS = 30


@dataclass(frozen=True)
class ScanConfig:
    """One multistart scan: the dimension, how many random seeds, their rng seed."""

    dimension: int
    seed_count: int = 500
    rng_seed: int = 0

    def __post_init__(self):
        if not 2 <= self.dimension <= MAX_CLOSED_FORM_WEIGHTS:
            raise InvalidInputError(f"scan needs dimension from 2 to {MAX_CLOSED_FORM_WEIGHTS}")
        if self.seed_count < 0:
            raise InvalidInputError("seed_count must be nonnegative")
        if self.rng_seed < 0:
            raise InvalidInputError("rng_seed must be nonnegative")


@dataclass(frozen=True)
class CriticalPoint:
    """A deduplicated critical direction found by :func:`scan`."""

    canonical: np.ndarray
    sigma: float
    volume: float
    classification: str
    basin_count: int
    diagonal_k: int | None

    def to_dict(self) -> dict:
        return {
            "direction": [float(v) for v in self.canonical],
            "sigma": self.sigma,
            "volume": self.volume,
            "classification": self.classification,
            "basin_count": self.basin_count,
            "diagonal_k": self.diagonal_k,
        }


def canonicalize(a) -> np.ndarray:
    """Representative of the symmetry orbit: fold signs, sort ascending, unit norm."""
    arr = np.sort(np.abs(as_weight_vector(a, allow_zero=True)))
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise InvalidInputError("cannot canonicalize the zero vector")
    return arr / norm


def _gap_rows(a: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Stationarity gap of each row of ``a``, given its gradient rows.

    The gap is the max norm of the projected gradient ``g - (a . g) a``;
    it is linear in the distance to a critical direction, unlike the
    balance residuals, which degenerate quadratically near the axes.
    ``np.vecdot`` takes each ``a . g`` as ``row @ g``, so it is batch-free.
    """
    lam = np.vecdot(a, grad)
    return np.abs(grad - lam[:, None] * a).max(axis=1)


def _certified_rows(a: np.ndarray) -> np.ndarray:
    """Whether each row of ``a`` is certified critical.

    A row is certified when, at its unit vector, the balance residuals are
    within 1e-8 or :func:`~cube_sections.criticality.criticality_residuals`
    calls it degenerate, and the stationarity gap is within 1e-8.  Both
    come from one :func:`~cube_sections.criticality._sinc_rows` table of
    the unit rows, which makes one kernel call per live count.
    """
    u = _unit_vector(a)
    table = _sinc_rows(u)
    balanced = np.abs(_balance_residuals(table, u)).max(axis=1) <= _CERTIFY_TOL
    return (balanced | (_degenerate_verdict(u) != "")) & (_gap_rows(u, table.grad) <= _CERTIFY_TOL)


def _snap_rows(a: np.ndarray) -> np.ndarray:
    """Snap each row to the diagonal on its coordinates above 1e-7.

    A row within 1e-4 of that diagonal is snapped when the stationarity
    gap there is at most its own plus the Newton tolerance 1e-11, and
    otherwise only when it is within 1e-7.  Both gaps of all rows come
    from one table.
    """
    live = np.abs(a) > _ZERO_COORD_TOL
    k = live.sum(axis=1)
    diag = np.where(live, 1.0 / np.sqrt(np.maximum(k, 1))[:, None], 0.0)
    dist = np.abs(a - diag).max(axis=1)
    near = np.flatnonzero((k > 0) & (dist <= _WIDE_SNAP_TOL))
    out = a.copy()
    if near.size:
        both = np.concatenate([diag[near], a[near]])
        gaps = _gap_rows(both, _sinc_rows(both).grad)
        wide = gaps[: near.size] <= gaps[near.size :] + _NEWTON_TOL
        take = near[wide | (dist[near] <= _SNAP_TOL)]
        out[take] = diag[take]
    return out


def refine_critical(seed) -> np.ndarray | None:
    """Polish one seed to a certified critical direction, or ``None``.

    Newton iteration on the stationarity system in the direction and its
    multiplier, with the exact Jacobian ``[[H - lambda, -a], [a^T, 0]]``
    from the corner-table Hessian ``H`` of ``I`` and step halving, to a
    residual of 1e-11 within 60 steps; coordinates collapsing below 1e-7
    are dropped and the reduced problem is solved recursively, and a
    stalled iterate with coordinates small enough to drown the residual in
    cancellation noise is retried with those coordinates zeroed.  The
    returned vector is unit, nonnegative, and snapped exactly onto a
    diagonal when doing so does not worsen the stationarity gap.

    The seed is validated and scaled to its binade here and runs as a
    batch of one through the batched refinement that :func:`scan` runs all
    its seeds through, retries on reduced dimensions included, and its
    result is bitwise the same either way.
    """
    return _refine_seeds([_binade_scaled(as_weight_vector(seed, allow_zero=True))[0]])[0]


def _refine_seeds(seeds) -> list[np.ndarray | None]:
    """:func:`refine_critical` of every seed, with one batch for all.

    Seeds share one dimension and are finite and of order 1; one batch
    scales them to ``|a| / ||a||``, losing a zero seed.  A seed with a unit
    coordinate at or below 1e-7 recurses on its own through the
    module-global :func:`refine_critical` on its live coordinates.  The
    others run through one :func:`_newton_rows` batch, which a converged
    row leaves unchanged.  Its converged, ``"tiny"`` and ``"stalled"``
    exits (these with coordinates at or below 1e-3 zeroed) are scaled in
    one batch too; the last two are refined again on their coordinates
    above 1e-7, one :func:`_refine_seeds` call per live count.  The
    recursion results, converged rows and retries share one snap and one
    certification.
    """
    results: list[np.ndarray | None] = [None] * len(seeds)
    finish: list[tuple[int, np.ndarray]] = []
    rows: list[int] = []
    starts: list[np.ndarray] = []
    seeds = np.array(seeds)
    norms = np.sqrt(np.vecdot(seeds, seeds))
    with np.errstate(invalid="ignore"):  # a zero seed has no unit vector and is lost
        units = np.abs(seeds) / norms[:, None]
    for i in np.flatnonzero(norms).tolist():
        a = units[i]
        live = a > _ZERO_COORD_TOL
        if np.all(live):
            rows.append(i)
            starts.append(a)
            continue
        inner = refine_critical(a[live])
        if inner is not None:
            out = np.zeros_like(a)
            out[live] = inner
            finish.append((i, out))

    if rows:
        ends: list[tuple[int, bool, np.ndarray]] = []  # (seed, converged, iterate)
        for i, (exit_, x) in enumerate(_newton_rows(np.array(starts))):
            if exit_ == "stalled":
                # zero the noise-dominated coordinates of the stalled iterate
                small = np.abs(x) <= _STALL_COLLAPSE_TOL
                if not np.any(small) or np.all(small):
                    continue
                x = np.where(small, 0.0, x)
            elif exit_ not in ("converged", "tiny"):
                continue
            ends.append((rows[i], exit_ == "converged", x))
        ended = np.array([x for _, _, x in ends]).reshape(-1, seeds.shape[1])
        units = np.abs(ended) / np.sqrt(np.vecdot(ended, ended))[:, None]
        retry: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}
        for (i, converged, _), u in zip(ends, units):
            if converged:
                finish.append((i, u))
                continue
            live = u > _ZERO_COORD_TOL
            retry.setdefault(int(np.count_nonzero(live)), []).append((i, u, live))

        for group in retry.values():
            inner = _refine_seeds([u[live] for _, u, live in group])
            for (i, u, live), out in zip(group, inner):
                if out is not None:
                    full = np.zeros_like(u)
                    full[live] = out
                    finish.append((i, full))

    if finish:
        done, vecs = zip(*finish)
        snapped = _snap_rows(np.array(vecs))
        for i, out, ok in zip(done, snapped, _certified_rows(snapped)):
            results[i] = out if ok else None
    return results


def _residual_rows(x: np.ndarray) -> np.ndarray:
    """Rows of ``[grad I - lambda a, (|a|^2 - 1) / 2]`` at rows ``x = [a, lambda]``.

    ``a`` has no zero coordinate.  The coordinate sum runs in index order
    (an accumulate), so each row is independent of the others.
    """
    a, lam = x[:, :-1], x[:, -1:]
    grad = _corner_rows(a).grad
    sphere = 0.5 * ((a * a).cumsum(axis=1)[:, -1:] - 1.0)
    return np.concatenate([grad - lam * a, sphere], axis=1)


def _solve_rows(J: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve every ``J[i] x = rhs[i]``; return the solutions and which exist.

    LAPACK raises for a whole stack when one matrix in it is singular, so
    the stack is then solved matrix by matrix, and only a singular
    matrix's own row comes back NaN and flagged ``False``.
    """
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0], np.ones(len(J), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        ok = np.zeros(len(J), dtype=bool)
        for i in range(len(J)):
            try:
                out[i] = np.linalg.solve(J[i : i + 1], rhs[i : i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                continue
            ok[i] = True
        return out, ok


def _newton_rows(a: np.ndarray) -> list[tuple[str, np.ndarray | None]]:
    """Damped Newton on the stationarity system for rows of directions in lock step.

    Each row takes exactly the steps it would take alone.  In every sweep
    a row between iterations either leaves or builds its exact Jacobian
    ``[[H - lambda, -a], [a^T, 0]]`` and solves for its step, and then
    every row tries step scales: a trial is accepted when it lowers the
    max-norm residual, and the scale halves otherwise.  A row that has
    halved ``h`` times tries its next ``max(1, h - 1)`` scales ``2^-h``,
    ``2^-(h+1)``, ... at once, at most up to the 30th halving, so a long
    line search takes a few sweeps, not 30; the row stops at the first of
    them that is tiny or accepted, as if it had tried them one by one.
    Returns how each row left, with its iterate: ``"converged"`` (a
    residual of at most 1e-11), ``"stalled"`` (60 steps, or 30 failed
    halvings), ``"tiny"`` (a trial with a coordinate at or below 1e-7) or
    ``"singular"`` (no step; the iterate is ``None``).
    """
    count, n = a.shape
    exits: list[tuple[str, np.ndarray | None]] = [("singular", None)] * count
    eye = np.eye(n)

    # a start may overflow, and its row then leaves singular or stalled; a
    # trial may overflow, and it is then rejected
    with np.errstate(all="ignore"):
        # x = [a, lambda]; the multiplier a . grad I is read off the residuals at lambda = 0
        x = np.concatenate([a, np.zeros((count, 1))], axis=1)
        G = _residual_rows(x)
        x[:, n:] = (a * G[:, :n]).cumsum(axis=1)[:, -1:]
        G[:, :n] -= x[:, n:] * a
        state = (
            np.arange(count),  # input row
            x,
            G,
            np.abs(G).max(axis=1),  # residual of the accepted iterate
            np.zeros(count, dtype=int),  # Newton steps taken
            np.zeros((count, n + 1)),  # current step
            np.zeros(count, dtype=int),  # halvings of its scale
            np.zeros(count, dtype=bool),  # whether the row is in a line search
        )
        while state[0].size:
            row, x, G, resid, iters, step, halved, searching = state
            idle = ~searching
            if idle.any():
                left = idle & ((resid <= _NEWTON_TOL) | (iters >= _NEWTON_MAX_ITERS))
                for i in np.flatnonzero(left):
                    kind = "converged" if resid[i] <= _NEWTON_TOL else "stalled"
                    exits[row[i]] = (kind, x[i, :n].copy())
                new = np.flatnonzero(idle & ~left)
                if new.size:
                    sub = x[new, :n]
                    J = np.zeros((new.size, n + 1, n + 1))
                    J[:, :n, :n] = _corner_rows(sub, hessian=True).hessian - x[new, n, None, None] * eye
                    J[:, :n, n] = -sub
                    J[:, n, :n] = sub
                    steps, solved = _solve_rows(J, -G[new])
                    left[new[~solved]] = True  # their exits already read "singular"
                    new = new[solved]
                    step[new] = steps[solved]
                    halved[new] = 0
                    iters[new] += 1
                if left.any():
                    state = tuple(v[~left] for v in state)
                    row, x, G, resid, iters, step, halved, searching = state
                    if not row.size:
                        break

            # every row is now in a line search and tries its next scales;
            # the scales are exact powers of two, the products of repeated halving
            width = np.minimum(np.maximum(halved - 1, 1), _HALVINGS - halved)
            first = np.cumsum(width) - width
            trial = np.repeat(np.arange(row.size), width)
            h = halved[trial] + np.arange(trial.size) - first[trial]
            x_new = x[trial] + np.ldexp(1.0, -h)[:, None] * step[trial]
            a_new = x_new[:, :n]
            sane = np.isfinite(a_new).all(axis=1) & (
                np.sqrt((a_new * a_new).cumsum(axis=1)[:, -1]) > 0.25
            )
            tiny = sane & (np.abs(a_new) <= _ZERO_COORD_TOL).any(axis=1)
            G_new = _residual_rows(x_new)
            resid_new = np.abs(G_new).max(axis=1)
            took = sane & ~tiny & (resid_new < resid[trial])
            # a row stops at its first trial that is tiny or accepted; the
            # sentinel trial.size marks a row whose every trial failed
            stop = np.minimum.reduceat(np.where(took | tiny, np.arange(trial.size), trial.size), first)
            took_at = np.append(took, False)[stop]
            tiny_at = np.append(tiny, False)[stop]
            x[took_at] = x_new[stop[took_at]]
            G[took_at] = G_new[stop[took_at]]
            resid[took_at] = resid_new[stop[took_at]]
            failed = ~(took_at | tiny_at)
            halved = halved + failed * width
            stalled = halved >= _HALVINGS
            for i in np.flatnonzero(tiny_at):
                exits[row[i]] = ("tiny", a_new[stop[i]].copy())
            for i in np.flatnonzero(stalled):
                exits[row[i]] = ("stalled", x[i, :n].copy())
            state = (row, x, G, resid, iters, step, halved, failed & ~stalled)
            left = tiny_at | stalled
            if left.any():
                state = tuple(v[~left] for v in state)
    return exits


_PROBE_STEP = 3e-2
_PROBE_NOISE = 1e-9


def _tangent_hessian(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hessian of ``sigma`` on the sphere at a critical unit ``u``, and its chart.

    ``sigma = |a| I(a)`` has degree 0, so on the orthonormal tangent basis
    ``B`` (the right singular vectors of ``u`` past the first) its Hessian
    is ``I(u) Id + B^T (d2I) B``, read off one corner table.
    """
    basis = np.linalg.svd(u[None, :])[2][1:].T
    table = _sinc_rows(u[None], hessian=True)
    return table.value[0] * np.eye(basis.shape[1]) + basis.T @ table.hessian[0] @ basis, basis


def classify_critical_point(u) -> str:
    """Classify a critical direction by its behavior on the tangent sphere.

    Coordinate directions and two-coordinate diagonals sit on kinks, where
    :func:`~cube_sections.criticality.criticality_residuals` calls them
    degenerate; they attain the extreme values pi and sqrt(2) pi and are
    ``global-min`` and ``global-max``.  Elsewhere the eigenvalue signs of
    the exact tangent Hessian (:func:`_tangent_hessian`), zero coordinates
    included, yield ``local-min``/``local-max``/``saddle``.  Diagonal
    directions can be Hessian-degenerate (the second-order terms cancel
    and the character is cubic or quartic), so near-zero eigenvalues
    trigger a direct sign probe of the section volume along an
    eigenvector fan.
    """
    u = as_unit_vector(u)
    degenerate = str(_degenerate_verdict(u))
    if degenerate:
        return "global-min" if degenerate == "degenerate-min" else "global-max"
    H, basis = _tangent_hessian(u)
    eigs, vecs = np.linalg.eigh(H)
    if np.all(np.abs(eigs) >= _CLASSIFY_EIG_TOL):
        if np.all(eigs > 0.0):
            return "local-min"
        if np.all(eigs < 0.0):
            return "local-max"
        return "saddle"

    # Hessian-degenerate point: the leading tangent behavior can be cubic
    # (odd), so probe one-sided differences over an eigenvector fan and both
    # orientations of every direction.
    d = basis.shape[1]
    directions = [vecs[:, i] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            directions.append((vecs[:, i] + vecs[:, j]) / math.sqrt(2.0))
            directions.append((vecs[:, i] - vecs[:, j]) / math.sqrt(2.0))
            directions.append((vecs[:, i] + 2.0 * vecs[:, j]) / math.sqrt(5.0))
            directions.append((2.0 * vecs[:, i] - vecs[:, j]) / math.sqrt(5.0))
    # each volume of a batch is that of its row alone, so one batch reads
    # the section at u and at every probe
    steps = [sign * _PROBE_STEP * v for v in directions for sign in (1.0, -1.0)]
    probes = [u] + [u + basis @ step for step in steps]
    f0, *values = [math.pi * vol / 2.0 ** (u.size - 1) for vol in _central_rows(np.array(probes))]
    seen_pos = seen_neg = seen_flat = False
    for value in values:
        g = value - f0
        if g > _PROBE_NOISE:
            seen_pos = True
        elif g < -_PROBE_NOISE:
            seen_neg = True
        else:
            seen_flat = True
    if seen_pos and seen_neg:
        return "saddle"
    if seen_flat or not (seen_pos or seen_neg):
        return "undetermined"
    return "local-min" if seen_pos else "local-max"


def _diagonal_index(canonical: np.ndarray) -> int | None:
    n = canonical.size
    for k in range(1, n + 1):
        if float(np.max(np.abs(canonical - diagonal_direction(k, n)))) <= 1e-9:
            return k
    return None


def _scan_seeds(config: ScanConfig) -> list[np.ndarray]:
    """The ``n`` diagonal directions, then ``seed_count`` folded normal ones."""
    n = config.dimension
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
    # one draw is the stream of seed_count draws of n, row by row
    folded = np.abs(rng.standard_normal((config.seed_count, n)))
    units = folded / np.sqrt(np.vecdot(folded, folded))[:, None]
    return [diagonal_direction(k, n) for k in range(1, n + 1)] + list(units)


def scan(config: ScanConfig) -> list[CriticalPoint]:
    """Find and classify critical directions from a deterministic multistart.

    Seeds are the ``n`` diagonal directions followed by ``seed_count``
    folded standard-normal directions from a seeded generator, refined
    together in one batch; each gives the vector :func:`refine_critical`
    gives it alone.  Converged, certified points are merged within 1e-6
    in max norm on their canonical representatives and
    reported sorted by coordinates, with the number of seeds attracted to
    each point.
    """
    found: list[np.ndarray] = []
    counts: list[int] = []
    for result in _refine_seeds(_scan_seeds(config)):
        if result is None:
            continue
        rep = canonicalize(result)
        for idx, known in enumerate(found):
            if float(np.max(np.abs(rep - known))) <= _DEDUP_TOL:
                counts[idx] += 1
                break
        else:
            found.append(rep)
            counts.append(1)

    order = sorted(range(len(found)), key=lambda i: tuple(found[i]))
    points = []
    for i in order:
        rep = found[i]
        volume = _central(rep)
        points.append(
            CriticalPoint(
                canonical=rep,
                sigma=math.pi * volume / 2.0 ** (rep.size - 1),
                volume=volume,
                classification=classify_critical_point(rep),
                basin_count=counts[i],
                diagonal_k=_diagonal_index(rep),
            )
        )
    return points
