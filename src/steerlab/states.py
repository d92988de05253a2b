"""Constructors and samplers for the Gaussian states used throughout.

Covers single-mode squeezed vacua, beamsplitter networks, pure
three-mode states in standard form parametrized by their local
symplectic invariants (a, b, c), and seeded random pure/mixed states
for Monte Carlo campaigns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalError, UsageError
from .symplectic import (
    PURITY_ATOL,
    CovarianceMatrix,
    apply_symplectic,
    is_pure,
    require_bona_fide,
)

# Slack accepted when checking the triangle condition on (a, b, c);
# boundary families sit exactly on the edge of the region.
TRIANGLE_ATOL = 1e-9

_LN10 = math.log(10.0)


def db_from_r(r: float) -> float:
    """Squeezing parameter to decibels, dB = 10 log10(e^{2r})."""
    return 20.0 * r / _LN10


def r_from_db(db: float) -> float:
    """Decibels to squeezing parameter, inverse of :func:`db_from_r`."""
    return db * _LN10 / 20.0


@dataclass(frozen=True)
class PureThreeModeParams:
    """Local symplectic invariants (a, b, c) of a pure three-mode state.

    a = sqrt(det sigma_A) and cyclically; a pure three-mode Gaussian
    state in standard form is fully determined by the triple.  Physical
    triples satisfy a, b, c >= 1 and the triangle condition
    |b - c| + 1 <= a <= b + c - 1 together with its cyclic permutations.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        a, b, c = float(self.a), float(self.b), float(self.c)
        for name, v in (("a", a), ("b", b), ("c", c)):
            if not np.isfinite(v) or v < 1.0 - TRIANGLE_ATOL:
                raise DomainError(f"local invariant {name} = {v} must be >= 1")
        # the two lower triangle bounds |b-c|+1 <= a etc. are implied
        for name, hi, lo1, lo2 in (("a", a, b, c), ("b", b, c, a), ("c", c, a, b)):
            if hi > lo1 + lo2 - 1.0 + TRIANGLE_ATOL:
                raise DomainError(
                    f"triangle condition violated: {name} = {hi} exceeds "
                    f"{lo1} + {lo2} - 1"
                )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def as_tuple(self):
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class OpticalNetworkParams:
    """Squeezing r and beamsplitter reflectivities (R, R') of the
    three-mode generation network."""

    r: float
    R: float
    R_prime: float = 0.5

    def __post_init__(self):
        if not np.isfinite(self.r) or self.r < 0.0:
            raise UsageError(f"squeezing parameter r = {self.r} must be >= 0")
        for name, v in (("R", self.R), ("R'", self.R_prime)):
            if not 0.0 <= v <= 1.0:
                raise UsageError(f"reflectivity {name} = {v} must lie in [0, 1]")

    @property
    def squeezing_db(self) -> float:
        return db_from_r(self.r)


@dataclass(frozen=True)
class SamplerConfig:
    """Configuration for the seeded random-state samplers.

    ``seed`` is a 64-bit master seed; sample i derives its own generator
    from (seed, i), so streams are reproducible and order-independent.
    """

    seed: int = 42
    count: int = 1
    r_max: float = 1.0
    a_max: float = 5.0
    distribution: str = "uniform"

    def __post_init__(self):
        if self.count < 1:
            raise UsageError(f"count = {self.count} must be >= 1")
        if self.r_max < 0.0:
            raise UsageError(f"r_max = {self.r_max} must be >= 0")
        if self.a_max <= 1.0:
            raise UsageError(f"a_max = {self.a_max} must exceed 1")
        if self.distribution not in ("uniform", "log-uniform"):
            raise UsageError(f"unknown distribution tag {self.distribution!r}")

    def rng_for(self, index: int) -> np.random.Generator:
        """Generator for sample ``index``, independent of visit order."""
        return np.random.default_rng([self.seed, index])


def vacuum(n_modes: int) -> CovarianceMatrix:
    """Vacuum state of n modes, CM = identity."""
    if n_modes < 1:
        raise UsageError("n_modes must be >= 1")
    return CovarianceMatrix(n_modes, np.eye(2 * n_modes))


def squeezed_vacuum(r: float, squeezed_quadrature: str = "x") -> CovarianceMatrix:
    """Single-mode squeezed vacuum, diag(e^{-2r}, e^{+2r}) for x squeezing."""
    if r < 0.0:
        raise UsageError(f"squeezing parameter r = {r} must be >= 0")
    if squeezed_quadrature == "x":
        d = [math.exp(-2.0 * r), math.exp(2.0 * r)]
    elif squeezed_quadrature == "p":
        d = [math.exp(2.0 * r), math.exp(-2.0 * r)]
    else:
        raise UsageError(f"squeezed_quadrature must be 'x' or 'p', got {squeezed_quadrature!r}")
    return CovarianceMatrix(1, np.diag(d))


def two_mode_squeezed(r: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum with cosh 2r local blocks and
    +-sinh 2r cross correlations (x correlated, p anticorrelated)."""
    if r < 0.0:
        raise UsageError(f"squeezing parameter r = {r} must be >= 0")
    ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    m = np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )
    return CovarianceMatrix(2, m)


def beamsplitter(reflectivity: float, modes, n_modes: int) -> np.ndarray:
    """Symplectic (orthogonal) beamsplitter matrix on a mode pair.

    Acts as the rotation [[sqrt(1-R), sqrt(R)], [-sqrt(R), sqrt(1-R)]]
    identically on the x pair and the p pair of the two modes, identity
    elsewhere.
    """
    if not 0.0 <= reflectivity <= 1.0:
        raise UsageError(f"reflectivity {reflectivity} must lie in [0, 1]")
    i, j = (int(m) for m in modes)
    if i == j or not (0 <= i < n_modes and 0 <= j < n_modes):
        raise UsageError(f"beamsplitter needs two distinct in-range modes, got {(i, j)}")
    t, rt = math.sqrt(1.0 - reflectivity), math.sqrt(reflectivity)
    s = np.eye(2 * n_modes)
    for q in (0, 1):  # x row then p row, same rotation on both
        a, b = 2 * i + q, 2 * j + q
        s[a, a] = t
        s[a, b] = rt
        s[b, a] = -rt
        s[b, b] = t
    return s


def ghz_network(params: OpticalNetworkParams) -> CovarianceMatrix:
    """Three squeezed vacua through two beamsplitters (reflectivities R
    on modes 1-2, then R' on modes 2-3); output mode 1 is party A.

    Inputs are squeezed in (x, p, x) on modes (1, 2, 3).  This wiring is
    the unique assignment (over squeezing placements, beamsplitter
    orders, and port signs) for which R' = 1/2 yields the local
    invariants a = sqrt(1 + 2R(1-R)(cosh 4r - 1)) and
    b = c = sqrt([1 + R^2 - (R^2 - 1) cosh 4r] / 2), with the
    permutationally invariant a = b = c state at R = 1/3.
    """
    r = params.r
    sigma0 = np.zeros((6, 6))
    for mode, quad in enumerate(("x", "p", "x")):
        block = squeezed_vacuum(r, quad).matrix
        sigma0[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = block
    sigma = CovarianceMatrix(3, sigma0)
    sigma = apply_symplectic(sigma, beamsplitter(params.R, (0, 1), 3))
    sigma = apply_symplectic(sigma, beamsplitter(params.R_prime, (1, 2), 3))
    if not is_pure(sigma):
        raise InternalError("ghz_network output failed the purity check (convention bug)")
    return sigma


def _interblock(ai: float, aj: float, ak: float):
    """Diagonal entries (e_plus, e_minus) of the standard-form 2x2 cross
    block between the modes with invariants ai, aj, where ak is the
    remaining mode."""
    # radicands factored into linear terms, each non-negative over the
    # triangle region; squaring first would cancel catastrophically on
    # its boundary (where one factor vanishes) and lose half the digits.
    # Each factor is an exactly rounded sum, so it is exactly zero when
    # its true value is: a left-to-right sum leaves ~1e-16 on an edge
    # such as ai = 1, aj = ak, which sqrt amplifies into a ~1e-8
    # correlation that breaks purity.
    fsum = math.fsum
    d1 = (
        fsum((aj, ak, -1.0, -ai))
        * fsum((ak, ai, -1.0, -aj))
        * fsum((aj, ak, 1.0, -ai))
        * fsum((ak, ai, 1.0, -aj))
    )
    d2 = (
        fsum((ai, aj, -1.0, -ak))
        * fsum((ai, aj, 1.0, -ak))
        * fsum((ai, aj, ak, -1.0))
        * fsum((ai, aj, ak, 1.0))
    )
    s1 = math.sqrt(max(d1, 0.0))
    s2 = math.sqrt(max(d2, 0.0))
    root = math.sqrt(ai * aj)
    e_plus = (s1 + s2) / (4.0 * root)
    if s1 + s2 == 0.0:
        return 0.0, 0.0
    # e_minus = (s1 - s2) / (4 root) rewritten via d1 - d2 = -8 ai aj (ai^2
    # + aj^2 - ak^2 - 1) to avoid cancellation at large invariants.  That
    # sum is taken exactly too: next to a vacuum mode it is ~1e-16, and
    # rounded squares, each off by up to half an ulp of ak^2, would give
    # it an O(1) relative error.
    (pi, ei), (pj, ej), (pk, ek) = (_exact_square(v) for v in (ai, aj, ak))
    q = fsum((pi, ei, pj, ej, -pk, -ek, -1.0))
    e_minus = -2.0 * root * q / (s1 + s2)
    return e_plus, e_minus


def _exact_square(x: float):
    """x * x as an unevaluated sum hi + lo with no rounding error
    (Dekker's product, splitting x with Veltkamp's constant 2^27 + 1)."""
    hi = x * x
    split = 134217729.0 * x
    xh = split - (split - x)
    xl = x - xh
    lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl
    return hi, lo


def _onto_triangle(a: float, b: float, c: float):
    """Move a triple accepted within ``TRIANGLE_ATOL`` onto the closed region.

    Inside the slack a triple can sit outside the region by rounding,
    e.g. (1, b, fl(1 + b - 1)) one ulp past the a = 1 corner.  No pure
    state has such invariants, and there the square roots in
    :func:`_interblock` turn the ulp into a ~1e-8 correlation of a
    vacuum mode.  Each invariant is raised to 1, then an invariant
    above the sum of the other two minus 1 (at most one can be) is
    lowered to the largest float not above that sum, which leaves every
    linear factor exactly non-negative.  Triples inside the region are
    returned unchanged.
    """
    inv = [max(a, 1.0), max(b, 1.0), max(c, 1.0)]
    for k in range(3):
        ai, aj = inv[(k + 1) % 3], inv[(k + 2) % 3]
        if math.fsum((ai, aj, -1.0, -inv[k])) < 0.0:
            top = math.fsum((ai, aj, -1.0))
            if math.fsum((ai, aj, -1.0, -top)) < 0.0:
                top = math.nextafter(top, 0.0)
            inv[k] = top
    return tuple(inv)


# Columns of the (N, 9) entry table a, b, c, then (e_plus, e_minus) of
# the pairs AB, AC, BC, gathered into the x block (invariants and
# e_plus) and the p block (invariants and e_minus).
_X_ENTRIES = [0, 3, 5, 3, 1, 7, 5, 7, 2]
_P_ENTRIES = [0, 4, 6, 4, 1, 8, 6, 8, 2]


def standard_form_blocks(triples):
    """x- and p-block stacks of pure three-mode states in standard form.

    ``triples`` holds N local-invariant triples, each a
    :class:`PureThreeModeParams` or a plain (a, b, c).  Returns X, P of
    shape (N, 3, 3): the CM restricted to the x (respectively p)
    quadratures, with the invariants on the diagonal and the e_plus
    (respectively e_minus) correlations off it.  Scalar local blocks and
    diagonal inter-modal blocks make the CM X (+) P in the quadrature
    order x1 x2 x3 p1 p2 p3, so the two blocks hold all of it.  A
    triple that lies outside the region by no more than the accepted
    slack is first moved onto its edge.  Each triple's entries are
    scalar, exactly rounded sums; every row is then verified, in one
    batch, before it is returned (see :func:`_check_blocks`).
    """
    params = [p if isinstance(p, PureThreeModeParams) else PureThreeModeParams(*p) for p in triples]
    if not params:
        raise UsageError("at least one (a, b, c) triple is required")
    entries = []
    for par in params:
        a, b, c = _onto_triangle(*par.as_tuple())
        entries.append((a, b, c, *_interblock(a, b, c), *_interblock(a, c, b), *_interblock(b, c, a)))
    table = np.array(entries)
    x = table[:, _X_ENTRIES].reshape(-1, 3, 3)
    p = table[:, _P_ENTRIES].reshape(-1, 3, 3)
    _check_blocks(x, p, table[:, :3], params)
    return x, p


def _check_blocks(x, p, invariants, params) -> None:
    """Raise :class:`InternalError` naming the first row that is not a
    pure state with the wanted invariants.

    Checks, per row: finite entries; X and P positive definite
    (Cholesky); purity, every symplectic eigenvalue within
    ``PURITY_ATOL`` of 1, where the spectrum of X (+) P is
    nu^2 = eig(L^T P L) with X = L L^T; unit determinant,
    |ln det X + ln det P| <= 1e-8; and sqrt(X_ii P_ii) reproducing the
    invariants within 1e-9.
    """
    infinite = np.flatnonzero(~np.all(np.isfinite(x) & np.isfinite(p), axis=(-2, -1)))
    if infinite.size:
        raise InternalError(f"standard form for {params[infinite[0]].as_tuple()} has a non-finite entry")
    try:
        lx = np.linalg.cholesky(x)
        lp = np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        for row, par in enumerate(params):
            try:
                np.linalg.cholesky(x[row])
                np.linalg.cholesky(p[row])
            except np.linalg.LinAlgError:
                raise InternalError(f"standard form for {par.as_tuple()} is not positive definite")
        raise
    nu = np.sqrt(np.linalg.eigvalsh(np.swapaxes(lx, -1, -2) @ p @ lx))
    impurity = np.max(np.abs(nu - 1.0), axis=-1)
    logdet = 2.0 * (
        np.sum(np.log(np.diagonal(lx, axis1=-2, axis2=-1)), axis=-1)
        + np.sum(np.log(np.diagonal(lp, axis1=-2, axis2=-1)), axis=-1)
    )
    got = np.sqrt(np.diagonal(x, axis1=-2, axis2=-1) * np.diagonal(p, axis1=-2, axis2=-1))
    drift = np.max(np.abs(got - invariants), axis=-1)
    bad_pure = ~(impurity <= PURITY_ATOL)  # a negative nu^2 gives a NaN, which fails
    bad_det = np.abs(logdet) > 1e-8
    bad_inv = drift > 1e-9
    failed = np.flatnonzero(bad_pure | bad_det | bad_inv)
    if failed.size == 0:
        return
    row = failed[0]
    triple = params[row].as_tuple()
    if bad_pure[row]:
        raise InternalError(
            f"standard form for {triple} is not pure (worst |nu - 1| = {impurity[row]:.3e})"
        )
    if bad_det[row]:
        raise InternalError(f"standard form for {triple} has ln det = {logdet[row]:.3e}")
    raise InternalError(
        f"standard form reproduced invariants {tuple(got[row].tolist())}, wanted {triple}"
    )


def standard_form_pure(params: PureThreeModeParams) -> CovarianceMatrix:
    """Pure three-mode CM in standard form from its local invariants.

    Local 2x2 blocks are a I, b I, c I; each inter-modal block is
    diag(e_plus, e_minus), the positive branch carrying the x
    correlations.  A batch of one of :func:`standard_form_blocks`, so
    the closed-form entries are verified once, at construction: the
    output must be pure, have unit determinant, and reproduce (a, b, c),
    otherwise an internal error is raised.
    """
    return CovarianceMatrix._from_valid(3, standard_form_matrices(*standard_form_blocks([params]))[0])


def standard_form_matrices(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(N, 6, 6) CMs, interleaved x1 p1 x2 p2 x3 p3, from the x- and
    p-block stacks of :func:`standard_form_blocks`."""
    m = np.zeros((len(x), 6, 6))
    m[:, 0::2, 0::2] = x
    m[:, 1::2, 1::2] = p
    return m


def local_invariants(sigma: CovarianceMatrix):
    """(a, b, c) = square roots of the local 2x2 block determinants."""
    if sigma.n_modes != 3:
        raise UsageError(f"local_invariants needs a 3-mode state, got {sigma.n_modes} modes")
    m = sigma.matrix
    out = []
    for mode in range(3):
        block = m[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2]
        out.append(math.sqrt(float(np.linalg.det(block))))
    return tuple(out)


def _haar_orthogonal_symplectic(z: np.ndarray) -> np.ndarray:
    """Random orthogonal symplectic 2n x 2n matrices (interleaved order).

    ``z`` is a (N, n, n) stack of complex Gaussian matrices.  One batched
    QR with the phase convention of Mezzadri turns each into a
    Haar-distributed unitary U, whose real representation
    [[Re U, -Im U], [Im U, Re U]] is written straight into interleaved
    ordering.  Orthogonal symplectic by construction.
    """
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[..., None, :]
    o = np.empty(q.shape[:-2] + (2 * q.shape[-1],) * 2)
    o[..., 0::2, 0::2] = q.real
    o[..., 0::2, 1::2] = -q.imag
    o[..., 1::2, 0::2] = q.imag
    o[..., 1::2, 1::2] = q.real
    return o


def _pure_draws(n_modes: int, rng: np.random.Generator, r_max: float):
    """One pure state's random numbers, in the sampler's fixed order: the
    real then the imaginary Gaussian parts of z, then the squeezings."""
    shape = (n_modes, n_modes)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    r = rng.uniform(0.0, r_max, n_modes) if r_max > 0.0 else np.zeros(n_modes)
    return z, r


def _pure_stack(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Pure CMs O Z^2 O^T from stacked draws, validated as one batch and
    symmetrized."""
    o = _haar_orthogonal_symplectic(z)
    z2 = np.empty(o.shape[:-1])
    z2[..., 0::2] = np.exp(2.0 * r)
    z2[..., 1::2] = np.exp(-2.0 * r)
    # sigma = S S^T with S = O Z; the second orthogonal factor of the
    # Bloch-Messiah form cancels in S S^T, so O Z covers all pure CMs
    m = (o * z2[..., None, :]) @ np.swapaxes(o, -1, -2)
    require_bona_fide(m)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def pure_samples(n_modes: int, rngs, r_max: float) -> np.ndarray:
    """(N, 2n, 2n) random pure CMs, row i drawn from the i-th generator."""
    z, r = zip(*(_pure_draws(n_modes, rng, r_max) for rng in rngs))
    return _pure_stack(np.stack(z), np.stack(r))


def mixed_samples(n_parties: int, rngs, r_max: float) -> np.ndarray:
    """(N, 2n, 2n) random mixed CMs, row i drawn from the i-th generator.

    Each generator draws one or two ancilla modes, then a pure state of
    the parties and the ancillas; the row is that state's marginal on
    the parties.  The pure states are built and validated in one batch
    per total mode count.
    """
    draws = [_pure_draws(n_parties + int(rng.integers(1, 3)), rng, r_max) for rng in rngs]
    dim = 2 * n_parties
    out = np.empty((len(draws), dim, dim))
    for total in sorted({z.shape[0] for z, _ in draws}):
        rows = [i for i, (z, _) in enumerate(draws) if z.shape[0] == total]
        pure = _pure_stack(np.stack([draws[i][0] for i in rows]), np.stack([draws[i][1] for i in rows]))
        out[rows] = pure[:, :dim, :dim]
    return out


def _pure_sample(n_modes: int, rng: np.random.Generator, r_max: float) -> CovarianceMatrix:
    return CovarianceMatrix._from_valid(n_modes, pure_samples(n_modes, [rng], r_max)[0])


def random_pure(n_modes: int, cfg: SamplerConfig):
    """Yield ``cfg.count`` seeded random pure n-mode states."""
    if n_modes < 1:
        raise UsageError("n_modes must be >= 1")
    for i in range(cfg.count):
        yield _pure_sample(n_modes, cfg.rng_for(i), cfg.r_max)


def _mixed_sample(n_parties: int, rng: np.random.Generator, r_max: float) -> CovarianceMatrix:
    # a principal submatrix of a bona fide CM is itself bona fide
    return CovarianceMatrix._from_valid(n_parties, mixed_samples(n_parties, [rng], r_max)[0])


def random_mixed(n_parties: int, cfg: SamplerConfig):
    """Yield seeded random mixed states: partial traces of pure states
    with one or two extra ancilla modes."""
    if n_parties < 2:
        raise UsageError("n_parties must be >= 2")
    for i in range(cfg.count):
        yield _mixed_sample(n_parties, cfg.rng_for(i), cfg.r_max)


def _params_sample(rng: np.random.Generator, a_max: float, distribution: str) -> PureThreeModeParams:
    ln_amax = math.log(a_max)
    while True:
        if distribution == "uniform":
            a, b, c = rng.uniform(1.0, a_max, 3)
        else:
            a, b, c = np.exp(rng.uniform(0.0, ln_amax, 3))
        if a <= b + c - 1.0 and b <= c + a - 1.0 and c <= a + b - 1.0:
            return PureThreeModeParams(a, b, c)


def random_params(cfg: SamplerConfig):
    """Yield seeded random (a, b, c) triples, rejection-sampled from the
    triangle region."""
    for i in range(cfg.count):
        yield _params_sample(cfg.rng_for(i), cfg.a_max, cfg.distribution)
