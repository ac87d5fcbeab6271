"""Time-ordered propagation for H(t, beta) = H0 + lambda(t, beta) V.

The stepper is midpoint-exponential, U(t+dt) = exp(-i*dt*H(t+dt/2)) U(t),
second-order accurate overall.  The step exponentials are one batched Taylor
product with scaling and squaring (Al-Mohy & Higham, SIAM J. Matrix Anal.
Appl. 31:970, 2009) of -i*dt*(H - (tr H/d) I), unitary to round-off; the
trace returns as an exact phase, so an offset in H0 forces no squarings, and
a step needing more than 16 squarings (error ~ 2^s round-offs) is too coarse.
The chain U_k = S_{k-1} ... S_1 S_0 is a blocked running product over blocks
of about sqrt(n) steps; it equals the sequential product up to round-off.
Heisenberg operators V_H(t) = U^dag V U and the weighted integral
M(t) = int_0^t dlambda/dbeta(s) V_H(s) ds are accumulated once, here, and
cached on the resulting trace.  M is the one accumulated state of a run:
the beta-generator is A = -i M, and the accumulated information current dL
of the engine is a fixed linear map of M.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .drive import DriveProfile, dlambda_dbeta, lambda_at
from .exceptions import DriveThermError, StepSizeTooCoarse
from .operators import UNROLL_MAX_DIM, hermitize, stack_mul
from .thermal import GibbsModel, dpi_dbeta, make_gibbs

#: Steps per fastest period at default resolution.
STEPS_PER_PERIOD = 200

#: Unitarity drift (Frobenius defect of U^dag U) treated as a step-size failure.
DRIFT_TOL = 1e-8

#: Largest ||A||_1 whose first term dropped from the degree-m Taylor series of
#: exp(A) is <= 2^-53, m = 1 .. 12; past the last, scale by 2^-s and square.
_TAYLOR_THETA = [(2.0 ** -53 * math.factorial(m + 2)) ** (1 / (m + 2)) for m in range(12)]
_MAX_SQUARINGS = 16


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * t_end / n_steps, with t_0 = 0.

    ``t_end == 0`` (with ``n_steps == 0``) is the degenerate single-node
    grid used for instantaneous evaluation.
    """

    t_end: float
    n_steps: int

    def __post_init__(self):
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")
        if (self.t_end == 0.0) != (self.n_steps == 0):
            raise ValueError("t_end == 0 requires n_steps == 0 and vice versa")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps if self.n_steps else 0.0

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)


def default_n_steps(t_end: float, *frequencies: float) -> int:
    """Default resolution: >= STEPS_PER_PERIOD steps per fastest period."""
    if t_end == 0.0:
        return 0
    fastest = max([abs(f) for f in frequencies] + [1e-30])
    return max(1, math.ceil(STEPS_PER_PERIOD * t_end * fastest / (2.0 * math.pi)))


def default_grid(t_end: float, *frequencies: float) -> TimeGrid:
    return TimeGrid(t_end, default_n_steps(t_end, *frequencies))


@dataclass(frozen=True)
class EvolutionTrace:
    """Propagators, Heisenberg perturbation and their weighted integral.

    ``propagators[k]`` is U(t_k); ``heisenberg_v[k] = U(t_k)^dag V U(t_k)``
    shares the spectrum of V and stays Hermitian for all k.  ``M[k]`` is the
    Hermitian cumulative trapezoid of dlambda_dbeta(s) * V_H(s) up to t_k.
    """

    grid: TimeGrid
    model: GibbsModel
    drive: DriveProfile
    propagators: np.ndarray
    heisenberg_v: np.ndarray
    M: np.ndarray
    unitarity_drift: float


def propagate(model: GibbsModel, v, drive: DriveProfile, grid: TimeGrid,
              *, drift_tol: float = DRIFT_TOL) -> EvolutionTrace:
    """Integrate the propagator chain; cache Heisenberg operators and M.

    Raises
    ------
    DriveThermError
        If a step generator, the unitarity drift or M is not finite (a NaN
        or infinite drive parameter or entry of V).
    StepSizeTooCoarse
        If a step needs more than 16 squarings or the unitarity defect
        exceeds ``drift_tol``; it carries a suggested finer ``n_steps``.
    """
    v = hermitize(v)
    if v.shape != model.h0.shape:
        raise ValueError(f"dimension mismatch: V {v.shape} vs H0 {model.h0.shape}")
    d = model.dim
    n = grid.n_steps
    identity = np.eye(d, dtype=complex)

    propagators = np.eye(d, dtype=complex)[None]
    if n > 0:
        dt = grid.dt
        t_mid = grid.nodes[:-1] + 0.5 * dt
        lam_mid = np.atleast_1d(lambda_at(drive, t_mid, model.beta))
        c0, cv = np.trace(model.h0).real / d, np.trace(v).real / d
        a = (-1j * dt) * ((model.h0 - c0 * identity)[..., None]
                          + (v - cv * identity)[..., None] * lam_mid)
        # step axis innermost in memory where stack_mul runs elementwise along it
        a = np.moveaxis(a, -1, 0) if d <= UNROLL_MAX_DIM else a.transpose(2, 0, 1).copy()
        propagators = _chain(_step_exponentials(a))
        propagators[1:] *= np.exp((-1j * dt) * np.cumsum(c0 + cv * lam_mid))[:, None, None]

    adjoints = propagators.conj().swapaxes(1, 2)
    defects = np.linalg.norm(stack_mul(adjoints, propagators) - identity, axis=(1, 2))
    drift = float(defects.max())
    if not math.isfinite(drift):
        raise DriveThermError(f"unitarity drift is {drift}: the drive or V is not finite")
    if drift > drift_tol:
        suggested = max(2 * n, 1)
        raise StepSizeTooCoarse(
            f"unitarity drift {drift:.3e} exceeds {drift_tol:.1e}; "
            f"retry with n_steps >= {suggested}",
            suggested_n_steps=suggested,
        )

    heisenberg_v = np.ascontiguousarray(stack_mul(adjoints, stack_mul(v, propagators)))
    propagators = np.ascontiguousarray(propagators)
    w = np.atleast_1d(dlambda_dbeta(drive, grid.nodes, model.beta))
    m = cumulative_trapezoid(w[:, None, None] * heisenberg_v, grid.dt)
    if not np.isfinite(m).all():
        raise DriveThermError("the weighted integral M is not finite: "
                              "check the drive's dlambda/dbeta")
    return EvolutionTrace(
        grid=grid,
        model=model,
        drive=drive,
        propagators=propagators,
        heisenberg_v=heisenberg_v,
        M=m,
        unitarity_drift=drift,
    )


def _step_exponentials(a: np.ndarray) -> np.ndarray:
    """exp(A_k) of an (n, d, d) stack: Horner on the Taylor series of the
    smallest degree m with theta_m >= max_k ||A_k||_1, then s squarings."""
    n, d, _ = a.shape
    norm = float(np.abs(a).sum(axis=1).max())
    if not math.isfinite(norm):
        raise DriveThermError(f"unitarity drift is nan: step norm {norm}; drive or V not finite")
    m = next((k for k, theta in enumerate(_TAYLOR_THETA, 1) if theta >= norm), 12)
    s = max(0, math.ceil(math.log2(norm / _TAYLOR_THETA[-1]))) if m == 12 else 0
    if s > _MAX_SQUARINGS:
        suggested = n * 2 ** (s - _MAX_SQUARINGS)
        raise StepSizeTooCoarse(f"step norm {norm:.3e} needs {s} > {_MAX_SQUARINGS} squarings; "
                                f"retry with n_steps >= {suggested}", suggested_n_steps=suggested)
    a = a * 0.5 ** s
    out = a / m
    for j in range(m - 1, 0, -1):
        out = stack_mul(a, out + np.eye(d)) * (1.0 / j)
    out += np.eye(d)
    for _ in range(s):
        out = stack_mul(out, out)
    return out


def _chain(steps: np.ndarray) -> np.ndarray:
    """U_0 = I and the running products U_k = S_{k-1} ... S_0 of (n, d, d) steps.

    The steps are padded with identities into nb ~ sqrt(n) blocks of
    b ~ sqrt(n) steps.  The in-block prefixes of all blocks are formed
    together (b - 1 batched products), then each block is carried by the last
    product of the block before it (nb - 1 batched products).
    """
    n, d, _ = steps.shape
    b = math.isqrt(n - 1) + 1
    nb = -(-n // b)
    padded = np.empty_like(steps, shape=(1 + nb * b, d, d))
    padded[0] = padded[n + 1:] = np.eye(d)
    padded[1:n + 1] = steps
    blocks = padded[1:].reshape(nb, b, d, d)
    for j in range(1, b):
        blocks[:, j] = stack_mul(blocks[:, j], blocks[:, j - 1])
    for i in range(1, nb):
        blocks[i] = stack_mul(blocks[i], blocks[i - 1, -1])
    return padded[:n + 1]


def cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Running composite trapezoid of a node stack: out[k] = int_0^{t_k}."""
    out = np.zeros_like(values)
    if len(values) > 1:
        np.cumsum(0.5 * dt * (values[:-1] + values[1:]), axis=0, out=out[1:])
    return out


def beta_generator(trace: EvolutionTrace) -> np.ndarray:
    """The generator A(t_k) = U^dag dU/dbeta = -i M(t_k), anti-Hermitian
    stack; A(0) = 0."""
    return -1j * trace.M


def drho_dbeta_analytic(trace: EvolutionTrace, k) -> np.ndarray:
    """Analytic beta-derivative of rho(t_k): U (dpi + [A, pi0]) U^dag.

    ``k`` is one node index, giving a (d, d) matrix, or an array of them,
    giving a stack.  Traceless Hermitian; reduces to the rotated equilibrium
    derivative when the drive is temperature-insensitive (A = 0).
    """
    a_k = -1j * trace.M[k]
    pi0 = trace.model.state
    inner = dpi_dbeta(trace.model) + (stack_mul(a_k, pi0) - stack_mul(pi0, a_k))
    u = trace.propagators[k]
    return stack_mul(stack_mul(u, inner), u.conj().swapaxes(-1, -2))


#: Relative noise level of the centered difference above which a warning fires.
FD_NOISE_WARN = 1e-4


def drho_dbeta_fd(model: GibbsModel, v, drive: DriveProfile, grid: TimeGrid,
                  k: int, h_beta: float | None = None) -> np.ndarray:
    """Centered finite difference of rho(t_k, beta) in beta.

    Both branches are re-thermalized *and* re-propagated at beta +- h: the
    temperature enters through the initial state and through the drive.
    Default step 1e-5 * max(1, beta) balances truncation and cancellation.
    """
    beta = model.beta
    if h_beta is None:
        h_beta = 1e-5 * max(1.0, beta)
    if beta - h_beta < 0.0:
        raise ValueError(f"beta - h_beta = {beta - h_beta} below 0; shrink h_beta")
    branches = []
    for shifted in (beta + h_beta, beta - h_beta):
        shifted_model = make_gibbs(model.h0, shifted, rank_floor=model.rank_floor)
        tr = propagate(shifted_model, v, drive, grid)
        u = tr.propagators[k]
        branches.append(u @ shifted_model.state @ u.conj().T)
    result = (branches[0] - branches[1]) / (2.0 * h_beta)
    noise = np.finfo(float).eps / (2.0 * h_beta)
    scale = max(float(np.linalg.norm(result)), 1e-300)
    if noise / scale > FD_NOISE_WARN:
        warnings.warn(
            f"finite-difference step h_beta={h_beta:.1e} is cancellation-limited "
            f"(relative noise ~{noise / scale:.1e})",
            stacklevel=2,
        )
    return result
