"""Time-ordered propagation for H(t, beta) = H0 + lambda(t, beta) V.

The stepper is midpoint-exponential, U(t+dt) = exp(-i*dt*H(t+dt/2)) U(t),
second-order accurate overall.  The traceless step exponents
A_k = -i*dt*(H_k - (tr H_k/d) I) = A0 + lambda_k A1 are affine in the drive
at the step midpoint.  For every d, exp(A_k) is one Taylor polynomial in
lambda_k with scaling and squaring (Al-Mohy & Higham, SIAM J. Matrix Anal.
Appl. 31:970, 2009), whose d x d coefficients are formed once per run and
applied to all steps as one matrix product.  Degree and squarings read one
norm, ||A0||_1 + max|lambda| ||A1||_1.
The steps are unitary to round-off; the trace returns as an exact phase,
so an offset in H0 forces no squarings, and steps that would need more than
16 squarings (error ~ 2^s round-offs) are too coarse.
A trace holds the nodes from a first one on (0 by default).  The steps
before it are reduced pairwise to the one pair (U, M) there; from it the
chain U_k = S_{k-1} ... S_0 is a blocked running product over blocks of
about sqrt(n) steps; both equal the sequential product up to round-off.
A propagation read at its last node alone also runs in two halves, so that
many of them finish together: ``reduce_to_node`` stops the pairwise
reduction at ``residual_pairs(d)`` pairs (a fixed byte budget) and keeps
them with the node's trace phase and half weight, and ``finish_nodes``
completes a list of such residuals as batched (P, d, d) operations, bit for
bit the U, M and drift of ``propagate(..., first=n)``.  Both routes form
their steps and leaves in ``_steps`` and run one node step, ``_node_step``
(unitarity defect and V_H), on their nodes; a grid without steps is an
ordinary grid of empty step stacks.
Heisenberg operators V_H(t) = U^dag V U and the weighted integral
M(t) = int_0^t dlambda/dbeta(s) V_H(s) ds are accumulated once, here, and
cached on the resulting trace together with the weights w = dlambda/dbeta
at the held nodes.  M is the one accumulated state of a run:
the beta-generator is A = -i M, and the accumulated information current dL
of the engine is a fixed linear map of M.
"""

import math
from typing import NamedTuple

import numpy as np

from .drive import DriveProfile, _Checked, dlambda_dbeta, lambda_at
from .exceptions import DriveThermError, StepSizeTooCoarse
from .operators import hermitize, stack_innermost, stack_mul
from .thermal import GibbsModel, dpi_dbeta

#: Steps per fastest period at default resolution.
STEPS_PER_PERIOD = 200

#: Unitarity drift (Frobenius defect of U^dag U) treated as a step-size failure.
DRIFT_TOL = 1e-8

#: Bytes the (n, d, d) complex stacks of one run may take, counted as 8 stacks
#: of n + 1 nodes (``propagate`` holds about 6.5 at its peak, and ``simulate``
#: with its time series about 8).  As ``operators.MAX_DIM`` bounds d, this
#: bounds the steps: n d^2 < 2^25, so at most 8,388,607 steps at d = 2.
MAX_STACK_BYTES = 1 << 32

#: Largest ||A||_1 whose first term dropped from the degree-m Taylor series of
#: exp(A) is <= 2^-53, m = 1 .. 12; past the last, scale by 2^-s and square.
_TAYLOR_THETA = [(2.0 ** -53 * math.factorial(m + 2)) ** (1 / (m + 2)) for m in range(12)]
_MAX_SQUARINGS = 16


class TimeGrid(_Checked, NamedTuple("TimeGrid", [("t_end", float), ("n_steps", int)])):
    """Uniform grid t_k = k * t_end / n_steps, with t_0 = 0.

    ``t_end == 0`` (with ``n_steps == 0``) is the degenerate single-node
    grid used for instantaneous evaluation.
    """

    def __new__(cls, t_end, n_steps):
        if t_end < 0.0:
            raise ValueError(f"t_end must be >= 0, got {t_end}")
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        if (t_end == 0.0) != (n_steps == 0):
            raise ValueError("t_end == 0 requires n_steps == 0 and vice versa")
        return super().__new__(cls, t_end, n_steps)

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
    """Default resolution: >= STEPS_PER_PERIOD steps per fastest period.  A
    count past 2^63 saturates there, for ``check_n_steps`` to reject."""
    if t_end == 0.0:
        return 0
    fastest = max([abs(f) for f in frequencies] + [1e-30])
    return max(1, math.ceil(min(STEPS_PER_PERIOD * t_end * fastest / (2.0 * math.pi), 2.0**63)))


def max_n_steps(d: int) -> int:
    """The most steps a propagation of a d-level probe may take: its stacks
    fit ``MAX_STACK_BYTES``."""
    return MAX_STACK_BYTES // (8 * 16 * d * d) - 1


def check_n_steps(n_steps: int, d: int) -> None:
    """Raise ValueError, before anything is allocated, for a grid of more
    steps than ``max_n_steps(d)``."""
    if n_steps > max_n_steps(d):
        raise ValueError(f"a grid of {n_steps:.3g} steps exceeds the cap of {max_n_steps(d):,} "
                         f"steps at d = {d} (propagation.MAX_STACK_BYTES)")


def default_grid(t_end: float, *frequencies: float) -> TimeGrid:
    return TimeGrid(t_end, default_n_steps(t_end, *frequencies))


class EvolutionTrace(NamedTuple):
    """Propagators, Heisenberg perturbation and their weighted integral at
    the held nodes k = first .. n, in rows k - first.

    ``propagators`` holds U(t_k); ``heisenberg_v`` holds U(t_k)^dag V U(t_k),
    which shares the spectrum of V and stays Hermitian.  ``weights`` holds
    w = dlambda/dbeta at t_k, and ``M`` the Hermitian trapezoid of w * V_H
    from 0 to t_k.  For d <= UNROLL_MAX_DIM the three stacks keep the chain's
    layout, the row axis innermost in memory, which ``stack_mul`` wants.
    """

    grid: TimeGrid
    model: GibbsModel
    weights: np.ndarray
    propagators: np.ndarray
    heisenberg_v: np.ndarray
    M: np.ndarray
    unitarity_drift: float
    first: int = 0


def propagate(model: GibbsModel, v, drive: DriveProfile, grid: TimeGrid,
              *, first: int = 0, drift_tol: float = DRIFT_TOL) -> EvolutionTrace:
    """Integrate the propagator chain; cache Heisenberg operators and M at
    the held nodes ``first .. n``, the steps before ``first`` reduced pairwise.

    The unitarity drift is the largest defect over the held nodes, the
    product at ``first`` among them.  The defect grows along the chain, so
    this is the same guard at the same ``drift_tol`` for every ``first``.

    Raises
    ------
    DriveThermError
        If the step norm, the unitarity drift or M is not finite (a NaN
        or infinite drive parameter or entry of V).
    StepSizeTooCoarse
        If the steps need more than 16 squarings or the unitarity defect
        exceeds ``drift_tol``; it carries a suggested finer ``n_steps``.
    """
    v = hermitize(v)
    n = grid.n_steps
    if not 0 <= first <= n:
        raise ValueError(f"first node {first} outside grid with {n} steps")

    w, steps, leaves, phase = _steps(model, v, drive, grid, first)
    start = None
    if first:
        with np.errstate(all="ignore"):
            start, m_first = (x[0] for x in _reduce(steps[:first], leaves))
    propagators = _chain(steps[first:], start)
    propagators *= phase[:, None, None]

    defects, heisenberg_v = _node_step(v, propagators)
    drift = float(defects.max())
    failure = _drift_failure(drift, n, model.dim, drift_tol)
    if failure is not None:
        raise failure

    w = w[first:]
    with np.errstate(all="ignore"):  # a non-finite weight is reported once, below
        m = cumulative_trapezoid(w[:, None, None] * heisenberg_v, grid.dt)
        if first:  # the reduced nodes, and node first's half weight up to it
            m += m_first + (0.5 * grid.dt * w[0]) * heisenberg_v[0]
    if not np.isfinite(m).all():
        raise DriveThermError(_M_NOT_FINITE)
    return EvolutionTrace(grid=grid, model=model, weights=w, propagators=propagators,
                          heisenberg_v=heisenberg_v, M=m, unitarity_drift=drift, first=first)


_M_NOT_FINITE = "the weighted integral M is not finite: check the drive's dlambda/dbeta"


def _node_step(v: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unitarity defects ||U^dag U - I||_F and the Heisenberg operators
    U^dag V U, in the memory layout of U, of a (k, d, d) stack of propagators
    U, for Hermitian ``v``."""
    adjoints = u.conj().swapaxes(1, 2)
    defects = np.linalg.norm(stack_mul(adjoints, u) - np.eye(len(v), dtype=complex), axis=(1, 2))
    return defects, stack_mul(adjoints, stack_mul(v, u))


def _drift_failure(drift: float, n: int, d: int, drift_tol: float) -> DriveThermError | None:
    """The error of a non-finite unitarity drift, or of one above ``drift_tol``
    on n steps of a d-level probe; None if the drift passes."""
    if not math.isfinite(drift):
        return DriveThermError(f"unitarity drift is {drift}: the drive or V is not finite")
    if drift > drift_tol:
        return _too_coarse(f"unitarity drift {drift:.3e} exceeds {drift_tol:.1e}",
                           max(2 * n, 1), d)
    return None


def _too_coarse(reason: str, suggested: int, d: int) -> StepSizeTooCoarse:
    """The error of a grid too coarse for ``reason``: retry with ``suggested``
    steps, or, past ``max_n_steps(d)``, no grid within the cap resolves the drive."""
    if suggested > max_n_steps(d):
        return StepSizeTooCoarse(f"{reason}; no grid within the cap of {max_n_steps(d):,} "
                                 f"steps at d = {d} resolves the drive")
    return StepSizeTooCoarse(f"{reason}; retry with n_steps >= {suggested}",
                             suggested_n_steps=suggested)


def _steps(model: GibbsModel, v: np.ndarray, drive: DriveProfile, grid: TimeGrid, first: int):
    """The one step and drive path of a propagation of Hermitian ``v``: the
    weights w at every node, the (n, d, d) step exponentials S_k, the leaves
    (S_k, c_k w_k V) of the steps before node ``first`` (trapezoid weight
    c_k = dt, dt/2 at node 0), and the trace phases of the nodes
    ``first .. n``, exp(-i dt sum_{j<k} tr H_j / d), exactly exp(0) at node 0.
    A grid without steps has empty stacks."""
    if v.shape != model.h0.shape:
        raise ValueError(f"dimension mismatch: V {v.shape} vs H0 {model.h0.shape}")
    d, dt = model.dim, grid.dt
    check_n_steps(grid.n_steps, d)
    identity = np.eye(d, dtype=complex)
    # a non-finite drive value or entry of V is reported once, by the finiteness checks
    with np.errstate(all="ignore"):
        w = dlambda_dbeta(drive, grid.nodes, model.beta)
        lam_mid = lambda_at(drive, grid.nodes[:-1] + 0.5 * dt, model.beta)
        c0, cv = np.trace(model.h0).real / d, np.trace(v).real / d
        a0 = (-1j * dt) * (model.h0 - c0 * identity)
        a1 = (-1j * dt) * (v - cv * identity)
    steps = _step_exponentials(a0, a1, lam_mid)
    leaves = np.empty_like(steps[:first])
    with np.errstate(all="ignore"):
        np.multiply((dt * w[:first])[:, None, None], v, out=leaves)
        leaves[:1] *= 0.5
    phase = np.exp((-1j * dt) * np.append(0.0, np.cumsum(c0 + cv * lam_mid))[first:])
    return w, steps, leaves, phase


#: Bytes of (U, M) pairs a one-node propagation leaves to its batched finish:
#: 64 pairs at d = 2, 7 at d = 6, one from d = 16 on.
RESIDUAL_BYTES = 8192

#: Largest batch of padded residuals, in bytes of (U, M) pairs, finished together.
FINISH_BYTES = 1 << 20


def residual_pairs(d: int) -> int:
    """Pairs R a one-node propagation of a d-level probe leaves unreduced."""
    return max(1, RESIDUAL_BYTES // (2 * 16 * d * d))


class NodeResidual(NamedTuple):
    """A propagation to one node, left for a batched finish: the pairwise
    (U, M) reduction of its steps stopped at ``residual_pairs(d)`` pairs or
    fewer, the trace phase at the node, the node's half weight (dt/2) w_n,
    and the step count.  Zero steps leave no pair and a half weight of 0."""

    u: np.ndarray
    m: np.ndarray
    phase: complex
    half_weight: float
    n_steps: int


def reduce_to_node(model: GibbsModel, v: np.ndarray, drive: DriveProfile,
                   grid: TimeGrid) -> NodeResidual:
    """The record half of ``propagate(..., first=grid.n_steps)`` for Hermitian
    ``v``; ``finish_nodes`` completes it.  Raises what the steps raise."""
    n = grid.n_steps
    w, steps, leaves, phase = _steps(model, v, drive, grid, n)
    with np.errstate(all="ignore"):
        u, m = _reduce(steps, leaves, residual_pairs(model.dim))
    # a node without steps adds nothing to M, as in propagate, whatever w is there
    return NodeResidual(u, m, phase[0], 0.5 * grid.dt * w[n] if n else 0.0, n)


def finish_nodes(v: np.ndarray, residuals: list, drift_tol: float = DRIFT_TOL):
    """U and M at the node of each residual, and its unitarity drift, for
    Hermitian ``v``: bit for bit what ``propagate(..., first=n)`` holds there.

    The residuals are padded at their end, to one pair at least, with (I, 0)
    pairs, which leave the pairing tree and every product as they are, and
    finished in batches of at most ``FINISH_BYTES``.  Returns (u, m, drift)
    stacks up to the first residual that fails a guard of ``propagate``, and
    that failure (None if none fails), so that a caller can report it in order.
    """
    d = len(v)
    size = max(1, FINISH_BYTES // (2 * 16 * d * d * residual_pairs(d)))
    us, ms, drifts, failure = [], [], [], None
    for start in range(0, len(residuals), size):
        batch = residuals[start:start + size]
        p, r = len(batch), max(1, *(len(x.u) for x in batch))
        # memory order (d, d, r, p): each level's products run over the points innermost
        u = np.empty((d, d, r, p), dtype=complex).transpose(3, 2, 0, 1)
        m = np.zeros_like(u)
        u[:] = np.eye(d)
        for i, x in enumerate(batch):
            u[i, :len(x.u)], m[i, :len(x.m)] = x.u, x.m
        with np.errstate(all="ignore"):
            u, m = (x[:, 0] for x in _reduce(u, m))
        u = np.ascontiguousarray(u)  # the defect norm sums each point in propagate's order
        u *= np.array([x.phase for x in batch])[:, None, None]
        defects, heisenberg_v = _node_step(v, u)
        # M = 0 + (M_reduced + (dt/2) w_n V_H), as propagate forms it: 0 + -0 is +0
        half = np.array([x.half_weight for x in batch])[:, None, None]
        m = 0.0 + (m + half * heisenberg_v)
        bad = ~(defects <= drift_tol) | ~np.isfinite(m).all(axis=(1, 2))
        k = int(bad.argmax()) if bad.any() else p
        us.append(u[:k])
        ms.append(m[:k])
        drifts.append(defects[:k])
        if k < p:
            failure = (_drift_failure(float(defects[k]), batch[k].n_steps, d, drift_tol)
                       or DriveThermError(_M_NOT_FINITE))
            break
    return np.concatenate(us), np.concatenate(ms), np.concatenate(drifts), failure


def _step_exponentials(a0: np.ndarray, a1: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """exp(A_k) of the steps A_k = A0 + lam_k A1, for anti-Hermitian (d, d) A0
    and A1 and n real drive values lam_k, as an (n, d, d) stack; for
    d <= UNROLL_MAX_DIM its step axis is innermost in memory.

    The degree m, the squarings s and both guards read the one norm
    N = ||A0||_1 + L ||A1||_1 >= max_k ||A_k||_1, with L = max_k |lam_k|: m is
    the smallest degree with theta_m >= N, then s squarings.  The degree-m
    Taylor polynomial is expanded in mu_k = lam_k / L in [-1, 1]: with
    B0 = 2^-s A0 and B1 = 2^-s L A1,
    p_m(B0 + mu_k B1) = I + sum_j mu_k^j C_j, where C_j = sum_{i=1..m} P_{i,j}
    and P_{i,j} = (B0 P_{i-1,j} + B1 P_{i-1,j-1}) / i, P_{0,0} = I.  The whole
    stack is then one real product of the powers mu_k^j with the C_j, plus I,
    squared s times.  I is added after the product, so that the small terms
    are summed at their own scale and meet the 1 in one rounding."""
    d, n = len(a0), len(lam)
    scale = float(np.abs(lam).max(initial=0.0))
    norm = float(np.abs(a0).sum(axis=0).max()) + scale * float(np.abs(a1).sum(axis=0).max())
    if not math.isfinite(norm):
        raise DriveThermError(f"unitarity drift is nan: step norm {norm}; drive or V not finite")
    m = next((k for k, theta in enumerate(_TAYLOR_THETA, 1) if theta >= norm), 12)
    s = max(0, math.ceil(math.log2(norm / _TAYLOR_THETA[-1]))) if m == 12 else 0
    if s > _MAX_SQUARINGS:
        raise _too_coarse(f"step norm {norm:.3e} needs {s} > {_MAX_SQUARINGS} squarings",
                          n * 2 ** (s - _MAX_SQUARINGS), d)
    scale = scale or 1.0
    b0, b1 = a0 * 0.5 ** s, a1 * (scale * 0.5 ** s)
    p = np.eye(d, dtype=complex)[None]
    c = np.zeros((m + 1, d, d), dtype=complex)
    for i in range(1, m + 1):
        nxt = np.zeros((i + 1, d, d), dtype=complex)
        nxt[:-1] = b0 @ p
        nxt[1:] += b1 @ p
        p = nxt / i
        c[:i + 1] += p
    powers = np.empty((n, m + 1))
    powers[:, 0] = 1.0
    powers[:, 1] = lam / scale
    for j in range(2, m + 1):  # column by column: cumprod along the short axis is slower
        np.multiply(powers[:, j - 1], powers[:, 1], out=powers[:, j])
    # the complex C_j read as float pairs: one real (n, m+1) x (m+1, 2 d^2) product
    out = (powers @ c.reshape(m + 1, d * d).view(float)).view(complex).reshape(n, d, d)
    out = stack_innermost(out)  # as stack_mul and _chain want
    for i in range(d):
        out[:, i, i] += 1.0
    for _ in range(s):
        out = stack_mul(out, out)
    return out


def _reduce(u: np.ndarray, m: np.ndarray, keep: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Runs of (U_k, M_k) leaves along axis -3, M in the frame of the run's
    start, reduced pairwise in batched levels until at most ``keep`` pairs
    remain: segment a then b give U = U_b U_a and M = M_a + U_a^dag M_b U_a;
    an odd leaf goes up unpaired.  Leading axes are independent runs."""
    while u.shape[-3] > keep:
        n = u.shape[-3]
        h = n // 2
        ua = u[..., 0:2 * h:2, :, :]
        # the next level keeps the leaves' memory layout (see _step_exponentials)
        pu, pm = np.empty_like(u[..., :n - h, :, :]), np.empty_like(m[..., :n - h, :, :])
        pu[..., :h, :, :] = stack_mul(u[..., 1::2, :, :], ua)
        pm[..., :h, :, :] = m[..., 0:2 * h:2, :, :] + stack_mul(
            ua.conj().swapaxes(-1, -2), stack_mul(m[..., 1::2, :, :], ua))
        pu[..., h:, :, :], pm[..., h:, :, :] = u[..., 2 * h:, :, :], m[..., 2 * h:, :, :]
        u, m = pu, pm
    return u, m


def _chain(steps: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """U_0 = start (default I) and the running products U_k = S_{k-1} ... S_0 U_0
    of (n, d, d) steps.

    The steps are padded with identities into nb ~ sqrt(n) blocks of
    b ~ sqrt(n) steps.  The in-block prefixes of all blocks are formed
    together (b - 1 batched products), then each block is carried by the last
    product of the block before it (nb - 1 batched products).
    """
    n, d, _ = steps.shape
    b = math.isqrt(max(n - 1, 0)) + 1
    nb = -(-n // b)
    padded = np.empty_like(steps, shape=(1 + nb * b, d, d))
    padded[0] = padded[n + 1:] = np.eye(d)
    padded[1:n + 1] = steps
    if start is not None:  # U_0 = start; the first step, if any, carries it
        padded[0], padded[1:n + 1][:1] = start, stack_mul(steps[:1], start)
    blocks = padded[1:].reshape(nb, b, d, d)
    for j in range(1, b):
        blocks[:, j] = stack_mul(blocks[:, j], blocks[:, j - 1])
    for i in range(1, nb):
        blocks[i] = stack_mul(blocks[i], blocks[i - 1, -1])
    return padded[:n + 1]


def cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Running composite trapezoid of a node stack: out[k] = int_0^{t_k}."""
    out = np.zeros_like(values)
    np.cumsum(0.5 * dt * (values[:-1] + values[1:]), axis=0, out=out[1:])
    return out


def beta_generator(trace: EvolutionTrace) -> np.ndarray:
    """The generator A(t_k) = U^dag dU/dbeta = -i M(t_k) at the held nodes,
    anti-Hermitian stack; A(0) = 0."""
    return -1j * trace.M


def drho_dbeta_analytic(trace: EvolutionTrace, k) -> np.ndarray:
    """Analytic beta-derivative of rho(t_k): U (dpi + [A, pi0]) U^dag.

    ``k`` is one held node index, giving a (d, d) matrix, or an array of
    them, giving a stack.  Traceless Hermitian; reduces to the rotated
    equilibrium derivative when the drive is temperature-insensitive (A = 0).
    A node outside ``first .. n`` raises ``ValueError``.
    """
    k, n = np.asarray(k), trace.grid.n_steps
    if not np.all((trace.first <= k) & (k <= n)):
        raise ValueError(f"node index {k.tolist()} outside held nodes {trace.first}..{n}")
    k = k - trace.first
    return drho_dbeta_rows(trace.model, trace.propagators[k], trace.M[k])


def drho_dbeta_rows(model: GibbsModel, u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """U (dpi + [A, pi0]) U^dag, A = -i M, of (d, d) or (k, d, d) rows U and M;
    in place where it can, so that no more than four row stacks are live."""
    a = -1j * m
    inner = stack_mul(a, model.state)
    inner -= stack_mul(model.state, a)
    del a
    inner += dpi_dbeta(model)
    inner = stack_mul(u, inner)
    return stack_mul(inner, u.conj().swapaxes(-1, -2))
