"""Driven-probe sensitivity engine.

Computes the information current J_V(s) = -i J^-1_pi0([V_H(s), pi0]), the
two-time current correlation kernel K(s, u) = Tr[pi0 J_V(s) J_V(u)], and
the non-equilibrium Fisher-information increment

    I_t = Tr[pi0 (dL_t)^2]
        = integral_0^t integral_0^t w(s) w(u) K_S(s, u) ds du,

with w = dlambda/dbeta and dL_t the accumulated current.  The total
F_total = F_eq + I_t is cross-checked against the spectral Fisher
information of the evolved state, computed along an independent route.

J^-1 is applied in one frame: ``_coherences`` maps an operator X to
-2i R o (Q^dag X Q), R_ij = (p_j - p_i)/(p_i + p_j), in the thermal
eigenbasis Q, and is the only rotation into that basis.  The current is
linear in V_H, so the accumulated current is that map of the weighted
integral M_t = int_0^t w V_H kept by ``propagate``, and there
I_t = sum_i p_i sum_j |dL~_ij|^2 is a sum of squares.  Both sides of the
cross-check read the one M.  The kernel route reads the same trace:
``kernel_matrix`` takes Heisenberg operators, such as those at the
``kernel_nodes`` that ``simulate`` writes and ``validate`` checks, and
``increment_via_kernel`` the O(n^2) double sum with the same quadrature.
``CurrentTrace``, ``build_current_trace`` and ``increment_series``
(Tr[pi0 dL_t^2] of the running trapezoid of the per-node lab-frame
currents) are the reference route the tests compare against; perfbench
resolves them by name.

``_decompose`` reads (k, d, d) rows of U and M under one Gibbs model, such
as a scan's kept rows.  ``qfi_time_series`` returns its ``QfiResult`` of
float64 columns over a trace's held nodes, ``qfi_driven`` floats at one.
"""

from typing import NamedTuple

import numpy as np

from .bures import spectral_qfi_batch
from .exceptions import DriveThermError, FullRankViolation
from .operators import stack_mul
from .propagation import (EvolutionTrace, TimeGrid, cumulative_trapezoid,
                          drho_dbeta_rows)
from .thermal import GibbsModel, equilibrium_qfi, equilibrium_sld

#: Floor in the relative-disagreement denominator (avoids 0/0 at t=0, no drive).
REL_DISAGREEMENT_FLOOR = 1e-30

#: Largest dual-path mismatch ``rel_disagreement`` a written result may carry.
DUAL_PATH_TOL = 1e-6

#: Row-chunk size for the blocked kernel double sum.
_KERNEL_CHUNK = 256

#: Kernel visualization output is decimated to at most this many grid nodes.
KERNEL_MAX_NODES = 241

#: Rows per ``_decompose`` call in ``qfi_time_series``; a block's stacks stay
#: in cache between its products.
_DECOMPOSE_ROWS = 4096


def _coherences(model: GibbsModel, x: np.ndarray) -> np.ndarray:
    """The current of X in the thermal eigenbasis, -2i R o (Q^dag X Q), of a
    (d, d) operator or a (..., d, d) stack; needs a full-rank state."""
    if not model.full_rank:
        raise FullRankViolation(
            f"information current needs a full-rank thermal state; smallest "
            f"population {model.probabilities.min():.3e} <= rank floor "
            f"{model.rank_floor:.1e}"
        )
    p, q = model.probabilities, model.basis
    ratio = (p[None, :] - p[:, None]) / (p[:, None] + p[None, :])  # zero diagonal
    return -2j * ratio * stack_mul(stack_mul(q.conj().T, x), q)


def information_current(model: GibbsModel, v_heisenberg: np.ndarray) -> np.ndarray:
    """Information current -i J^-1_pi0([V_H, pi0]) of a Heisenberg operator.

    Hermitian; identically zero iff V_H commutes with the thermal state; its
    diagonal in the thermal eigenbasis is exactly zero, i.e. the current
    lives entirely in the coherence sector.  Linear in V_H, and applied
    elementwise to a (..., d, d) stack.
    """
    q = model.basis
    return stack_mul(stack_mul(q, _coherences(model, v_heisenberg)), q.conj().T)


class CurrentTrace(NamedTuple):
    """Information currents and drive-sensitivity weights on a time grid."""

    grid: TimeGrid
    model: GibbsModel
    currents: np.ndarray          # (n_nodes, d, d) Hermitian
    weights: np.ndarray           # (n_nodes,)  w_k = dlambda/dbeta(t_k)


def build_current_trace(trace: EvolutionTrace) -> CurrentTrace:
    """Currents at every node of a trace held from node 0, with their weights.

    Weights vanish identically for temperature-insensitive envelopes; the
    currents may still be nonzero but then carry no Fisher information.
    """
    if trace.first:
        raise ValueError(f"trace held from node {trace.first}, not from node 0")
    return CurrentTrace(grid=trace.grid, model=trace.model,
                        currents=information_current(trace.model, trace.heisenberg_v),
                        weights=trace.weights)


def kernel_matrix(model: GibbsModel, v_heisenberg: np.ndarray) -> np.ndarray:
    """Full complex kernel K(t_a, t_b) = Tr[pi0 J_V(t_a) J_V(t_b)] of the
    currents of an (n, d, d) stack of Heisenberg operators (O(n^2 d^2)
    memory).  K(t_b, t_a) = conj K(t_a, t_b), and the diagonal is real and
    nonnegative."""
    jt = _coherences(model, v_heisenberg)
    return np.einsum("i,aij,bji->ab", model.probabilities, jt, jt)


def kernel_nodes(n_steps: int) -> np.ndarray:
    """Both ends and evenly spread nodes between, at most KERNEL_MAX_NODES: the
    nodes whose kernel ``simulate`` writes and ``validate`` checks (all n would
    raise peak memory).  At least one step apart, so distinct and increasing
    once rounded (``np.unique`` would import numpy.ma, ~12 ms)."""
    k = min(n_steps + 1, KERNEL_MAX_NODES)
    return np.rint(np.linspace(0, n_steps, k)).astype(int)


def increment_via_kernel(trace: EvolutionTrace) -> tuple[float, float, float]:
    """Fisher increment by the double trapezoid of w(s) w(u) K_S(s, u) over the
    grid of a trace held from node 0, returned with the antisymmetric residual
    and the sum of the absolute terms of the double sum, its round-off scale.

    The symmetrized kernel K_S = Re K is used; the antisymmetric part drops
    out of the symmetric double sum, and its residual contribution is
    returned as a diagnostic.  Evaluated in row chunks so large grids never
    materialize the full n^2 kernel.
    """
    if trace.first:
        raise ValueError(f"trace held from node {trace.first}, not from node 0")
    p = trace.model.probabilities
    jt = _coherences(trace.model, trace.heisenberg_v)
    cw = trace.grid.dt * trace.weights  # times the composite-trapezoid node coefficients
    cw[[0, -1]] *= 0.5
    total = 0.0
    asym = 0.0
    scale = 0.0
    for a0 in range(0, len(jt), _KERNEL_CHUNK):
        k_chunk = np.einsum("i,aij,bji->ab", p, jt[a0:a0 + _KERNEL_CHUNK], jt)
        row = cw[a0:a0 + _KERNEL_CHUNK]
        total += float(row @ k_chunk.real @ cw)
        asym += float(row @ k_chunk.imag @ cw)
        scale += float(np.abs(row) @ np.abs(k_chunk.real) @ np.abs(cw))
    return total, abs(asym), scale


def increment_series(ct: CurrentTrace) -> np.ndarray:
    """I_t = Tr[pi0 dL_t^2] at every grid node, with dL_t the running
    trapezoid of w(s) J_V(s); the same quadrature as the kernel double sum."""
    dl = cumulative_trapezoid(ct.weights[:, None, None] * ct.currents, ct.grid.dt)
    return np.real(np.einsum("ij,kjl,kli->k", ct.model.state, dl, dl))


class QfiResult(NamedTuple):
    """Sensitivity of the driven probe, one column per quantity.

    From ``qfi_time_series`` every field is a float64 array over the grid
    nodes; from ``qfi_driven`` every field is a float at one node.
    ``f_total = f_eq + i_t`` exactly by construction; ``f_spectral`` is the
    independent spectral evaluation on the evolved state and
    ``rel_disagreement`` their relative mismatch.  ``mixed_term_residual``
    is |Tr[pi0 L_eq dL]|, which vanishes analytically.  Run constants (step
    count, dt, unitarity drift) live on the ``EvolutionTrace``.
    """

    t: np.ndarray
    f_eq: np.ndarray
    i_t: np.ndarray
    f_total: np.ndarray
    f_spectral: np.ndarray
    rel_disagreement: np.ndarray
    mixed_term_residual: np.ndarray


def increment_at(model: GibbsModel, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I_t = sum_i p_i sum_j |dL~_ij|^2 of a (k, d, d) stack of weighted
    integrals M(t), returned with the accumulated currents dL~ = _coherences(M)
    in the thermal eigenbasis.  A sum of squares, so never negative; reduced
    row by row, so a row's value does not depend on the other rows."""
    dlt = _coherences(model, m)
    return ((dlt.real**2 + dlt.imag**2).sum(2) * model.probabilities).sum(1), dlt


def _decompose(model: GibbsModel, u: np.ndarray, m: np.ndarray, t: np.ndarray) -> QfiResult:
    """Decomposition and spectral cross-check of (k, d, d) rows U(t) and M(t)
    taken under one Gibbs ``model``, at the k times ``t``.

    dL(t) is the information current of M(t) (the map is linear); the mixed
    term reads it in the lab frame, where it does not vanish identically, and
    the spectral route reads the same M through A = -i M.  Each row is
    reduced on its own, so a row's values do not depend on the other rows.
    """
    q, pi0 = model.basis, model.state
    # spectral route first, while no current is held
    rho = stack_mul(stack_mul(u, pi0), u.conj().swapaxes(1, 2))
    f_spectral = spectral_qfi_batch(rho, drho_dbeta_rows(model, u, m))

    i_t, dlt = increment_at(model, m)
    dl = stack_mul(stack_mul(q, dlt), q.conj().T)
    mixed = np.abs(np.einsum("ij,jl,kli->k", pi0, equilibrium_sld(model), dl))

    f_eq = np.full(len(t), equilibrium_qfi(model))
    f_total = f_eq + i_t
    rel = np.abs(f_total - f_spectral) / np.maximum(f_spectral, REL_DISAGREEMENT_FLOOR)
    return QfiResult(t=t, f_eq=f_eq, i_t=i_t, f_total=f_total, f_spectral=f_spectral,
                     rel_disagreement=rel, mixed_term_residual=mixed)


def check_dual_path(rel: float, where: str) -> None:
    """Raise :class:`DriveThermError` if the mismatch ``rel`` at ``where``
    exceeds :data:`DUAL_PATH_TOL` (or is NaN)."""
    if not rel <= DUAL_PATH_TOL:
        raise DriveThermError(
            f"dual-path mismatch {rel:.3e} at {where} exceeds {DUAL_PATH_TOL:.0e}: "
            "F_eq + I_t and F_spectral disagree (populations below the spectral "
            "route's cutoff cannot be resolved)")


def qfi_time_series(trace: EvolutionTrace) -> QfiResult:
    """Full decomposition and spectral cross-check at every held node, as
    float64 columns of length ``n_nodes - first``.  The rows are decomposed
    in blocks of ``_DECOMPOSE_ROWS``; each row is reduced on its own, so the
    blocks change no value."""
    t = trace.grid.nodes[trace.first:]
    blocks = [_decompose(trace.model, trace.propagators[k:k + _DECOMPOSE_ROWS],
                         trace.M[k:k + _DECOMPOSE_ROWS], t[k:k + _DECOMPOSE_ROWS])
              for k in range(0, len(t), _DECOMPOSE_ROWS)]
    return QfiResult._make(np.concatenate(c) for c in zip(*blocks))


def qfi_driven(trace: EvolutionTrace, at: int | None = None) -> QfiResult:
    """Decomposed QFI at a single held node (default: the final one), as floats."""
    n = trace.grid.n_steps
    if at is None:
        at = n
    if not trace.first <= at <= n:
        raise ValueError(f"node index {at} outside held nodes {trace.first}..{n}")
    k = [at - trace.first]
    column = _decompose(trace.model, trace.propagators[k], trace.M[k], trace.grid.nodes[[at]])
    return QfiResult._make(float(c[0]) for c in column)
