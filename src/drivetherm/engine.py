"""Driven-probe sensitivity engine.

Computes the information current J_V(s) = -i J^-1_pi0([V_H(s), pi0]), the
two-time current correlation kernel K(s, u) = Tr[pi0 J_V(s) J_V(u)], and
the non-equilibrium Fisher-information increment

    I_t = Tr[pi0 (dL_t)^2]
        = integral_0^t integral_0^t w(s) w(u) K_S(s, u) ds du,

with w = dlambda/dbeta and dL_t the accumulated current.  The total
F_total = F_eq + I_t is cross-checked against the spectral Fisher
information of the evolved state, computed along an independent route.

The current is linear in V_H, so dL_t is the same fixed linear map applied
to the weighted integral M_t = int_0^t w V_H accumulated by ``propagate``:
dL_t = Q [-2i R o (Q^dag M_t Q)] Q^dag with R_ij = (p_j - p_i)/(p_i + p_j)
in the thermal eigenbasis Q.  That map of M is the primary path, and both
sides of the cross-check read the one M.  The per-node currents of a
``CurrentTrace`` check it along the kernel route, with the same quadrature:
``increment_series`` takes Tr[pi0 dL_t^2] of their running trapezoid, and
``increment_via_kernel`` the O(n^2) double sum of the kernel, which
``kernel_matrix`` writes out for visualization.

Results are columnar: ``qfi_time_series`` returns one ``QfiResult`` whose
fields are float64 arrays over the grid nodes, and ``qfi_driven`` returns
the same record with float fields at one node.
"""

from dataclasses import dataclass, fields

import numpy as np

from .bures import spectral_qfi_batch
from .drive import dlambda_dbeta
from .exceptions import FullRankViolation
from .operators import stack_mul
from .propagation import (EvolutionTrace, TimeGrid, cumulative_trapezoid,
                          drho_dbeta_analytic)
from .thermal import GibbsModel, equilibrium_qfi, equilibrium_sld

#: Test-harness hook: -1 is the physical commutator in the current; +1
#: mutates it into an anticommutator (injected sign error for mutation tests).
_COMMUTATOR_SIGN = -1.0

#: Floor in the relative-disagreement denominator (avoids 0/0 at t=0, no drive).
REL_DISAGREEMENT_FLOOR = 1e-30

#: Row-chunk size for the blocked kernel double sum.
_KERNEL_CHUNK = 256


def _current_ratio(model: GibbsModel) -> np.ndarray:
    """(p_j + sign*p_i)/(p_i + p_j) in the thermal eigenbasis (zero diagonal
    for the physical sign)."""
    p = model.probabilities
    num = p[None, :] + _COMMUTATOR_SIGN * p[:, None]
    return num / (p[:, None] + p[None, :])


def _require_full_rank(model: GibbsModel) -> None:
    if not model.full_rank:
        raise FullRankViolation(
            f"information current needs a full-rank thermal state; smallest "
            f"population {model.probabilities.min():.3e} <= rank floor "
            f"{model.rank_floor:.1e}"
        )


def information_current(model: GibbsModel, v_heisenberg: np.ndarray) -> np.ndarray:
    """Information current -i J^-1_pi0([V_H, pi0]) of a Heisenberg operator.

    Hermitian; identically zero iff V_H commutes with the thermal state; its
    diagonal in the thermal eigenbasis is exactly zero, i.e. the current
    lives entirely in the coherence sector.  Linear in V_H, and applied
    elementwise to a (..., d, d) stack.
    """
    _require_full_rank(model)
    q = model.basis
    vt = stack_mul(stack_mul(q.conj().T, v_heisenberg), q)
    jt = -2j * _current_ratio(model) * vt
    return stack_mul(stack_mul(q, jt), q.conj().T)


@dataclass(frozen=True)
class CurrentTrace:
    """Information currents and drive-sensitivity weights on a time grid."""

    grid: TimeGrid
    model: GibbsModel
    currents: np.ndarray          # (n_nodes, d, d) Hermitian
    weights: np.ndarray           # (n_nodes,)  w_k = dlambda/dbeta(t_k)

    @property
    def trapezoid_weights(self) -> np.ndarray:
        """Composite-trapezoid node coefficients on the grid."""
        n = self.grid.n_steps
        if n == 0:
            return np.zeros(1)
        c = np.full(n + 1, self.grid.dt)
        c[0] = c[-1] = 0.5 * self.grid.dt
        return c


def build_current_trace(trace: EvolutionTrace) -> CurrentTrace:
    """Currents at every node plus the weights they enter with.

    Weights vanish identically for temperature-insensitive envelopes; the
    currents may still be nonzero but then carry no Fisher information.
    """
    weights = np.atleast_1d(
        dlambda_dbeta(trace.drive, trace.grid.nodes, trace.model.beta)
    ).astype(float)
    return CurrentTrace(grid=trace.grid, model=trace.model,
                        currents=information_current(trace.model, trace.heisenberg_v),
                        weights=weights)


def _eigenbasis_currents(ct: CurrentTrace) -> np.ndarray:
    """The currents rotated into the thermal eigenbasis, Q^dag J_V Q."""
    q = ct.model.basis
    return np.einsum("ji,kjl,lm->kim", q.conj(), ct.currents, q)


def kernel_matrix(ct: CurrentTrace) -> np.ndarray:
    """Full complex kernel K(t_a, t_b) = Tr[pi0 J_V(t_a) J_V(t_b)] on the grid
    (O(n^2 d^2) memory).  K(t_b, t_a) = conj K(t_a, t_b), and the diagonal
    is real and nonnegative."""
    jt = _eigenbasis_currents(ct)
    return np.einsum("i,aij,bji->ab", ct.model.probabilities, jt, jt)


def increment_via_kernel(ct: CurrentTrace, *, return_diagnostics: bool = False):
    """Fisher increment by the double trapezoid of w(s) w(u) K_S(s, u).

    The symmetrized kernel K_S = Re K is used; the antisymmetric part drops
    out of the symmetric double sum, and its residual contribution is
    computed as a diagnostic.  Evaluated in row chunks so large grids never
    materialize the full n^2 kernel.
    """
    p = ct.model.probabilities
    jt = _eigenbasis_currents(ct)
    cw = ct.trapezoid_weights * ct.weights
    total = 0.0
    asym = 0.0
    n = jt.shape[0]
    for a0 in range(0, n, _KERNEL_CHUNK):
        a1 = min(a0 + _KERNEL_CHUNK, n)
        k_chunk = np.einsum("i,aij,bji->ab", p, jt[a0:a1], jt)
        row = cw[a0:a1]
        total += float(row @ k_chunk.real @ cw)
        asym += float(row @ k_chunk.imag @ cw)
    if return_diagnostics:
        return total, abs(asym)
    return total


def increment_series(ct: CurrentTrace) -> np.ndarray:
    """I_t = Tr[pi0 dL_t^2] at every grid node, with dL_t the running
    trapezoid of w(s) J_V(s); the same quadrature as the kernel double sum."""
    dl = cumulative_trapezoid(ct.weights[:, None, None] * ct.currents, ct.grid.dt)
    return np.real(np.einsum("ij,kjl,kli->k", ct.model.state, dl, dl))


@dataclass(frozen=True)
class QfiResult:
    """Sensitivity of the driven probe, one column per quantity.

    From ``qfi_time_series`` every field is a float64 array over the grid
    nodes; from ``qfi_driven`` every field is a float at one node.
    ``f_total = f_eq + i_t`` exactly by construction; ``f_spectral`` is the
    independent spectral evaluation on the evolved state and
    ``rel_disagreement`` their relative mismatch.  ``crb_sigma`` is the
    Cramer-Rao standard-deviation bound 1/sqrt(n * F) for the configured
    number of measurements (inf where F <= 0).  ``mixed_term_residual`` is
    |Tr[pi0 L_eq dL]|, which vanishes analytically.  Run constants (step
    count, dt, unitarity drift) live on the ``EvolutionTrace``.
    """

    t: np.ndarray
    f_eq: np.ndarray
    i_t: np.ndarray
    f_total: np.ndarray
    f_spectral: np.ndarray
    rel_disagreement: np.ndarray
    crb_sigma: np.ndarray
    mixed_term_residual: np.ndarray


def increment_at(trace: EvolutionTrace,
                 nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I_t = Tr[pi0 dL_t^2] at the given node indices, returned with the
    accumulated currents dL_t (the information current of M(t_k))."""
    dl = information_current(trace.model, trace.M[nodes])
    return np.real(np.einsum("ij,kjl,kli->k", trace.model.state, dl, dl)), dl


def _decompose(trace: EvolutionTrace, nodes: np.ndarray,
               n_measurements: int) -> QfiResult:
    """Decomposition and spectral cross-check at the given node indices.

    dL(t_k) is the information current of M(t_k) (the map is linear), and
    the spectral route reads the same M through A = -i M.
    """
    model = trace.model
    pi0 = model.state
    i_t, dl = increment_at(trace, nodes)
    mixed = np.abs(np.einsum("ij,jl,kli->k", pi0, equilibrium_sld(model), dl))

    u = trace.propagators[nodes]
    rho = stack_mul(stack_mul(u, pi0), u.conj().swapaxes(1, 2))
    f_spectral = spectral_qfi_batch(rho, drho_dbeta_analytic(trace, nodes))

    f_eq = np.full(len(nodes), equilibrium_qfi(model))
    f_total = f_eq + i_t
    rel = np.abs(f_total - f_spectral) / np.maximum(f_spectral, REL_DISAGREEMENT_FLOOR)
    crb = np.full(len(nodes), np.inf)
    informative = f_total > 0.0
    crb[informative] = 1.0 / np.sqrt(n_measurements * f_total[informative])
    return QfiResult(t=trace.grid.nodes[nodes], f_eq=f_eq, i_t=i_t, f_total=f_total,
                     f_spectral=f_spectral, rel_disagreement=rel, crb_sigma=crb,
                     mixed_term_residual=mixed)


def qfi_time_series(trace: EvolutionTrace, *,
                    n_measurements: int = 1) -> QfiResult:
    """Full decomposition and spectral cross-check at every grid node, as
    float64 columns of length ``n_nodes``."""
    return _decompose(trace, np.arange(trace.grid.n_nodes), n_measurements)


def qfi_driven(trace: EvolutionTrace, at: int | None = None, *,
               n_measurements: int = 1) -> QfiResult:
    """Decomposed QFI at a single node (default: the final one), as floats."""
    n = trace.grid.n_steps
    if at is None:
        at = n
    if not 0 <= at <= n:
        raise ValueError(f"node index {at} outside grid with {n} steps")
    column = _decompose(trace, np.array([at]), n_measurements)
    return QfiResult(*(float(getattr(column, f.name)[0]) for f in fields(QfiResult)))
