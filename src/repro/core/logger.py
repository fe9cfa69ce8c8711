"""Per-system convergence logging.

Ginkgo's batched solvers "monitor the solver convergence for each system in
the batch individually" (Section 3). The :class:`ConvergenceLogger` records,
per system, the iteration at which it converged and its final residual
norm; optionally it keeps the full residual history, which the examples use
to plot convergence and the tests use to assert monotone-ish behaviour of
CG on SPD problems.

Independently of full-history keeping, every logger maintains an
**always-on, bounded** residual curve: decimated snapshots (at most
:data:`CURVE_LIMIT` records, stride-doubling as the solve runs long)
plus a frozen-mask from guarded-divide breakdowns. This is the raw
material for the flight recorder's convergence forensics
(:mod:`repro.recorder.classify`) — cheap enough to leave on in
production, informative enough to classify breakdown / stagnation /
divergence after the fact.
"""

from __future__ import annotations

import numpy as np

#: Always-on curve bound: at most this many decimated snapshots are kept.
CURVE_LIMIT = 64


class ConvergenceLogger:
    """Records per-system iteration counts and residual norms.

    Parameters
    ----------
    num_batch:
        Number of systems being tracked.
    keep_history:
        When true, every iteration's residual-norm vector is stored
        (``history`` has shape ``(num_iterations + 1, num_batch)`` after
        the solve, including the initial residual).
    """

    def __init__(self, num_batch: int, keep_history: bool = False) -> None:
        if num_batch <= 0:
            raise ValueError(f"num_batch must be positive, got {num_batch}")
        self.num_batch = num_batch
        self.keep_history = keep_history
        self.iterations = np.zeros(num_batch, dtype=np.int64)
        self.final_residuals = np.full(num_batch, np.nan)
        self._history: list[np.ndarray] = []
        self._converged = np.zeros(num_batch, dtype=bool)
        self._frozen = np.zeros(num_batch, dtype=bool)
        # always-on bounded curve: decimated (iteration, residuals) records
        self._curve: list[np.ndarray] = []
        self._curve_iters: list[int] = []
        self._curve_stride = 1
        self._adopted_curves: list[np.ndarray] | None = None

    def log_initial(self, res_norms: np.ndarray) -> None:
        """Record the initial residual norms (iteration 0)."""
        self.final_residuals = np.asarray(res_norms, dtype=np.float64).copy()
        if self.keep_history:
            self._history.append(self.final_residuals.copy())
        self._curve = [self.final_residuals.copy()]
        self._curve_iters = [0]
        self._curve_stride = 1

    def log_iteration(self, iteration: int, res_norms: np.ndarray, active: np.ndarray) -> None:
        """Record iteration ``iteration`` for the systems still ``active``.

        Residuals of inactive (already converged) systems keep their
        converged values; active systems get their counts bumped.

        A curve snapshot is the pass's raw norms. :meth:`residual_curves`
        reads a system's entry only up to its own last active pass, and
        activity only ever shrinks, so where a snapshot is read it holds
        the system's own norm.
        """
        self.iterations[active] = iteration
        np.copyto(self.final_residuals, res_norms, where=active)
        if self.keep_history:
            res_norms = np.asarray(res_norms, dtype=np.float64)
            snapshot = self._history[-1].copy() if self._history else res_norms.copy()
            snapshot[active] = res_norms[active]
            self._history.append(snapshot)
        if iteration % self._curve_stride == 0:
            self._curve.append(np.array(res_norms, dtype=np.float64))
            self._curve_iters.append(iteration)
            if len(self._curve) > CURVE_LIMIT:
                # halve the sampling density: keep every other record (the
                # first stays), future iterations sampled at double stride
                self._curve = self._curve[::2]
                self._curve_iters = self._curve_iters[::2]
                self._curve_stride *= 2

    def mark_converged(self, mask: np.ndarray) -> None:
        """Flag systems as converged (idempotent)."""
        self._converged |= np.asarray(mask, dtype=bool)

    def mark_frozen(self, mask: np.ndarray) -> None:
        """Flag systems frozen by a guarded-divide breakdown (idempotent)."""
        self._frozen |= np.asarray(mask, dtype=bool)

    @property
    def converged(self) -> np.ndarray:
        """Boolean mask of systems that satisfied the stopping criterion."""
        return self._converged.copy()

    @property
    def frozen(self) -> np.ndarray:
        """Boolean mask of systems a guarded divide froze (breakdowns)."""
        return self._frozen.copy()

    @property
    def history(self) -> np.ndarray:
        """Residual-norm history, shape ``(records, num_batch)``.

        Raises ``RuntimeError`` when history keeping was not enabled.
        """
        if not self.keep_history:
            raise RuntimeError(
                "residual history was not recorded; construct the logger "
                "with keep_history=True"
            )
        return np.asarray(self._history)

    # -- always-on forensic curves --------------------------------------------

    def adopt_history_curves(self, history: np.ndarray, iterations: np.ndarray) -> None:
        """Adopt a device-recorded residual history as the forensic curves.

        The fused kernels log residuals into a dense ``(num_batch,
        slots)`` array (NaN-padded past each system's last iteration)
        instead of calling :meth:`log_iteration`; this installs each
        system's recorded prefix so :meth:`residual_curves` works
        identically on the kernel path.
        """
        history = np.asarray(history, dtype=np.float64)
        iterations = np.asarray(iterations, dtype=np.int64)
        self._adopted_curves = [
            history[i, : min(int(iterations[i]) + 1, history.shape[1])].copy()
            for i in range(history.shape[0])
        ]

    def residual_curves(self) -> list[np.ndarray]:
        """One bounded residual trajectory per system (always available).

        Each curve starts at the initial residual and ends at the
        system's final residual; interior samples come from the decimated
        always-on snapshots, truncated at the system's own last
        iteration (so a system that converged early does not trail its
        neighbours' progress).
        """
        if self._adopted_curves is not None:
            return [c.copy() for c in self._adopted_curves]
        if not self._curve:
            return [
                np.asarray([self.final_residuals[i]])
                for i in range(self.num_batch)
            ]
        records = np.asarray(self._curve)
        iters = np.asarray(self._curve_iters)
        curves = []
        for i in range(self.num_batch):
            keep = iters <= self.iterations[i]
            curve = records[keep, i] if keep.any() else records[:1, i]
            last_iter = iters[keep][-1] if keep.any() else 0
            if last_iter < self.iterations[i] or curve.size == 0:
                curve = np.append(curve, self.final_residuals[i])
            curves.append(curve)
        return curves

    def summary(self) -> dict:
        """Aggregate view used by the benchmark harness."""
        return {
            "num_systems": self.num_batch,
            "num_converged": int(self._converged.sum()),
            "min_iterations": int(self.iterations.min()),
            "max_iterations": int(self.iterations.max()),
            "mean_iterations": float(self.iterations.mean()),
            "max_final_residual": float(np.nanmax(self.final_residuals)),
        }
