"""Correctness gates. Each returns ``None`` when the output is right, else a reason.

The tightness gates read ``gap`` and ``bound_b`` of each frame report and
never its ``tight`` flag, so they keep their meaning if that flag changes
form. They apply the paper's threshold: a frame is tight at time t when
``gap <= 1e-9 * max(1, B)``.
"""
from __future__ import annotations

import numpy as np

ROUNDTRIP_REL_TOL = 1e-9
TIGHT_REL_TOL = 1e-9
FIEDLER_ABS_TOL = 1e-9


def _tight(report) -> bool:
    return report.gap <= TIGHT_REL_TOL * max(1.0, report.bound_b)


def roundtrip(f: np.ndarray, recovered: np.ndarray) -> str | None:
    """``||f - recovered||_inf <= 1e-9 ||f||_inf``."""
    recovered = np.asarray(recovered)
    if recovered.shape != f.shape:
        return f"reconstructed shape {recovered.shape} != signal shape {f.shape}"
    err = float(np.abs(f - recovered).max())
    scale = float(np.abs(f).max())
    if not err <= ROUNDTRIP_REL_TOL * scale:
        return f"round-trip error {err:.3e} exceeds {ROUNDTRIP_REL_TOL:g} * {scale:.3e}"
    return None


def tight_at_every_t(reports) -> str | None:
    """Vertex-transitive and strongly regular graphs: tight at every grid time."""
    for r in reports:
        if not _tight(r):
            return f"gap {r.gap:.3e} at t={r.t:g} exceeds {TIGHT_REL_TOL:g} * max(1, B={r.bound_b:.6g})"
    return None


def untight_somewhere(reports) -> str | None:
    """Random regular graphs: not tight at some grid time t > 0."""
    if any(r.t > 0 and not _tight(r) for r in reports):
        return None
    return "frame reported tight at every t > 0 on a random regular graph"


def fiedler(fiedler_value: float, laplacian: np.ndarray) -> str | None:
    """``fiedler_value`` agrees with ``np.linalg.eigvalsh`` to 1e-9."""
    reference = float(np.linalg.eigvalsh(laplacian)[1])
    if not abs(fiedler_value - reference) <= FIEDLER_ABS_TOL:
        return f"fiedler value {fiedler_value!r} differs from eigvalsh {reference!r}"
    return None
