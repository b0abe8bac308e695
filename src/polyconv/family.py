"""Matrix families A(w) = sum_i w_i A_i over the unit simplex."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .linalg import as_matrix

__all__ = ["MatrixFamily", "simplex_weights", "family_to_dict",
           "family_from_dict"]

SIMPLEX_TOL = 1e-12


def simplex_weights(w, m_count: int) -> np.ndarray:
    """Validate w as a point of the unit simplex with m_count vertices."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape[0] != m_count:
        raise InputError(
            f"weight vector has {w.shape[0]} entries, family has {m_count}")
    if not np.all(np.isfinite(w)):
        raise InputError("weights must be finite")
    if w.min() < -SIMPLEX_TOL or abs(w.sum() - 1.0) > SIMPLEX_TOL:
        raise InputError(
            f"weights must be nonnegative and sum to 1, got {w.tolist()}")
    return np.clip(w, 0.0, None)


@dataclass(frozen=True)
class MatrixFamily:
    """A finite set of equal-size square matrices with a time mode.

    mode "dt" means x(k+1) = A(w(k)) x(k); "ct" means xdot = A(w(t)) x.
    """

    mode: str
    matrices: tuple
    labels: tuple | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.mode not in ("dt", "ct"):
            raise InputError(f"mode must be 'dt' or 'ct', got {self.mode!r}")
        if len(self.matrices) < 1:
            raise InputError("family needs at least one matrix")
        mats = tuple(as_matrix(a, name=f"A{i + 1}")
                     for i, a in enumerate(self.matrices))
        n = mats[0].shape[0]
        for i, a in enumerate(mats):
            if a.shape != (n, n):
                raise InputError(
                    f"A{i + 1} has shape {a.shape}, expected ({n}, {n})")
        object.__setattr__(self, "matrices", mats)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != len(mats):
                raise InputError("label count does not match matrix count")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def m_count(self) -> int:
        return len(self.matrices)

    def a_of(self, w) -> np.ndarray:
        return self.combine(simplex_weights(w, self.m_count))

    def combine(self, w) -> np.ndarray:
        """A(w) = sum_i w_i A_i for weights that simplex_weights has
        already validated (as SwitchingSignal.schedule does); a zero
        weight adds nothing, so its term is skipped."""
        out = np.zeros((self.n, self.n))
        for wi, a in zip(w, self.matrices):
            if wi:
                out += wi * a
        return out


def family_to_dict(family: MatrixFamily) -> dict:
    doc = {"mode": family.mode,
           "matrices": [a.tolist() for a in family.matrices]}
    if family.labels is not None:
        doc["labels"] = list(family.labels)
    return doc


def family_from_dict(doc) -> MatrixFamily:
    if not isinstance(doc, dict):
        raise InputError("family document must be a JSON object")
    unknown = set(doc) - {"mode", "matrices", "labels"}
    if unknown:
        raise InputError(f"unknown family fields: {sorted(unknown)}")
    if "mode" not in doc or "matrices" not in doc:
        raise InputError("family document needs 'mode' and 'matrices'")
    return MatrixFamily(doc["mode"], tuple(doc["matrices"]),
                        tuple(doc["labels"]) if "labels" in doc else None)
