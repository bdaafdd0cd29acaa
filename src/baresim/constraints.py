"""Constraint sets: vectorized membership predicates over R^K.

A constraint set carries a membership function evaluated on rows of an
(L, K) array and a scale A (the total mass of the affine slice the set
lives on, used by the simplex-mode inversion).  The estimators need the set
regular (the closure of its interior); that is the caller's to ensure and
is never machine-checked.

Builders cover halfspaces, boxes, affine equalities (with tolerance) and
arbitrary intersections/unions, which is enough to express every
constraint set used by the built-in problem reductions without executing
user code; ``from_predicate`` wraps a row-wise Python callable as an
escape hatch.  ``scaled`` maps a set through a diagonal change of
coordinates and keeps a leaf's row.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .divergence import _check_int
from .jsonread import (
    ConfigError, as_integer, as_list, as_number, as_numbers, as_object, as_string, field,
)

__all__ = [
    "ConstraintSet",
    "halfspace",
    "box",
    "affine_equality",
    "simplex_face",
    "intersection",
    "union",
    "full_space",
    "empty_set",
    "from_predicate",
    "scaled",
    "constraint_from_dict",
]


@dataclass(frozen=True)
class ConstraintSet:
    """Membership predicate for Omega, with scale metadata.

    ``membership`` maps an (L, K) array to an (L,) boolean array.  The
    large-deviation limit backing the estimators holds for a regular set,
    cl(Omega) = cl(int(Omega)) in the relevant topology.
    """

    membership: Callable[[np.ndarray], np.ndarray]
    scale: float = 1.0
    description: str = ""
    #: (c, rhs, op) of a one-inequality leaf {x : <c, x> op rhs}: set by
    #: ``halfspace`` (c a tuple of floats) and ``simplex_face`` (c the
    #: coordinate index k, standing for the unit vector e_k) alone, so that
    #: it always describes ``membership``; None for every other set
    row: Optional[tuple] = dataclasses.field(default=None, init=False)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        try:
            out = np.asarray(self.membership(pts), dtype=bool)
        except (IndexError, ValueError) as exc:
            # such as a coordinate index, coefficient or bound vector of another width
            raise ValueError(f"constraint set {self.description or '?'!r} cannot test "
                             f"points of width K={pts.shape[1]}: {exc}") from exc
        if out.shape != (pts.shape[0],):
            raise ValueError("membership must return one boolean per row")
        return out

    def contains_point(self, point) -> bool:
        return bool(self.contains(np.atleast_2d(np.asarray(point, dtype=float)))[0])


def _with_row(out: ConstraintSet, row: Optional[tuple]) -> ConstraintSet:
    """``out`` with its ``row`` set: the one writer of that field."""
    object.__setattr__(out, "row", row)
    return out


def _dot_rows(pts: np.ndarray, c: np.ndarray, cols=None) -> np.ndarray:
    """<c, x> of every row, summed column by column over the nonzero
    coefficients, ``cols`` when the caller found them once: unlike BLAS's
    ``pts @ c``, a row rounds alike in either memory layout and in a call
    of any size, and a sparse c (a transport marginal, a zero tilt) costs
    only its nonzero columns."""
    if pts.shape[1] != c.size:
        raise ValueError(f"{c.size} coefficients for points of width {pts.shape[1]}")
    if cols is None:
        cols = np.flatnonzero(c).tolist()
    out = pts[:, cols[0]] * c[cols[0]] if cols else np.zeros(len(pts))
    for k in cols[1:]:
        out += pts[:, k] * c[k]
    return out


def _sum_rows(pts: np.ndarray) -> np.ndarray:
    """The total of every row, added column by column: the bits of
    ``_dot_rows`` with all coefficients one, without its products.  Unlike
    ``pts.sum(axis=1)``, which sums a row of 8 or more entries pairwise in C
    order and column by column in F order, a row rounds alike in either
    layout and in a call of any size."""
    out = pts[:, 0].copy()
    for k in range(1, pts.shape[1]):
        out += pts[:, k]
    return out


_OPS = {">=": np.greater_equal, "<=": np.less_equal, ">": np.greater, "<": np.less}


def _finite(name: str, values) -> np.ndarray:
    """``values`` as floats, or ``ValueError`` when one is NaN or infinite."""
    arr = np.asarray(values, dtype=float)
    # in Python: a numpy reduction costs more than the whole test at small K
    if not all(map(math.isfinite, arr.ravel().tolist())):
        raise ValueError(f"{name} must be finite (got {values!r})")
    return arr


def halfspace(coeffs, rhs: float, op: str = ">=", **kw) -> ConstraintSet:
    """{x : <coeffs, x> op rhs} with op one of >=, <=, >, <; coefficients
    and rhs finite."""
    c = _finite("coeffs", coeffs)
    _finite("rhs", rhs)
    if op not in _OPS:
        raise ValueError(f"unknown comparison op {op!r}")
    test, cols = _OPS[op], np.flatnonzero(c).tolist()
    return _with_row(ConstraintSet(
        membership=lambda pts: test(_dot_rows(pts, c, cols), rhs),
        description=f"halfspace <c,x> {op} {rhs}",
        **kw,
    ), (tuple(c.tolist()), float(rhs), op))


def box(lower, upper, **kw) -> ConstraintSet:
    """Componentwise bounds; entries may be -inf/inf, not NaN."""
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("box bounds must not be NaN; -inf/inf leave a side open")
    if np.any(lo > hi):
        raise ValueError("lower bound exceeds upper bound")
    return ConstraintSet(
        membership=lambda pts: np.all((pts >= lo) & (pts <= hi), axis=1),
        description="box",
        **kw,
    )


def affine_equality(coeffs, rhs: float, tol: float = 1e-9, **kw) -> ConstraintSet:
    """{x : |<coeffs, x> - rhs| <= tol}, coefficients and rhs finite; the
    tolerance keeps membership stable under the floating-point block-sum
    arithmetic."""
    if not tol > 0:
        raise ValueError(f"tol must be > 0 (got {tol!r})")
    c = _finite("coeffs", coeffs)
    _finite("rhs", rhs)
    cols = np.flatnonzero(c).tolist()
    return ConstraintSet(
        membership=lambda pts: np.abs(_dot_rows(pts, c, cols) - rhs) <= tol,
        description=f"affine <c,x> = {rhs} (tol {tol})",
        **kw,
    )


def simplex_face(index: int, bound: float, op: str = ">=", **kw):
    """Convenience: one-coordinate halfspace {x : x_index op bound} with op
    one of >=, <=, ``index`` an integer >= 0 and ``bound`` finite."""
    _check_int("index", index, 0)
    _finite("bound", bound)
    if op not in (">=", "<="):
        raise ValueError(f"unknown comparison op {op!r}")
    test = _OPS[op]
    return _with_row(ConstraintSet(
        membership=lambda pts: test(pts[:, index], bound),
        description=f"x[{index}] {op} {bound}",
        **kw,
    ), (index, float(bound), op))


def _combine(sets, fold, joiner: str, kw) -> ConstraintSet:
    """The set whose membership folds its members' row by row."""
    if not sets:
        raise ValueError("need at least one set")
    kw.setdefault("scale", sets[0].scale)

    def member(pts: np.ndarray) -> np.ndarray:
        out = sets[0].contains(pts)
        for s in sets[1:]:
            fold(out, s.contains(pts), out=out)
        return out

    return ConstraintSet(
        membership=member,
        description=f" {joiner} ".join(s.description or "?" for s in sets),
        **kw,
    )


def intersection(*sets: ConstraintSet, **kw) -> ConstraintSet:
    return _combine(sets, np.logical_and, "and", kw)


def union(*sets: ConstraintSet, **kw) -> ConstraintSet:
    return _combine(sets, np.logical_or, "or", kw)


def full_space(**kw) -> ConstraintSet:
    return ConstraintSet(
        membership=lambda pts: np.ones(pts.shape[0], dtype=bool),
        description="full space",
        **kw,
    )


def empty_set(**kw) -> ConstraintSet:
    return ConstraintSet(
        membership=lambda pts: np.zeros(pts.shape[0], dtype=bool),
        description="empty set",
        **kw,
    )


def from_predicate(pred: Callable[[np.ndarray], bool], **kw) -> ConstraintSet:
    """Wrap a row-wise predicate (slow path; prefer the vector builders)."""
    return ConstraintSet(
        membership=lambda pts: np.fromiter(
            (bool(pred(row)) for row in pts), dtype=bool, count=pts.shape[0]
        ),
        **kw,
    )


def scaled(omega: ConstraintSet, d) -> ConstraintSet:
    """{x : d * x in Omega}, d one factor per coordinate, with the scale
    and description of ``omega``.  A one-inequality leaf of d's
    width keeps its row as the halfspace (d * c, rhs, op), c = e_k for a
    coordinate leaf k.  Any other set tests Omega at d * x, which refuses a
    row of another width at the first test."""
    d = np.asarray(d, dtype=float)
    if omega.row is not None:
        leaf = _scaled_row(omega.row, tuple(d.tolist()), omega.scale, omega.description)
        if leaf is not None:
            return leaf
    return ConstraintSet(membership=lambda pts: omega.membership(pts * d), scale=omega.scale,
                         description=omega.description)


def _scaled_row(row: tuple, d: tuple, scale: float, description: str):
    """``scaled`` of a one-inequality leaf given by its row (c, rhs, op) alone:
    the halfspace (d * c, rhs, op), c = e_k for a coordinate leaf k, with
    ``scale`` and ``description``; None where c is not of d's width.  Its
    arguments are values, so that a frame can memoise it by them."""
    c, rhs, op = row
    if isinstance(c, (int, np.integer)):  # a coordinate past d fits no width
        c = np.eye(len(d))[c] if c < len(d) else ()
    if len(c) != len(d):
        return None
    leaf = halfspace(np.array(d) * np.asarray(c, dtype=float), rhs, op)
    return _with_row(replace(leaf, scale=scale, description=description), leaf.row)


def constraint_from_dict(spec, path: str = "constraint") -> ConstraintSet:
    """Build a constraint set from its JSON config form; ``path`` is where
    the form sits in the config, named by every error.

    Leaf forms: {"type": "halfspace", "coeffs": [...], "rhs": r, "op": ">="},
    {"type": "box", "lower": [...], "upper": [...]},
    {"type": "affine_eq", "coeffs": [...], "rhs": r, "tol": 1e-9},
    {"type": "coordinate", "index": k, "bound": b, "op": ">="}.
    Combinators: {"type": "all"/"any", "parts": [...]}.
    Optional top-level keys: "scale", "description".
    A key that the form's type does not read is an error.
    """
    spec = as_object(spec, path)
    used = set()

    def get(key, read, *default):
        used.add(key)
        return field(spec, key, read, *default, path=path)

    meta = {"scale": get("scale", as_number, 1.0)}
    description = get("description", as_string, None)
    kind = get("type", as_string)
    if kind == "halfspace":
        out = halfspace(get("coeffs", as_numbers), get("rhs", as_number),
                        get("op", as_string, ">="), **meta)
    elif kind == "box":
        out = box(get("lower", as_numbers), get("upper", as_numbers), **meta)
    elif kind == "affine_eq":
        out = affine_equality(get("coeffs", as_numbers), get("rhs", as_number),
                              get("tol", as_number, 1e-9), **meta)
    elif kind == "coordinate":
        out = simplex_face(get("index", as_integer), get("bound", as_number),
                           get("op", as_string, ">="), **meta)
    elif kind in ("all", "any"):
        parts = [constraint_from_dict(p, f"{path}/parts/{i}")
                 for i, p in enumerate(get("parts", as_list))]
        combo = intersection if kind == "all" else union
        out = combo(*parts, **meta)
    else:
        raise ValueError(f"{path}/type: unknown constraint type {kind!r}")
    unknown = sorted(set(spec) - used)
    if unknown:
        raise ConfigError(f"{path}/{unknown[0]}: a {kind!r} constraint takes no key "
                          f"{unknown[0]!r}")
    return out if description is None else _with_row(replace(out, description=description),
                                                     out.row)
