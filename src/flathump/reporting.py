"""CSV artifact writers.

Conventions shared by every output: UTF-8, LF line endings, '.' decimal
separator, 17 significant digits (full float round trip), metadata lines
prefixed with '#'.  Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import stationary


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _open(path):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_columns(path: str, header: Sequence[str], columns: Sequence[np.ndarray],
                  metadata: Mapping[str, object] | None = None) -> None:
    """Column-oriented CSV with optional '#' metadata lines."""
    cols = [np.asarray(c) for c in columns]
    with _open(path) as fh:
        if metadata:
            meta = " ".join(f"{k}={_fmt(v)}" for k, v in metadata.items())
            fh.write(f"# {meta}\n")
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_key_values(path: str, items: Iterable[tuple[str, object]],
                     metadata: Mapping[str, object] | None = None) -> None:
    """Flat key,value CSV."""
    with _open(path) as fh:
        if metadata:
            meta = " ".join(f"{k}={_fmt(v)}" for k, v in metadata.items())
            fh.write(f"# {meta}\n")
        fh.write("key,value\n")
        for key, value in items:
            fh.write(f"{key},{_fmt(value)}\n")


def write_snapshot(path: str, x: np.ndarray, u: np.ndarray, v: np.ndarray, *,
                   t: float, eps: float, preset: str, n_cells: int) -> None:
    """Solution snapshot: columns x, u, v with the run metadata line."""
    write_columns(path, ("x", "u", "v"), (x, u, v),
                  metadata={"t": t, "eps": eps, "preset": preset, "n_cells": n_cells})


def write_phase_portrait(path: str, params: stationary.PhaseParams,
                         orbit: stationary.PhaseOrbit) -> None:
    """At most 2,048 samples of a phase orbit: columns x, v, w and energy."""
    stride = -(-orbit.v.size // 2048)
    energies = np.array([stationary.energy(params, orbit.v[i], orbit.w[i])
                         for i in range(0, orbit.v.size, stride)])
    write_columns(path, ("x", "v", "w", "energy"),
                  (orbit.x[::stride], orbit.v[::stride], orbit.w[::stride], energies),
                  metadata={"v0": orbit.v0, "period": orbit.period})


def write_study(path: str, table) -> None:
    """StudyTable as CSV with metadata rows prefixed '#'."""
    with _open(path) as fh:
        fh.write(f"# study={table.kind} passed={_fmt(table.passed)}\n")
        if table.note:
            fh.write(f"# note={table.note}\n")
        for k, v in table.metadata.items():
            fh.write(f"# {k}={_fmt(v)}\n")
        fh.write(",".join(("label",) + tuple(table.columns)) + "\n")
        for row in table.rows:
            fh.write(",".join([row.label] + [_fmt(v) for v in row.values]) + "\n")
