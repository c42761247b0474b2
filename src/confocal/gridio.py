"""Serialization of grid state: columnar CSV per node plus a JSON header.

The CSV schema is stable: node multi-index, u-coordinates, then Re/Im columns
for every component of V, Lambda and R.  The JSON header carries the quadric
spec, grid, tolerances, seeds and (for leaves) the transformation provenance.
Floats are written with repr precision so identical runs produce identical
bytes.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from . import deform as df


_ROWS_PER_WRITE = 256


def quadric_header(q) -> dict:
    return {
        "kind": q.kind,
        "blocks": [{"a": [a.real, a.imag], "p": p} for a, p in q.sj.blocks],
        "n": q.n,
    }


def grid_header(grid: df.GridSpec) -> dict:
    return {"axes": [list(ax) for ax in grid.axes], "base": list(grid.base)}


def _complex_columns(name: str, values: np.ndarray):
    """Column names and Re/Im columns of a node field (nodes, *components),
    components in C order, named name + component indices."""
    names, cols = [], []
    comps = itertools.product(*map(range, values.shape[1:]))
    for comp, col in zip(comps, values.reshape(len(values), -1).T):
        tag = name + "".join(map(str, comp))
        names += [tag + "_re", tag + "_im"]
        cols += [col.real, col.imag]
    return names, cols


def _write_columns(path, names, columns):
    """CSV from whole columns, one row per entry: ints as digits, floats with
    repr precision (str of a Python float), strings bare.  Rows are formatted
    and written a block at a time, so the whole text is never held in
    memory."""
    columns = [np.asarray(col) for col in columns]
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for i in range(0, len(columns[0]), _ROWS_PER_WRITE):
            cells = [map(str, col[i:i + _ROWS_PER_WRITE].tolist()) for col in columns]
            f.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def save_fieldgrid(path, fg: df.FieldGrid, q, header_extra: dict | None = None):
    """Write <path>.csv and <path>.json for a FieldGrid."""
    path = Path(path)
    naxes = fg.grid.n
    idx = np.indices(fg.grid.shape).reshape(naxes, -1)
    names = [f"i{a}" for a in range(naxes)] + [f"u{a}" for a in range(naxes)]
    cols = list(idx) + [fg.grid.coords(a)[idx[a]] for a in range(naxes)]
    for name, values in (("V", fg.V), ("lam", fg.lam), ("R", fg.R)):
        vnames, vcols = _complex_columns(
            name, values.reshape((idx.shape[1],) + values.shape[naxes:]))
        names += vnames
        cols += vcols
    _write_columns(path.with_suffix(".csv"), names, cols)
    header = {
        "quadric": quadric_header(q),
        "grid": grid_header(fg.grid),
        "kind": q.kind,
        "meta": {k: v for k, v in fg.meta.items()
                 if isinstance(v, (int, float, str, bool))},
    }
    if header_extra:
        header.update(header_extra)
    path.with_suffix(".json").write_text(json.dumps(header, indent=2,
                                                    sort_keys=True) + "\n")


def load_fieldgrid(path) -> df.FieldGrid:
    """Rebuild a FieldGrid from <path>.csv / <path>.json, column by column:
    each node lands at its index columns and each Re/Im column is parsed
    whole into its component, so signed zeros come back as written."""
    path = Path(path)
    header = json.loads(path.with_suffix(".json").read_text())
    grid = df.GridSpec(tuple(tuple(ax) for ax in header["grid"]["axes"]),
                       tuple(header["grid"]["base"]))
    csv = path.with_suffix(".csv")
    with open(csv) as f:
        names = f.readline().strip().split(",")
    columns = dict(zip(names, np.loadtxt(csv, delimiter=",", skiprows=1,
                                         ndmin=2).T))
    nodes = tuple(columns[f"i{a}"].astype(int) for a in range(grid.n))
    n = sum(1 for c in columns if c.startswith("V") and c.endswith("_re"))

    def field(name, comps):
        out = np.zeros(grid.shape + comps, dtype=complex)
        tags = [name + "".join(map(str, c))
                for c in itertools.product(*map(range, comps))]
        for part, suffix in ((out.real, "_re"), (out.imag, "_im")):
            cols = np.stack([columns[t + suffix] for t in tags], axis=-1)
            part[nodes] = cols.reshape((-1,) + comps)
        return out

    return df.FieldGrid(grid, field("V", (n,)), field("lam", (n,)),
                        field("R", (n, n)), header.get("meta", {}))


def save_residual_csv(path, names, rows):
    """Small generic residual table: names is the column list, rows an
    iterable of tuples, written as _write_columns writes columns."""
    _write_columns(path, names, list(zip(*rows)) or [()] * len(names))


def save_lattice(dirpath, lattice, residual_rows=None):
    """Lattice export: an index file mapping multi-index -> field file, one
    CSV per lattice site (R entries only), plus optional residual tables."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    index = {}
    for key, Rf in sorted(lattice.items()):
        name = "site_" + "_".join(str(i) for i in key)
        if Rf is None:
            index[str(key)] = None
            continue
        index[str(key)] = name + ".csv"
        flat = Rf.reshape((-1,) + Rf.shape[-2:])
        names, cols = _complex_columns("R", flat)
        _write_columns(dirpath / (name + ".csv"), ["node"] + names,
                       [np.arange(len(flat))] + cols)
    (dirpath / "index.json").write_text(json.dumps(index, indent=2,
                                                   sort_keys=True) + "\n")
    if residual_rows:
        save_residual_csv(dirpath / "residuals.csv",
                          ["square", "residual"], residual_rows)
