"""Serialization round-trips, CLI scenario plumbing, exit codes, determinism,
and plot-data emission."""

import ast
import contextlib
import io
import json
import pstats
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confocal import backlund as bk, cli, deform as df, gridio, permute as pm, scenarios as sc
from confocal.errors import ConfigError, MissingRun, MultipleRoot
from confocal.sjcore import random_orthogonal


class TestGridIO:
    def test_fieldgrid_roundtrip(self, soliton32, qwc2, tmp_path):
        gridio.save_fieldgrid(tmp_path / "state", soliton32, qwc2)
        back = gridio.load_fieldgrid(tmp_path / "state")
        assert np.array_equal(back.V, soliton32.V)
        assert np.array_equal(back.lam, soliton32.lam)
        assert np.array_equal(back.R, soliton32.R)
        assert back.grid == soliton32.grid

    def test_header_contents(self, soliton32, qwc2, tmp_path):
        gridio.save_fieldgrid(tmp_path / "state", soliton32, qwc2,
                              {"provenance": {"z": [0.3, 0.1]}})
        header = json.loads((tmp_path / "state.json").read_text())
        assert header["quadric"]["kind"] == "QWC"
        assert header["provenance"]["z"] == [0.3, 0.1]

    def test_csv_byte_identical(self, soliton32, qwc2, tmp_path):
        gridio.save_fieldgrid(tmp_path / "a", soliton32, qwc2)
        gridio.save_fieldgrid(tmp_path / "b", soliton32, qwc2)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_fieldgrid_csv_equals_per_row_writer(self, soliton32, qwc2, tmp_path):
        # 13 * 9 * 11 nodes: more than one block of rows per write
        grid = df.GridSpec(((0.0, 0.3, 13), (-1.0, 2.0, 9), (0.1, 0.7, 11)), (1, 2, 0))
        rng = np.random.default_rng(3)

        def cplx(*s):
            return (rng.standard_normal(s) * 10.0 ** rng.integers(-300, 300, s)
                    + 1j * rng.standard_normal(s))

        fg3 = df.FieldGrid(grid, cplx(13, 9, 11, 3), cplx(13, 9, 11, 3),
                           cplx(13, 9, 11, 3, 3))
        fg3.V[0, 0, 0] = complex(-0.0, 0.0)
        for name, fg in (("n2", soliton32), ("n3", fg3)):
            gridio.save_fieldgrid(tmp_path / name, fg, qwc2)
            assert ((tmp_path / f"{name}.csv").read_text()
                    == fieldgrid_csv_per_row(fg))
        back = gridio.load_fieldgrid(tmp_path / "n3")
        for f in ("V", "lam", "R"):
            assert np.array_equal(getattr(back, f), getattr(fg3, f))
        assert np.signbit(back.V[0, 0, 0].real).all()   # the -0.0 set above
        assert back.grid == grid

    def test_lattice_csv_equals_per_row_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        big = (50, 41, 2, 2)   # more than one block of rows per write
        lattice = {(0, 0): rng.standard_normal(big) + 1j * rng.standard_normal(big),
                   (0, 1): None,
                   (1, 0): rng.standard_normal((6, 3, 3)) + 0j}
        gridio.save_lattice(tmp_path, lattice)
        index = json.loads((tmp_path / "index.json").read_text())
        assert index == {"(0, 0)": "site_0_0.csv", "(0, 1)": None,
                         "(1, 0)": "site_1_0.csv"}
        for key in ((0, 0), (1, 0)):
            name = "site_" + "_".join(map(str, key)) + ".csv"
            assert (tmp_path / name).read_text() == lattice_csv_per_row(lattice[key])


def _fmt(x):
    return repr(float(x))


def fieldgrid_csv_per_row(fg):
    """The node-by-node CSV layout of save_fieldgrid."""
    n, naxes = fg.n, fg.grid.n
    cols = [f"i{a}" for a in range(naxes)] + [f"u{a}" for a in range(naxes)]
    for name in ("V", "lam"):
        for c in range(n):
            cols += [f"{name}{c}_re", f"{name}{c}_im"]
    for a in range(n):
        for b in range(n):
            cols += [f"R{a}{b}_re", f"R{a}{b}_im"]
    lines = [",".join(cols)]
    coords = [fg.grid.coords(a) for a in range(naxes)]
    for idx in np.ndindex(*fg.grid.shape):
        row = [str(i) for i in idx] + [_fmt(coords[a][idx[a]]) for a in range(naxes)]
        for f in (fg.V, fg.lam):
            for c in range(n):
                row += [_fmt(f[idx][c].real), _fmt(f[idx][c].imag)]
        for a in range(n):
            for b in range(n):
                row += [_fmt(fg.R[idx][a, b].real), _fmt(fg.R[idx][a, b].imag)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def lattice_csv_per_row(Rf):
    """The node-by-node CSV layout of one save_lattice site."""
    n = Rf.shape[-1]
    cols = [f"R{a}{b}_{part}" for a in range(n) for b in range(n)
            for part in ("re", "im")]
    lines = [",".join(["node"] + cols)]
    for i, M in enumerate(Rf.reshape(-1, n, n)):
        lines.append(",".join([str(i)] + [_fmt(v) for a in range(n) for b in range(n)
                                          for v in (M[a, b].real, M[a, b].imag)]))
    return "\n".join(lines) + "\n"


N1_QWC = {"kind": "QWC", "blocks": [{"a": [1.0, 0.0], "p": 1}]}
N1_QC = {"kind": "QC", "blocks": [{"a": [1.0, 0.0], "p": 1},
                                  {"a": [0.5, 0.1], "p": 1}]}
INF, NAN = float("inf"), float("nan")   # json writes Infinity and NaN

# Malformed values per top-level config key, each invalid for every scenario:
# wrong types, wrong shapes and out-of-range values.  Counts and grids stay
# small, so that nothing large is allocated even before validation rejects
# them.  An integer field also rejects a bool and a fractional float, which
# int() would truncate to a valid count.
_NOT_NUMBER = st.sampled_from(["x", "", "1e", None, [], [1.0], {}, {"v": 1}])
_NON_FINITE = st.sampled_from([INF, -INF, NAN, "inf", "nan"])
_NOT_INTEGER = st.one_of(
    st.booleans(),
    st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer()))
_NOT_OBJECT = st.one_of(st.integers(), st.text(max_size=4), st.none(),
                        st.lists(st.integers(), max_size=2))
_AXIS = [0.0, 0.3, 6]
_BAD_AXIS = st.one_of(
    st.integers(-3, 4).map(lambda s: [0.0, 0.3, s]),           # < 5 nodes
    st.floats(-1.0, 1.0).map(lambda a: [a, a - 0.5, 6]),        # decreasing
    _NON_FINITE.map(lambda v: [0.0, v, 6]),
    st.one_of(_NOT_NUMBER, _NOT_INTEGER).map(lambda v: [0.0, 0.3, v]),
    st.sampled_from([[0.0, 0.3], [0.0, 0.3, 6, 6], [], 6]))
_BAD_GRID = st.one_of(
    _NOT_OBJECT, st.just({}), st.just({"axes": 3}),
    _BAD_AXIS.map(lambda ax: {"axes": [_AXIS, ax]}),
    st.sampled_from([[0, 6], [0], [0, 0, 0], [-1, 0], "ab", 5, [0, 1.5],
                     [True, 0]]).map(
        lambda base: {"axes": [_AXIS, _AXIS], "base": base}))
_BLOCK = {"a": [1.0, 0.0], "p": 1}
_BAD_BLOCK = st.one_of(
    st.sampled_from([{"p": 1}, {"a": [1.0, 0.0]}, 3, "ab", None, [1.0, 0.0]]),
    _NOT_NUMBER.map(lambda a: {"a": a, "p": 1}),
    _NON_FINITE.map(lambda v: {"a": [v, 0.0], "p": 1}),
    st.one_of(st.integers(max_value=0), _NOT_NUMBER, _NOT_INTEGER).map(
        lambda p: {"a": [1.0, 0.0], "p": p}))
_BAD_QUADRIC = st.one_of(
    _NOT_OBJECT, st.just({"blocks": [_BLOCK]}),
    st.text(max_size=5).filter(lambda k: k not in ("QC", "QWC", "IQWC")).map(
        lambda k: {"kind": k, "blocks": [_BLOCK]}),
    st.tuples(st.sampled_from(["QC", "QWC", "IQWC"]), _BAD_BLOCK).map(
        lambda kb: {"kind": kb[0], "blocks": [_BLOCK, kb[1]]}),
    st.one_of(st.integers(max_value=1), _NOT_NUMBER, _NOT_INTEGER).map(
        lambda p: {"kind": "IQWC", "p": p}),
    st.sampled_from([
        {"kind": "QC", "blocks": [{"a": [0.0, 0.0], "p": 1}, _BLOCK]},
        {"kind": "IQWC", "p": 2, "blocks": [{"a": [0.0, 0.0], "p": 1}]},
        {"kind": "QWC", "blocks": {"a": [1.0, 0.0], "p": 1}},
        # n < 1: a QC in C^1 or none at all, a QWC with only its kernel
        {"kind": "QC", "blocks": []}, {"kind": "QC", "blocks": [_BLOCK]},
        {"kind": "QWC", "blocks": []}]))
_BAD_COUNT = st.one_of(st.integers(max_value=0), st.floats(max_value=0.99),
                       _NOT_NUMBER, _NON_FINITE, _NOT_INTEGER)
_BAD_Z = st.one_of(
    st.integers(), st.floats(), st.just(""), st.just({}),
    st.sampled_from([[1.0, 2.0, 3.0], [], "x", None, [0.0, 0.0], 0.0,
                     [NAN, 0.0], [INF, 0.0], [0.31, 0.12], {"re": 1.0}]).map(
        lambda bad: [[0.31, 0.12], bad]))
_BAD_TOLERANCES = st.one_of(
    st.lists(st.floats(), max_size=2), st.text(max_size=3), st.integers(),
    st.text(max_size=8).filter(lambda k: k not in cli.TOLERANCES).map(
        lambda k: {k: 1e-3}),
    st.one_of(st.floats(max_value=0.0), _NOT_NUMBER, _NON_FINITE).map(
        lambda v: {"ivory_identities": v}))
_MALFORMED = {
    "scenario": st.one_of(
        st.text(max_size=12).filter(lambda s: s not in cli.SCENARIOS),
        st.integers(), st.none(), st.lists(st.integers(), max_size=2)),
    "quadric": _BAD_QUADRIC,
    "grid": _BAD_GRID,
    "z": _BAD_Z,
    "samples": _BAD_COUNT,
    "lame_samples": _BAD_COUNT,
    "fields": _BAD_COUNT,
    "seeds": st.one_of(
        _NOT_OBJECT,
        st.one_of(st.integers(max_value=-1), _NOT_NUMBER, _NON_FINITE,
                  _NOT_INTEGER).map(lambda m: {"master": m})),
    "lam_theta": st.one_of(_NOT_NUMBER, _NON_FINITE),
    "extent": st.one_of(
        st.integers(), st.sampled_from(["ab", "x", " "]),
        st.integers(max_value=1).map(lambda e: [3, e]),
        st.one_of(_NOT_NUMBER, _NOT_INTEGER).map(lambda e: [3, e])),
    "tol_scale": st.one_of(st.floats(max_value=0.0), _NOT_NUMBER, _NON_FINITE),
    "tolerances": _BAD_TOLERANCES,
}
# every key a config may have is a key of _MALFORMED
_UNKNOWN_KEY = st.text(max_size=10).filter(lambda k: k not in _MALFORMED)


def _reject_runner(*_args):
    raise AssertionError("a malformed config reached its scenario runner")


def _exit_and_stderr(cfg) -> tuple:
    """cli.main's exit code and stderr on cfg, written as a JSON file; a
    config that passes validation fails the caller at its runner."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(cli.RUNNERS,
                            dict.fromkeys(cli.RUNNERS, _reject_runner)), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["run", "--config", str(path), "--out",
                       str(Path(tmp) / "out")])
        written = (Path(tmp) / "out").exists()
    return rc, err.getvalue(), written


class TestConfigValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            cli.validate_config({"scenario": "nope"})

    def test_equal_z_rejected(self):
        with pytest.raises(ConfigError):
            cli.validate_config({"scenario": "bpt",
                                 "z": [[0.3, 0.1], [0.3, 0.1]]})

    def test_m3_needs_three(self):
        with pytest.raises(ConfigError):
            cli.validate_config({"scenario": "m3", "z": [[0.3, 0.1],
                                                         [0.2, 0.0]]})

    # "sj_commute" is one of the keys no check read, retired from the table
    @pytest.mark.parametrize("key", ["bogus", "sj_commute"])
    def test_unknown_tolerance(self, key):
        with pytest.raises(ConfigError):
            cli.validate_config({"scenario": "ivory-check",
                                 "tolerances": {key: 1e-3}})

    def test_negative_tolerance(self):
        with pytest.raises(ConfigError):
            cli.validate_config({"scenario": "ivory-check",
                                 "tolerances": {"ivory_identities": -1.0}})

    def test_bad_quadric(self):
        with pytest.raises(ConfigError):
            cli._parse_quadric({"kind": "QC", "blocks": [{"a": [0, 0], "p": 1}]})

    @pytest.mark.parametrize("cfg", [
        {"scenario": "sine-gordon", "fields": 0},
        {"scenario": "ivory-check", "samples": "abc"},
        {"scenario": "ivory-check", "lame_samples": 0},
        {"scenario": "ivory-check", "seeds": 5},
        {"scenario": "ivory-check", "z": 5},
        {"scenario": "ivory-check", "tol_scale": "x"},
        {"scenario": "ivory-check", "tolerances": [1e-3]},
        {"scenario": "ivory-check", "quadric": {"kind": "QWC", "blocks": [{"p": 1}]}},
        {"scenario": "deform-0soliton", "lam_theta": "x"},
        ["ivory-check"],
        {"scenario": "lattice", "extent": [1, 3]},
        {"scenario": "backlund-qwc", "grid": {"axes": [[0.0, 0.3, 4]] * 2}},
        {"scenario": "leaf-embed", "grid": {"axes": [[0.0, 0.3, 3]] * 2}},
        {"scenario": "bpt", "grid": {"axes": [[0.0, 0.3, 4]] * 2}},
        {"scenario": "lattice", "grid": {"axes": [[0.0, 0.3, 3]] * 2}},
        {"scenario": "m3", "grid": {"axes": [[0.0, 0.3, 4]] * 2}},
        {"scenario": "deform-0soliton", "grid": {"axes": [[0.0, 0.3, 4]] * 2}},
        {"scenario": "m3", "quadric": cli._QC_DEFAULT},
        {"scenario": "lattice", "quadric": cli._QC_DEFAULT},
        {"scenario": "deform-0soliton", "grid": {"axes": [[0.0, 0.3, 6]] * 3}},
        {"scenario": "bpt", "grid": {"axes": [[0.0, 0.3, 6]] * 3}},
        {"scenario": "leaf-embed", "grid": {"axes": [[0.0, 0.3, 6]]}},
        {"scenario": "sine-gordon", "grid": {"axes": [[0.0, 0.3, 6]] * 3}},
        {"scenario": "ivory-check", "seeds": {"master": -1}},
        {"scenario": "elliptic", "seeds": {"master": -1}},
        {"scenario": "ivory-check", "quadric": N1_QWC},
        {"scenario": "ivory-check", "quadric": N1_QC},
        {"scenario": "deform-0soliton", "quadric": N1_QWC,
         "grid": {"axes": [[0.0, 0.3, 6]]}},
        {"scenario": "lattice", "quadric": N1_QWC},
        {"scenario": "ivory-check", "tolerances": {"ivory_identities": INF}},
        {"scenario": "ivory-check", "tol_scale": INF},
        {"scenario": "bpt", "z": [[NAN, 0.0], [-0.2, 0.25]]},
        {"scenario": "deform-0soliton", "lam_theta": NAN},
        {"scenario": "deform-0soliton", "grid": {"axes": [[0.0, INF, 6]] * 2}},
        {"scenario": "deform-0soliton", "grid": {"axes": [[0.0, 0.3, INF]] * 2}},
        {"scenario": "ivory-check", "samples": INF},
        # enough distinct z values, but one repeated: a transform superposed
        # with itself makes the bpt checks read 0
        {"scenario": "bpt", "z": [[0.31, 0.12], [0.31, 0.12], [-0.2, 0.25]]},
        {"scenario": "lattice", "z": [[0.31, 0.12], [-0.2, 0.25], [0.31, 0.12]],
         "extent": [2, 2, 2]},
        {"scenario": "backlund-qwc", "z": [[0.31, 0.12], [0.31, 0.12]]},
        {"scenario": "backlund-qc", "quadric": cli._DEFAULTS["quadric"]},
        # z = 0 has no transformation, also where the scenario ignores z
        {"scenario": "backlund-qwc", "z": [[0.0, 0.0]]},
        {"scenario": "backlund-qc", "z": [0.0]},
        {"scenario": "leaf-embed", "z": [[0.0, -0.0]]},
        {"scenario": "bpt", "z": [[0.31, 0.12], [0.0, 0.0]]},
        {"scenario": "m3", "z": [[0.31, 0.12], [-0.2, 0.25], [0.0, 0.0]]},
        {"scenario": "lattice", "z": [[0.0, 0.0], [-0.2, 0.25]]},
        {"scenario": "ivory-check", "z": [0.0]},
        # elliptic coordinates need one SJ block per eigenvalue
        {"scenario": "elliptic", "quadric": {"kind": "QC", "blocks": [
            {"a": [1, 0], "p": 1}, {"a": [1, 0], "p": 1}]}},
        {"scenario": "bpt", "quadric": {"kind": "QC", "blocks": []}},
        # integer fields are not truncated, and no key is ignored
        {"scenario": "ivory-check", "samples": 2.9},
        {"scenario": "m3", "extent": [2, 2.5, 2]},
        # m3 closes the one cube of Z^3, so no other extent is run
        {"scenario": "m3", "extent": [3, 3, 3]},
        {"scenario": "ivory-check", "quadric": {"kind": "QWC", "blocks": [
            {"a": [1.0, 0.0], "p": True}, {"a": [0.7, 0.0], "p": 1}]}},
        {"scenario": "ivory-check", "quadric": {"kind": "IQWC", "p": 2.5,
                                                "blocks": [_BLOCK]}},
        {"scenario": "ivory-check", "sampels": 5},
        # nor is a nested one
        {"scenario": "ivory-check", "seeds": {"mastr": 3}},
        {"scenario": "ivory-check", "quadric": {"kind": "IQWC", "P": 3,
                                                "blocks": [_BLOCK]}},
        {"scenario": "deform-0soliton",
         "grid": {"axes": [[0.0, 0.3, 6]] * 2, "bsae": [3, 3]}},
        {"scenario": "ivory-check", "quadric": {"kind": "QWC", "blocks": [
            {"a": [1.0, 0.0], "p": 1, "b": 2}, {"a": [0.7, 0.0], "p": 1}]}},
    ], ids=lambda c: json.dumps(c)[:60])
    def test_malformed_config_exits_2(self, cfg, tmp_path, capsys):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps(cfg))
        rc = cli.main(["run", "--config", str(cfgfile), "--out",
                       str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out").exists()   # nothing is written


    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(cli.SCENARIOS), st.data())
    def test_fuzzed_malformed_config_exits_2(self, scenario, data):
        # one top-level key of a config replaced by a malformed value, or an
        # unknown key added (None draws one) with a value a known key takes
        key = data.draw(st.sampled_from(sorted(_MALFORMED) + [None]), label="key")
        if key is None:
            cfg = {"scenario": scenario, data.draw(_UNKNOWN_KEY, label="unknown"):
                   data.draw(st.sampled_from([5, 0.4, {"master": 3}, None]))}
        else:
            cfg = {"scenario": scenario, key: data.draw(_MALFORMED[key], label=key)}
        rc, err, written = _exit_and_stderr(cfg)
        assert rc == 2
        assert err.startswith("config error:")
        assert not written

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="'sampels'"):
            cli.validate_config({"scenario": "ivory-check", "sampels": 5})

    def test_unknown_nested_key_is_named(self):
        with pytest.raises(ConfigError, match="seeds key 'mastr'"):
            cli.validate_config({"scenario": "ivory-check",
                                 "seeds": {"mastr": 3}})

    def test_integral_float_counts_accepted(self):
        cfg = cli.validate_config({"scenario": "m3", "samples": 20.0,
                                   "extent": [2.0, 2, 2]})
        assert cfg["samples"] == 20 and cfg["extent"] == [2, 2, 2]

    def test_infinite_tol_scale_flag_exits_2(self, tmp_path, capsys):
        rc = cli.main(["run", "--scenario", "elliptic", "--tol-scale", "inf",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("cfg", [
        {"scenario": "elliptic", "quadric": N1_QWC},
        {"scenario": "elliptic", "quadric": N1_QC},
        {"scenario": "bpt", "quadric": N1_QC, "samples": 20},
        {"scenario": "backlund-qc", "quadric": N1_QC, "samples": 20},
    ], ids=lambda c: c["scenario"] + "-" + c["quadric"]["kind"])
    def test_one_dimensional_quadric_runs_where_defined(self, cfg, tmp_path):
        # no grid is integrated here, so n = 1 stays supported
        report = cli.run_scenario(cfg, tmp_path / "out")
        assert report["passed"]


class TestRunScenario:
    def test_ivory_run_and_exit(self, tmp_path):
        report = cli.run_scenario({"scenario": "ivory-check", "samples": 200,
                                   "lame_samples": 10}, tmp_path / "run")
        assert report["passed"]
        assert (tmp_path / "run" / "report.json").exists()
        assert (tmp_path / "run" / "ivory_residuals.csv").exists()



    def test_profile_flag_writes_pstats(self, tmp_path):
        args = ["run", "--scenario", "elliptic", "--seed", "3", "--out"]
        assert cli.main(args + [str(tmp_path / "plain")]) == 0
        assert cli.main(args + [str(tmp_path / "prof"), "--profile"]) == 0
        stats = pstats.Stats(str(tmp_path / "prof" / "profile.pstats"))
        assert any(name == "elliptic_coordinates" for _, _, name in stats.stats)
        assert not (tmp_path / "plain" / "profile.pstats").exists()

        def checks(run):
            report = json.loads((tmp_path / run / "report.json").read_text())
            return [{k: v for k, v in c.items() if k != "runtime_s"}
                    for c in report["checks"]]
        assert checks("prof") == checks("plain")

    def test_unit_sphere_example(self, tmp_path):
        cfg = {"scenario": "ivory-check", "samples": 300, "lame_samples": 20,
               "quadric": {"kind": "QC", "blocks": [{"a": [1.0, 0.0], "p": 1},
                                                    {"a": [1.0, 0.0], "p": 1},
                                                    {"a": [1.0, 0.0], "p": 1}]}}
        report = cli.run_scenario(cfg, tmp_path / "sphere")
        assert report["passed"]
        for c in report["checks"]:
            if c["name"] != "lame_orthogonality":
                assert c["max_residual"] < 1e-10

    def test_residuals_bit_identical(self, tmp_path):
        cfg = {"scenario": "ivory-check", "samples": 100, "lame_samples": 5}
        r1 = cli.run_scenario(dict(cfg), tmp_path / "r1")
        r2 = cli.run_scenario(dict(cfg), tmp_path / "r2")
        v1 = [c["max_residual"] for c in r1["checks"]]
        v2 = [c["max_residual"] for c in r2["checks"]]
        assert v1 == v2
        a = (tmp_path / "r1" / "ivory_residuals.csv").read_bytes()
        b = (tmp_path / "r2" / "ivory_residuals.csv").read_bytes()
        assert a == b

    def test_cli_exit_codes(self, tmp_path):
        rc = cli.main(["run", "--scenario", "ivory-check", "--out",
                       str(tmp_path / "ok"), "--seed", "3"])
        assert rc == 0
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps({"scenario": "bpt",
                                       "z": [[0.3, 0.1], [0.3, 0.1]]}))
        rc = cli.main(["run", "--config", str(cfgfile), "--out",
                       str(tmp_path / "bad")])
        assert rc == 2

    def test_grid_base_off_the_grid_exits_2(self, tmp_path):
        cfgfile = tmp_path / "bad_base.json"
        cfgfile.write_text(json.dumps({
            "scenario": "deform-0soliton",
            "grid": {"axes": [[0.0, 0.62, 8], [0.0, 0.62, 8]], "base": [9, 0]}}))
        rc = cli.main(["run", "--config", str(cfgfile), "--out",
                       str(tmp_path / "bad_base")])
        assert rc == 2

    # an IQWC whose A' block is not diagonal until canonicalized
    IQWC_SOLITON = {"scenario": "deform-0soliton",
                    "quadric": {"kind": "IQWC", "p": 2,
                                "blocks": [{"a": [1.5, -0.2], "p": 1}]},
                    "grid": {"axes": [[0.0, 0.3, 9]] * 2}}

    def _run_iqwc(self, tmp_path, **extra):
        cfgfile = tmp_path / "iqwc.json"
        cfgfile.write_text(json.dumps({**self.IQWC_SOLITON, **extra}))
        out = tmp_path / "iqwc"
        rc = cli.main(["run", "--config", str(cfgfile), "--out", str(out)])
        return rc, json.loads((out / "report.json").read_text())

    def test_canonicalized_iqwc_soliton_passes(self, tmp_path):
        rc, report = self._run_iqwc(tmp_path)
        assert rc == 0
        assert len(report["checks"]) == 9
        assert all(c["passed"] for c in report["checks"])

    @pytest.mark.parametrize("scenario, blocks, nodes", [
        ("deform-0soliton", (1.0, 0.7, 1.3, 1.6), 6),
        ("m3", (1.0, 0.7, 1.3, 1.6), 6),
        ("leaf-embed", (1.0, 0.7, 1.3), 12)],
        ids=["n4-deform-0soliton", "n4-m3", "n3-leaf-embed"])
    def test_three_and_four_axis_grids_pass(self, tmp_path, scenario, blocks,
                                            nodes):
        # a QWC with n simple blocks on an n-axis grid: n = 4 on 6^4, and
        # leaf-embed at n = 3, whose leaf frame has two normals, on 12^3
        cfg = {"scenario": scenario, "lam_theta": 0.3,
               "quadric": {"kind": "QWC",
                           "blocks": [{"a": [a, 0.0], "p": 1} for a in blocks]},
               "grid": {"axes": [[0.0, 0.22, nodes]] * len(blocks)}}
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfgfile), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["checks"] and all(c["passed"] for c in report["checks"])

    def test_iqwc_that_cannot_be_diagonalized_fails_admissibility(self, tmp_path):
        # the nilpotent J_3 leaves a defective A' block: the seeded chart
        # stays, and the run fails peterson_admissible as a check
        rc, report = self._run_iqwc(tmp_path, quadric={"kind": "IQWC", "p": 3})
        assert rc == 1
        [check] = report["checks"]
        assert check["name"] == "peterson_admissible"
        assert not check["passed"]
        assert check["max_residual"] == pytest.approx(0.57, abs=0.01)

    @pytest.mark.parametrize("quadric", [None, cli._QC_DEFAULT], ids=["qwc", "qc"])
    def test_bpt_sample_worsts_match_per_sample_loop(self, tmp_path, quadric):
        cfg = {"scenario": "bpt", "samples": 30, "seeds": {"master": 5},
               "grid": {"axes": [[0.0, 0.3, 6], [0.0, 0.3, 6]]}}
        if quadric is not None:
            cfg["quadric"] = quadric
        report = cli.run_scenario(cfg, tmp_path / "bpt")
        full = cli.validate_config(cfg)
        q, lm = cli._setup(full)
        c1, c2 = (bk.make_context(q, z, lm) for z in full["zs"][:2])
        wo = wid = wsc = 0.0
        for i in range(30):
            R0, R1, R2 = (random_orthogonal(q.n, seed=5 + 3 * i + j)
                          for j in range(3))
            R3 = pm.bpt_compose(R0, R1, R2, c1, c2)
            wo = max(wo, float(np.max(np.abs(R3 @ R3.T - np.eye(q.n)))))
            wid = max(wid, pm.bpt_orthogonality_identity(R1, R2, c1, c2))
            wsc = max(wsc, pm.bpt_scalar_identity(R0, R1, R2, R3, c1, c2))
        got = [c["max_residual"] for c in report["checks"][:3]]
        assert got == [wo, wid, wsc]

    def test_module_error_recorded_not_crash(self, tmp_path):
        # a non-admissible quadric: peterson check recorded as failed,
        # dependent checks skipped
        cfg = {"scenario": "deform-0soliton",
               "quadric": {"kind": "QWC",
                           "blocks": [{"a": [0.9, -0.2], "p": 2}]},
               "grid": {"axes": [[0.0, 0.2, 6], [0.0, 0.2, 6]]}}
        report = cli.run_scenario(cfg, tmp_path / "na")
        assert not report["passed"]
        assert len(report["checks"]) == 1
        assert report["checks"][0]["name"] == "peterson_admissible"

    def test_tolerance_table_embedded(self, tmp_path):
        report = cli.run_scenario({"scenario": "ivory-check", "samples": 50,
                                   "lame_samples": 5}, tmp_path / "t")
        assert "ivory_identities" in report["tolerances"]

    def test_tol_scale(self, tmp_path):
        report = cli.run_scenario({"scenario": "ivory-check", "samples": 50,
                                   "lame_samples": 5, "tol_scale": 10.0},
                                  tmp_path / "s")
        assert report["tolerances"]["ivory_identities"] == 1e-9

    def test_tol_scale_flag_overrides_config_only_when_given(self, tmp_path):
        cfgfile = tmp_path / "scaled.json"
        cfgfile.write_text(json.dumps({"scenario": "ivory-check", "samples": 16,
                                       "lame_samples": 2, "tol_scale": 10}))
        for extra, scale in (([], 10), (["--tol-scale", "2"], 2.0)):
            out = tmp_path / f"run{len(extra)}"
            assert cli.main(["run", "--config", str(cfgfile), "--out",
                             str(out)] + extra) == 0
            report = json.loads((out / "report.json").read_text())
            assert (report["tolerances"]["riccati_drift"]
                    == cli.TOLERANCES["riccati_drift"] * scale)

    def test_module_error_becomes_single_error_check(self, tmp_path,
                                                     monkeypatch):
        def fail(*args, **kwargs):
            raise MultipleRoot("forced")

        monkeypatch.setattr(sc, "lame_suite", fail)
        report = cli.run_scenario({"scenario": "ivory-check", "samples": 16,
                                   "lame_samples": 2}, tmp_path / "err")
        assert not report["passed"]
        assert [c["name"] for c in report["checks"]] == ["error:MultipleRoot"]
        assert [s["name"] for s in report["stages"]] == ["ivory_suite",
                                                         "lame_suite"]


_SMALL = {"axes": [[0.0, 0.3, 6], [0.0, 0.3, 6]]}
# tiny configs of the ten scenarios and, per stage, the checks it records
_STAGED = {
    "ivory-check": ({"samples": 16, "lame_samples": 2}, [
        ("ivory_suite", ["ivory_theorem", "tc_symmetry", "ruling_length",
                         "segment_ruling_angle", "ruling_angle",
                         "polar_ruling_angle"]),
        ("lame_suite", ["lame_orthogonality"])]),
    "elliptic": ({"samples": 3}, [
        ("elliptic_coordinates", ["elliptic_backward",
                                  "elliptic_zero_root_on_quadric"])]),
    "deform-0soliton": ({"grid": _SMALL}, [
        ("peterson_admissible", ["peterson_admissible"]),
        ("soliton_pipeline", ["prime_integral_drift", "prime_integral_order",
                              "defqwc_soliton", "gcmpr_gauss", "gcmpr_cmp",
                              "gcmpr_ricci", "chart_reproduction",
                              "frame_metric"])]),
    "backlund-qwc": ({"grid": _SMALL, "samples": 8}, [
        ("backlund_pipeline", ["riccati_drift", "path_mismatch",
                               "path_mismatch_order", "leaf_system_slope",
                               "leaf_defqwc_slope"]),
        ("algebraic_transform", ["transform_identities", "involution"])]),
    "backlund-qc": ({"samples": 4}, [
        ("qc_compact_vs_expanded", ["qc_compact_vs_expanded"]),
        ("qc_aux_differentials", ["qc_aux_differentials"]),
        ("qc_transform", ["qc_transform_identities", "qc_involution"]),
        ("qc_line", ["qc_line_orthogonality", "qc_line_completed"])]),
    "leaf-embed": ({"grid": _SMALL}, [
        ("degenerate_leaf", ["leaf_on_confocal", "degenerate_metric_scaling"]),
        ("ruling_facet_check", ["ruling", "coefficient_isotropy",
                                "ruling_negative_control"]),
        ("general_leaf", ["acpia_exact", "acpia_fd", "joined_forms",
                          "asymptotic_correspondence"])]),
    "bpt": ({"grid": _SMALL, "samples": 4}, [
        ("bpt_samples", ["bpt_orthogonality", "bpt_matrix_identity",
                         "bpt_scalar_identity"]),
        ("bpt_field", ["bpt_field_scalar_identity", "bpt_riccati_slope"]),
        ("lattice_fill_order", ["lattice_order_agreement"])]),
    "m3": ({"grid": _SMALL}, [
        ("m3_degenerate", ["m3_degenerate"]),
        ("m3_lattice", ["m3_integrated", "m3_cube_closure",
                        "m3_lattice_holes"])]),
    "lattice": ({"grid": _SMALL, "extent": [2, 2]}, [
        ("lattice", ["lattice_order_agreement", "lattice_square_scalar",
                     "lattice_holes"])]),
    "sine-gordon": ({"grid": {"axes": [[0.0, 0.6, 9], [0.0, 0.6, 9]]},
                     "fields": 2}, [
        ("sine_gordon_suite", ["sine_gordon_correlation"])]),
}


# checks whose bound is not a residual tolerance: the ratio, slope and
# correlation windows of cli._UNSCALED, the zero_soliton admissibility
# threshold, the at-least negative control and the 0/1 flags and hole counts
_FIXED_BOUNDS = {"prime_integral_order", "path_mismatch_order",
                 "leaf_system_slope", "leaf_defqwc_slope", "bpt_riccati_slope",
                 "sine_gordon_correlation", "peterson_admissible",
                 "ruling_negative_control", "qc_line_completed",
                 "m3_lattice_holes", "lattice_holes"}


@pytest.mark.parametrize("scenario", list(_STAGED))
def test_tol_scale_scales_every_residual_gate(scenario, tmp_path):
    extra, _ = _STAGED[scenario]
    cfg = {"scenario": scenario, **extra}
    base = cli.run_scenario(dict(cfg), tmp_path / "base")
    scaled = cli.run_scenario({**cfg, "tol_scale": 10}, tmp_path / "scaled")
    assert [c["name"] for c in scaled["checks"]] == [
        c["name"] for c in base["checks"]]
    for b, c in zip(base["checks"], scaled["checks"]):
        factor = 1 if c["name"] in _FIXED_BOUNDS else 10
        assert c["tolerance"] == b["tolerance"] * factor, c["name"]
    assert scaled["tolerances"] == cli.scaled_tolerances(10)


@pytest.mark.parametrize("scenario", list(_STAGED))
def test_checks_are_timed_by_their_own_stage(scenario, tmp_path):
    extra, staged = _STAGED[scenario]
    report = cli.run_scenario({"scenario": scenario, **extra}, tmp_path)
    assert [c["name"] for c in report["checks"]] == [
        name for _, names in staged for name in names]
    assert [s["name"] for s in report["stages"]] == [s for s, _ in staged]
    checks = iter(report["checks"])
    for stage, (_, names) in zip(report["stages"], staged):
        assert stage["nodes"] >= 1
        for _ in names:
            assert next(checks)["runtime_s"] == round(stage["wall_s"], 3)
    assert sum(s["wall_s"] for s in report["stages"]) <= report["runtime_s"]


def test_pass_direction_matches_benchmark():
    # parsed, not imported: importing perfbench/run.py pins BLAS variables
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    tree = ast.parse(path.read_text())
    inverted = next(node.value for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["INVERTED"])
    assert ast.literal_eval(inverted) == cli.AT_LEAST


class TestPlotData:
    def test_missing_run(self, tmp_path):
        with pytest.raises(MissingRun):
            cli.emit_plotdata(tmp_path)

    def test_convergence_and_drift_tables(self, tmp_path):
        cfg = {"scenario": "backlund-qwc", "samples": 50,
               "grid": {"axes": [[0.0, 0.3, 16], [0.0, 0.3, 16]]}}
        cli.run_scenario(cfg, tmp_path / "bq")
        files = cli.emit_plotdata(tmp_path / "bq")
        names = {f.name for f in files}
        assert "convergence.csv" in names
        assert "convergence_fits.csv" in names
        assert "drift_vs_arclength.csv" in names
        fits = (tmp_path / "bq" / "convergence_fits.csv").read_text()
        slopes = {line.split(",")[0]: float(line.split(",")[1])
                  for line in fits.strip().split("\n")[1:]}
        assert abs(slopes["leaf_system_residual"] - 2.0) < 0.3
        assert abs(slopes["path_mismatch"] - 4.0) < 0.4

    def test_plotdata_deterministic(self, tmp_path):
        cfg = {"scenario": "backlund-qwc", "samples": 50,
               "grid": {"axes": [[0.0, 0.3, 16], [0.0, 0.3, 16]]}}
        cli.run_scenario(cfg, tmp_path / "p1")
        cli.run_scenario(cfg, tmp_path / "p2")
        cli.emit_plotdata(tmp_path / "p1")
        cli.emit_plotdata(tmp_path / "p2")
        a = (tmp_path / "p1" / "convergence.csv").read_bytes()
        b = (tmp_path / "p2" / "convergence.csv").read_bytes()
        assert a == b

    def test_lattice_heatmap(self, tmp_path):
        cfg = {"scenario": "lattice",
               "grid": {"axes": [[0.0, 0.25, 14], [0.0, 0.25, 14]]},
               "z": [[0.31, 0.12], [-0.2, 0.25]], "extent": [3, 3]}
        cli.run_scenario(cfg, tmp_path / "lat")
        files = cli.emit_plotdata(tmp_path / "lat")
        names = {f.name for f in files}
        assert "lattice_heatmap.csv" in names
        assert (tmp_path / "lat" / "lattice" / "index.json").exists()


class TestLeafExportRoundtrip:
    def test_scenario_leaf_reloads(self, tmp_path):
        cfg = {"scenario": "backlund-qwc", "samples": 20,
               "grid": {"axes": [[0.0, 0.2, 8], [0.0, 0.2, 8]]}}
        cli.run_scenario(cfg, tmp_path / "r")
        leaf = gridio.load_fieldgrid(tmp_path / "r" / "leaf")
        assert leaf.V.shape == (8, 8, 2)
        assert leaf.R.shape == (8, 8, 2, 2)
        import json
        header = json.loads((tmp_path / "r" / "leaf.json").read_text())
        assert "provenance" in header and "z" in header["provenance"]

    def test_help_exit(self, capsys):
        assert cli.main([]) == 2
