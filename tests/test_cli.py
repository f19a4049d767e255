"""Config parsing, the experiment runner, and the utility subcommands."""

import argparse
import contextlib
import csv
import functools
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randspec
from randspec import FiniteProfile, UniformLaw, _native, cli, probes
from randspec.cli import (
    PROBES,
    ConfigError,
    Section,
    _fmt,
    _parse_law,
    _parse_profile,
    load_config,
    main,
    parse_probe,
    probe_seed,
)


# ---------------------------------------------------------------------------
# helpers


def test_probe_seed_derivation():
    digest = hashlib.sha256(b"alpha").digest()
    want = (12345 ^ int.from_bytes(digest[:8], "big")) & (2**63 - 1)
    assert probe_seed(12345, "alpha") == want
    assert probe_seed(12345, "alpha") != probe_seed(12345, "beta")
    assert probe_seed(1, "alpha") != probe_seed(2, "alpha")
    assert 0 <= probe_seed(2**62, "x") < 2**63


def _fresh_output(code):
    """What a fresh interpreter running `code` prints, stripped."""
    src = str(Path(randspec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def _modules_after(code, prefixes=("scipy",)):
    """Modules named with one of `prefixes` (scipy's by default) that a
    fresh interpreter running `code` has loaded, as the printed sorted list."""
    return _fresh_output(
        code + f"\nimport sys; print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))")


@pytest.mark.parametrize("before", ["", "gc.disable()"])
def test_import_freezes_its_heap_and_loads_no_library(before):
    # randspec/__init__.py ends with gc.freeze(), which leaves the collector
    # on or off as it was; the C library loads on its first call, not here
    code = "\n".join([
        "import gc", before, "enabled = gc.isenabled()",
        "import randspec.cli",
        "from randspec import _native",
        "print(gc.get_freeze_count() > 0, gc.isenabled() == enabled,",
        "      _native._library is _native._UNLOADED)",
    ])
    assert _fresh_output(code) == "True True True"


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; no process pays its start-up cost
    assert _modules_after("import randspec.cli") == "[]"


def test_library_calls_leave_scipy_unloaded():
    code = "\n".join([
        "import numpy as np",
        "from randspec import eigensolve, qgraph",
        "from randspec.operators import TridiagonalOperator",
        "op = TridiagonalOperator(np.linspace(0.0, 1.0, 12), np.ones(11))",
        "value = eigensolve.eigenvalues_in(op, -3.0, 3.0)[4]",
        "eigensolve.eigenvector(op, float(value) + 1e-9)",
        "eigensolve.nearest_eigenvalue_distance(op, 0.3)",
        "qgraph.graph_eigenvalues(qgraph.QGraphInstance(np.full(6, 0.25)), (3.0, 4.2))",
    ])
    assert _modules_after(code) == "[]"


def test_unfolded_run_at_one_worker_leaves_numpy_ma_and_the_pool_unloaded(tmp_path):
    """A level_statistics section at workers 1 loads neither numpy.ma, which
    np.unique imports on its first call (10-16 ms), nor concurrent.futures
    and logging, which only a process pool needs (about 6 ms)."""
    cfg = tmp_path / "levels.cfg"
    cfg.write_text("[experiment]\nseed = 3\n[probe:levels]\ntype = level_statistics\n"
                   "kind = anderson\nsize = 200\nsamples = 20\nenergy = 0.0\n"
                   "ids_points = 21\nids_samples = 16\n")
    code = f"from randspec.cli import main\nassert main(['run', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0"
    assert _modules_after(code, ("numpy.ma.", "concurrent", "logging")) == "[]"
    assert (tmp_path / "out" / "levels.json").exists()


def test_fmt_roundtrips_floats():
    for x in (0.1, 1.0 / 3.0, 1e-300, -2.5):
        assert float(_fmt(x)) == x
    assert _fmt(7) == "7"
    assert _fmt("abc") == "abc"


def test_parse_law():
    assert _parse_law("uniform:0,1") == UniformLaw(0.0, 1.0)
    assert _parse_law("uniform:1.5,2") == UniformLaw(1.5, 2.0)
    with pytest.raises(ConfigError):
        _parse_law("gaussian:0,1")


def test_parse_law_piecewise(tmp_path):
    path = tmp_path / "law.csv"
    path.write_text("0.0,1.0\n1.0,1.0\n")
    law = _parse_law(f"piecewise:{path}")
    assert law.knots == (0.0, 1.0)


def test_parse_profile():
    assert _parse_profile("finite:0.5,1,0.5") == FiniteProfile((0.5, 1.0, 0.5))
    for text in ("cauchy:1", "geometric:2.0,0.7"):
        with pytest.raises(ConfigError):
            _parse_profile(text)


# ---------------------------------------------------------------------------
# config files


def _write_config(tmp_path, body):
    path = tmp_path / "exp.cfg"
    path.write_text(body)
    return str(path)


def test_load_config_basics(tmp_path):
    path = _write_config(
        tmp_path,
        """
[experiment]
seed = 42
out = outdir

[probe:first]
type = wegner
kind = anderson
size = 100
samples = 50
energy = 0.0
widths = 0.05,0.1
check_slope_min = 0.5
""",
    )
    seed, out, sections = load_config(path)
    assert (seed, out) == (42, "outdir")
    assert len(sections) == 1
    sec = sections[0]
    assert sec.name == "first"
    probe, kwargs, checks = parse_probe(sec)
    assert probe is PROBES["wegner"]
    assert kwargs["widths"] == [0.05, 0.1]
    assert checks == [("slope", "min", 0.5)]
    assert kwargs["size"] == 100 and kwargs["samples"] == 50
    assert kwargs["spec"].kind == "anderson" and kwargs["energy"] == 0.0
    assert parse_probe(sec, scale=0.1)[1]["samples"] == 5


def test_load_config_defaults_and_errors(tmp_path, capsys):
    path = _write_config(tmp_path, "[experiment]\nseed = 7\n")
    seed, out, sections = load_config(path)
    assert (seed, out, sections) == (7, "results", [])
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"))
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, "[probe:x]\ntype = wegner\n"))
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, "[experiment]\nout = x\n"))
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, "[experiment]\nseed = abc\n"))
    with pytest.raises(ConfigError):
        load_config(
            _write_config(tmp_path, "[experiment]\nseed = 1\n\n[extras]\nx = 1\n")
        )
    # files configparser cannot read: a config error naming the file, and the line
    # where configparser gives one, so the run exits 2 with one line and no traceback
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"[experiment]\nseed = 1\n# caf\xe9\n")
    for text, want in (
        ("[experiment]\nseed = 1\nseed = 2\n", r"line:? +3\b"),  # a duplicate option
        ("[experiment]\nseed = 1\n[experiment]\nout = x\n", r"line:? +3\b"),  # a duplicate section
        ("seed = 1\n[experiment]\n", r"line:? +1\b"),  # a line before any section header
        ("[experiment]\nseed = 1\n[probe:a]\n  stray\n", r"line:? +4\b"),  # continues no option
        (None, "not UTF-8"),
    ):
        path = _write_config(tmp_path, text) if text else str(latin1)
        with pytest.raises(ConfigError, match=rf"{re.escape(path)}.*{want}"):
            load_config(path)
        capsys.readouterr()
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


def test_section_accessors(tmp_path):
    path = _write_config(
        tmp_path,
        """
[experiment]
seed = 1

[probe:p]
type = level_statistics
kind = anderson
size = 100
samples = 10
energy = 0.0
intervals = -1.5:-0.5,0.5:1.5
disjoint = true
check_corr_z_max = 3
""",
    )
    _, _, (sec,) = load_config(path)
    with pytest.raises(ConfigError, match=r"\[probe:p\] unknown fields: disjoint"):
        parse_probe(sec)  # disjoint belongs to decorrelation only
    options = dict(sec.options)
    del options["disjoint"]
    _, kwargs, checks = parse_probe(Section("p", options))
    assert kwargs["intervals"] == [(-1.5, -0.5), (0.5, 1.5)]
    assert checks == [("corr_z", "max", 3.0)]
    with pytest.raises(ConfigError, match=r"\[probe:p\] size"):
        parse_probe(Section("p", {**options, "size": "100.0"}))  # float in an int field
    decorrelation = {
        "type": "decorrelation", "kind": "anderson", "size": "10", "samples": "5",
        "energy_a": "0.5", "energy_b": "-0.5",
    }
    for text, want in (("true", True), ("yes", True), ("OFF", False), ("0", False)):
        _, kwargs, _ = parse_probe(Section("d", {**decorrelation, "disjoint": text}))
        assert kwargs["disjoint"] is want
    assert parse_probe(Section("d", decorrelation))[1]["disjoint"] is False


def test_section_check_suffix_required(tmp_path):
    path = _write_config(
        tmp_path,
        "[experiment]\nseed = 1\n\n[probe:p]\ntype = wegner\ncheck_slope = 1\n",
    )
    _, _, (sec,) = load_config(path)
    with pytest.raises(ConfigError, match=r"\[probe:p\] check_slope: .*_min or _max"):
        parse_probe(sec)


def test_paper_suite_config_bundled():
    seed, out, sections = load_config("paper-suite")
    assert isinstance(seed, int)
    assert len(sections) == 10
    types = {s.options["type"] for s in sections}
    assert types == {
        "wegner", "minami", "decorrelation", "level_statistics",
        "joint_independence", "spacing", "qgraph-minami",
    }


# ---------------------------------------------------------------------------
# the runner


_SMALL_SUITE = """
[experiment]
seed = 99

[probe:weg]
type = wegner
kind = anderson
size = 100
samples = 300
energy = 0.0
widths = 0.02,0.05
check_C_hat_max = 10

[probe:min]
type = minami
kind = anderson
size = 50
samples = 300
energy = 0.0
widths = 0.2,0.4
"""


def _read_summary(out_dir):
    with open(out_dir / "summary.csv", newline="") as fh:
        return list(csv.reader(fh))


def test_run_small_suite(tmp_path):
    cfg = _write_config(tmp_path, _SMALL_SUITE)
    out = tmp_path / "res"
    assert main(["run", cfg, "--out", str(out)]) == 0
    rows = _read_summary(out)
    assert rows[0] == [
        "probe", "type", "estimate", "value", "ci_lo", "ci_hi",
        "check", "bound", "status",
    ]
    assert (out / "weg.json").exists() and (out / "min.json").exists()
    assert (out / "weg_curve.csv").exists()
    rep = json.loads((out / "weg.json").read_text())
    assert rep["samples"] == 300 and rep["schema_version"] == 1
    statuses = {r[8] for r in rows[1:]}
    assert "PASS" in statuses and "ERROR" not in statuses


def test_run_deterministic_modulo_runtime(tmp_path):
    cfg = _write_config(tmp_path, _SMALL_SUITE)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out_a)]) == 0
    assert main(["run", cfg, "--out", str(out_b), "--workers", "3"]) == 0
    for name in ("weg.json", "min.json"):
        a = (out_a / name).read_text().splitlines()
        b = (out_b / name).read_text().splitlines()
        diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        assert all("runtime_s" in a[i] for i in diff)
    assert (out_a / "weg_curve.csv").read_text() == (
        out_b / "weg_curve.csv"
    ).read_text()


# the estimates of the paper suite that are an integer count over an integer
_COUNT_PREFIXES = ("p_hat[", "m_hat[", "p2_hat[", "p1_hat[", "p_joint", "p_first", "p_second",
                   "event_mismatch", "mean_count[", "mean_first", "mean_second", "n_spacings")


@pytest.fixture(scope="module")
def paper_suite_out(tmp_path_factory):
    """The output directory of one `run paper-suite --scale 0.02`."""
    out = tmp_path_factory.mktemp("paper_suite")
    assert main(["run", "paper-suite", "--scale", "0.02", "--out", str(out)]) == 0
    return out


def test_paper_suite_counts_pinned(paper_suite_out):
    """`run paper-suite --scale 0.02` gives the counts in paper_suite_counts.json.
    They do not depend on the SIMD exp or log of the CPU, so every sweep body
    and draw path (AVX2, scalar, numpy) is held to the same file."""
    got = {}
    for path in sorted(paper_suite_out.glob("*.json")):
        estimates = json.loads(path.read_text())["estimates"]
        counts = {e["name"]: e["value"] for e in estimates if e["name"].startswith(_COUNT_PREFIXES)}
        if counts:
            got[path.stem] = counts
    assert got == json.loads(Path(__file__).with_name("paper_suite_counts.json").read_text())


def test_paper_suite_windows_pinned(paper_suite_out):
    """The energy windows the unfolded sections read off their IDS tables
    at `--scale 0.02`, bit for bit (`repr` strings in
    paper_suite_windows.json): a one-ulp move of a window can leave every
    count above unchanged."""
    want = json.loads(Path(__file__).with_name("paper_suite_windows.json").read_text())
    for name, fields in want.items():
        params = json.loads((paper_suite_out / f"{name}.json").read_text())["params"]
        for key, windows in fields.items():
            assert [repr(float(x)) for x in np.ravel(params[key])] == np.ravel(windows).tolist(), name


def _lines_but_runtime(out):
    """{file name: its lines other than runtime_s} of a run's output directory."""
    return {path.name: [line for line in path.read_text().splitlines() if '"runtime_s"' not in line]
            for path in sorted(out.iterdir())}


def test_paper_suite_same_on_c_and_numpy_paths(tmp_path):
    """Every file of `run paper-suite --scale 0.02` (windows, spacings and
    CSVs as well as counts) is the same on the C library's draws and sweeps
    as on numpy's, apart from runtime_s."""
    if _native.kernel() is None:
        pytest.skip("no compiled kernel")
    argv = ["run", "paper-suite", "--scale", "0.02", "--workers", "1", "--out"]
    assert main([*argv, str(tmp_path / "c")]) == 0
    with mock.patch.object(_native, "_library", None), mock.patch.object(_native, "_kernel", None):
        assert main([*argv, str(tmp_path / "numpy")]) == 0
    assert _lines_but_runtime(tmp_path / "c") == _lines_but_runtime(tmp_path / "numpy")


def test_run_check_mode_exit_codes(tmp_path):
    failing = _SMALL_SUITE + "check_slope_min = 99\n"
    cfg = _write_config(tmp_path, failing)
    out = tmp_path / "res"
    # without --check a failed bound is recorded but does not fail the run
    assert main(["run", cfg, "--out", str(out)]) == 0
    rows = _read_summary(out)
    fails = [r for r in rows if r[8] == "FAIL"]
    assert fails and fails[0][6] == "min" and fails[0][7] == "99"
    assert main(["run", cfg, "--out", str(out), "--check"]) == 1


# collected level points, and one check of each outcome: PASS, FAIL, a NaN
# estimate (a one-width slope) and an estimate the probe does not report
_PINNED_RUN = """
[experiment]
seed = 2026

[probe:levels]
type = level_statistics
kind = anderson
size = 100
samples = 40
energy = 0.0
collect = 3
ids_points = 21
ids_samples = 16
check_corr_z_max = 100
check_corr_z_min = 100
check_absent_max = 1

[probe:weg]
type = wegner
kind = anderson
size = 20
samples = 50
energy = 0.0
widths = 0.05
check_slope_min = 0
check_C_hat_max = 100
"""


def test_run_check_output_pinned(tmp_path):
    """The bytes of the summary and the collected points under --check. The
    summary rows hold every check outcome: PASS, FAIL, NaN (FAIL) and missing
    (FAIL), so a failed bound gives exit code 1."""
    cfg = _write_config(tmp_path, _PINNED_RUN)
    out = tmp_path / "res"
    assert main(["run", cfg, "--check", "--out", str(out)]) == 1
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("summary.csv", "levels_points.csv")}
    assert digests == {
        "summary.csv": "eb8de1b02f7e39c07b055becec153bbe7b5b7267aeeffd6ea48e7b108360ff39",
        "levels_points.csv": "1fd2366486271f455f07371ee52f330e0f0a321585994728a6b73b8dae14a053",
    }
    statuses = [row[6:] for row in _read_summary(out)[1:] if row[8]]
    assert statuses == [["max", "100", "PASS"], ["min", "100", "FAIL"], ["max", "1", "FAIL"],
                        ["min", "0", "FAIL"], ["max", "100", "PASS"]]


def test_run_isolates_probe_errors(tmp_path):
    cfg = _write_config(
        tmp_path,
        _SMALL_SUITE
        + """
[probe:broken]
type = wegner
kind = anderson
size = 100
samples = 10
energy = 0.0
widths = 0.05
surprise = 1
""",
    )
    out = tmp_path / "res"
    assert main(["run", cfg, "--out", str(out)]) == 2
    rows = _read_summary(out)
    err = [r for r in rows if r[8] == "ERROR"]
    assert len(err) == 1 and err[0][0] == "broken"
    assert "surprise" in err[0][3]
    assert (out / "weg.json").exists()  # healthy probes still ran
    assert not (out / "broken.json").exists()


def test_run_unknown_type_is_isolated(tmp_path):
    cfg = _write_config(
        tmp_path,
        "[experiment]\nseed = 1\n\n[probe:x]\ntype = nope\nsize = 10\nsamples = 5\n",
    )
    out = tmp_path / "res"
    assert main(["run", cfg, "--out", str(out)]) == 2
    rows = _read_summary(out)
    assert rows[1][8] == "ERROR"


def test_run_scale_multiplies_samples(tmp_path):
    cfg = _write_config(tmp_path, _SMALL_SUITE)
    out = tmp_path / "res"
    assert main(["run", cfg, "--out", str(out), "--scale", "0.1"]) == 0
    rep = json.loads((out / "weg.json").read_text())
    assert rep["samples"] == 30


# law files that PiecewiseLinearLaw.from_csv must refuse with a named error
_MALFORMED_LAWS = {
    "short_row.csv": "0,1\n1\n",
    "word.csv": "0,1\n1,dense\n",
    "empty.csv": "",
    "one_knot.csv": "0,1\n",
    "decreasing.csv": "1,1\n0,1\n",
    "negative.csv": "0,1\n1,-1\n",
    "nan.csv": "0,nan\n1,1\n",
    "binary.csv": "0,1\n\udcff\n",
    "huge_field.csv": "0,1\n1," + "1" * 200_000 + "\n",
}


def _with_law_files(tmp_path, text):
    """Write the malformed law files to tmp_path; text with {tmp} filled in."""
    for name, body in _MALFORMED_LAWS.items():
        (tmp_path / name).write_text(body, errors="surrogateescape")
    return text.format(tmp=tmp_path)


# one valid section per probe type; each bad-input row breaks one field
_VALID = {
    "w": {"type": "wegner", "kind": "anderson", "size": "20", "samples": "5",
          "energy": "0", "widths": "0.1"},
    "d": {"type": "decorrelation", "kind": "anderson", "size": "20", "samples": "5",
          "energy_a": "0.5", "energy_b": "-0.5"},
    "l": {"type": "level_statistics", "kind": "anderson", "size": "100",
          "samples": "5", "energy": "0"},
    "s": {"type": "spacing", "kind": "anderson", "size": "100", "samples": "5",
          "energy": "0"},
    "q": {"type": "qgraph-minami", "size": "20", "samples": "5", "energy": "4",
          "widths": "0.1"},
}


@pytest.mark.parametrize(
    "where, field, text, label",
    [
        # workers is no [experiment] field any more (--workers only); the ids
        # keep the names these rows had while it was one
        pytest.param("experiment", "workers", "0", "[experiment] unknown fields: workers",
                     id="experiment-workers-0-[experiment] workers"),
        pytest.param("experiment", "workers", "four", "[experiment] unknown fields: workers",
                     id="experiment-workers-four-[experiment] workers"),
        ("experiment", "seed", "1.5", "[experiment] seed"),
        ("experiment", "outdir", "x", "[experiment] unknown fields: outdir"),
        ("experiment", "out", "{tmp}/short_row.csv/x", "[experiment] out"),
        ("w", "type", "nope", "[probe:w] type"),
        ("w", "samples", "0", "[probe:w] samples"),
        ("w", "samples", "2.5", "[probe:w] samples"),
        ("w", "samples", "1" + "0" * 400, "[probe:w] samples"),  # overflows a float
        ("w", "size", "0", "[probe:w] size"),
        ("w", "energy", "inf", "[probe:w] energy"),
        ("w", "widths", "nan,0.1", "[probe:w] widths"),
        ("w", "widths", "0.1,-0.2", "[probe:w] widths"),
        ("w", "widths", ",", "[probe:w] widths"),
        ("w", "kind", "gaussian", "[probe:w] kind"),
        ("w", "law", "gaussian:0,1", "[probe:w] law"),
        ("w", "law", "piecewise:no-such-file.csv", "[probe:w] law"),
        ("w", "law", "piecewise:{tmp}/short_row.csv", "[probe:w] law"),
        # margin, ids_half_width and width_scale are no fields any more (the
        # alloy margin is the profile radius, the other two are constants);
        # these rows keep their earlier ids
        pytest.param("w", "profile", "finite:1", "[probe:w] kind/law/profile: profile",
                     id="w-profile-finite:1-[probe:w] kind/law/profile/margin"),
        ("w", "profile", "geometric:1.0,0.5", "[probe:w] profile"),
        pytest.param("w", "margin", "-1", "[probe:w] unknown fields: margin",
                     id="w-margin--1-[probe:w] margin"),
        ("w", "check_slope_min", "nan", "[probe:w] check_slope_min"),
        ("d", "disjoint", "maybe", "[probe:d] disjoint"),
        ("d", "half_width", "0", "[probe:d] half_width"),
        ("l", "size", "99", "[probe:l] size"),
        ("l", "intervals", "1:1", "[probe:l] intervals"),
        ("l", "intervals", "0:1,2", "[probe:l] intervals"),
        ("l", "collect", "-1", "[probe:l] collect"),
        ("l", "ids_points", "1", "[probe:l] ids_points"),
        ("l", "ids_samples", "4", "[probe:l] ids_samples"),
        pytest.param("l", "ids_half_width", "0.1", "[probe:l] unknown fields: ids_half_width",
                     id="l-ids_half_width-0.1-[probe:l] ids_half_width"),
        ("s", "ids_half_width", "0.5", "[probe:s] unknown fields: ids_half_width"),
        ("q", "kind", "anderson", "[probe:q] unknown fields: kind"),
        ("q", "energy", "-1", "[probe:q] energy"),
        pytest.param("q", "width_scale", "-0.5", "[probe:q] unknown fields: width_scale",
                     id="q-width_scale--0.5-[probe:q] width_scale"),
        ("argv", "--scale", "-1", "--scale"),
        ("argv", "--scale", "nan", "--scale"),
        ("argv", "--scale", "0", "--scale"),
        ("argv", "--workers", "0", "--workers"),
        ("argv", "--out", "{tmp}/short_row.csv", "--out"),  # an existing file
    ],
)
def test_run_rejects_bad_input(tmp_path, capsys, where, field, text, label):
    text = _with_law_files(tmp_path, text)
    experiment = {"seed": "1"}
    sections = {"w": dict(_VALID["w"])}
    argv = ["--out", str(tmp_path / "res")]
    if where == "experiment":
        experiment[field] = text
        if field == "out":
            argv = []
    elif where == "argv":
        argv += [field, text]
    else:
        sections = {where: {**_VALID[where], field: text}}
    body = "[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in experiment.items())
    for name, options in sections.items():
        body += f"[probe:{name}]\n" + "".join(f"{k} = {v}\n" for k, v in options.items())
    cfg = _write_config(tmp_path, body)
    try:
        code = main(["run", cfg, *argv])
    except SystemExit as exc:  # argparse rejects command-line values
        code = exc.code
    assert code == 2
    assert label in capsys.readouterr().err


# ---------------------------------------------------------------------------
# utility subcommands


def test_list_probes_prints_registry(capsys):
    assert main(["list-probes"]) == 0
    out = capsys.readouterr().out
    for name in (
        "wegner", "minami", "decorrelation", "level_statistics",
        "joint_independence", "spacing", "qgraph-minami",
    ):
        assert name in out


# a valid value for every field name any probe type takes
_EXAMPLES = {
    "kind": "alloy", "law": "uniform:0,1", "profile": "finite:1",
    "size": "100", "samples": "10", "energy": "4.0", "widths": "0.1,0.2",
    "energy_a": "0.5", "energy_b": "-0.5", "half_width": "0.5", "disjoint": "true",
    "intervals": "0:1", "collect": "2", "ids_points": "11",
    "ids_samples": "16", "length_a": "1", "length_b": "2",
}


def test_list_probes_fields_match_parser(capsys):
    assert main(["list-probes"]) == 0
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        if line and " " not in line:
            printed[line] = fields = []
        elif line.startswith("    "):
            fields.append(line.split(":")[0].strip())
    assert set(printed) == {
        "wegner", "minami", "decorrelation", "level_statistics",
        "joint_independence", "spacing", "qgraph-minami",
    }
    for ptype, fields in printed.items():
        options = {"type": ptype, **{k: _EXAMPLES[k] for k in fields}}
        probe, kwargs, _ = parse_probe(Section("x", options))  # all printed: accepted
        # and every argument names a parameter of the probe function
        inspect.signature(getattr(probes, probe.function)).bind_partial(**kwargs)
        for extra in sorted(set(_EXAMPLES) - set(fields)):  # not printed: rejected
            with pytest.raises(ConfigError, match=f"unknown fields: {extra}"):
                parse_probe(Section("x", {**options, extra: _EXAMPLES[extra]}))


def test_ids_subcommand_writes_table(tmp_path, capsys):
    out = tmp_path / "ids.csv"
    rc = main(
        [
            "ids", "--kind", "anderson", "--size", "100", "--min", "-2.0",
            "--max", "3.0", "--points", "21", "--samples", "16",
            "--out", str(out),
        ]
    )
    assert rc == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert table.shape == (21, 3)
    assert table[0, 0] == -2.0 and table[-1, 0] == 3.0
    assert np.all(np.diff(table[:, 1]) >= 0)


def test_lyapunov_subcommand_prints_json(capsys):
    rc = main(
        [
            "lyapunov", "--kind", "anderson", "--energy", "0.0",
            "--steps", "1000", "--samples", "4",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"gamma", "stderr", "ci99", "steps", "samples", "energy"}
    assert payload["steps"] == 1000


_IDS_ARGV = ["ids", "--kind", "anderson", "--size", "100", "--min", "-2", "--max", "3",
             "--points", "21", "--samples", "16"]
_LYAPUNOV_ARGV = ["lyapunov", "--kind", "anderson", "--energy", "0", "--steps", "1000",
                  "--samples", "4"]


@pytest.mark.parametrize(
    "base, flag, text, label",
    [
        pytest.param(_LYAPUNOV_ARGV, "--steps", "100", "--steps", id="base0---steps-100---steps"),
        pytest.param(_LYAPUNOV_ARGV, "--steps", "2e3", "--steps", id="base1---steps-2e3---steps"),
        pytest.param(_LYAPUNOV_ARGV, "--samples", "1", "--samples",
                     id="base2---samples-1---samples"),
        pytest.param(_LYAPUNOV_ARGV, "--seed", "-1", "--seed", id="base3---seed--1---seed"),
        pytest.param(_LYAPUNOV_ARGV, "--energy", "nan", "--energy",
                     id="base4---energy-nan---energy"),
        pytest.param(_LYAPUNOV_ARGV, "--workers", "2", "unrecognized arguments: --workers",
                     id="base5---workers-2-unrecognized arguments: --workers"),
        pytest.param(_IDS_ARGV, "--samples", "0", "--samples", id="base6---samples-0---samples"),
        pytest.param(_IDS_ARGV, "--size", "99", "--size", id="base7---size-99---size"),
        pytest.param(_IDS_ARGV, "--points", "1", "--points", id="base8---points-1---points"),
        pytest.param(_IDS_ARGV, "--seed", "-1", "--seed", id="base9---seed--1---seed"),
        pytest.param(_IDS_ARGV, "--workers", "0", "--workers", id="base10---workers-0---workers"),
        pytest.param(_IDS_ARGV, "--min", "inf", "--min", id="base11---min-inf---min"),
        pytest.param(_IDS_ARGV, "--max", "-2", "--min = -2, --max = -2",
                     id="base12---max--2---min = -2, --max = -2"),
        pytest.param(_IDS_ARGV, "--out", "no_such_dir/ids.csv", "--out = 'no_such_dir/ids.csv'",
                     id="base13---out-no_such_dir/ids.csv---out = 'no_such_dir/ids.csv'"),
        pytest.param(_LYAPUNOV_ARGV, "--kind", "qgraph", "--kind",  # no transfer step table
                     id="base14---kind-qgraph---kind"),
        pytest.param(_LYAPUNOV_ARGV, "--profile", "geometric:1,0.5", "--profile",
                     id="base15---profile-geometric:1,0.5---profile"),
        pytest.param(_IDS_ARGV, "--profile", "geometric:1,0.5", "--profile",
                     id="base16---profile-geometric:1,0.5---profile"),
        pytest.param(_IDS_ARGV, "--law", "piecewise:{tmp}/short_row.csv", "--law",
                     id="base17---law-piecewise:{tmp}/short_row.csv---law"),
        pytest.param(_LYAPUNOV_ARGV, "--law", "piecewise:{tmp}/word.csv", "--law",
                     id="base18---law-piecewise:{tmp}/word.csv---law"),
        # 21 points do not fit between -DBL_TRUE_MIN and 0; the step of
        # +-1e308 overflows
        pytest.param([*_IDS_ARGV, "--min=-5e-324"], "--max", "0.0",
                     "--max = 0, --points = 21: the grid",
                     id="base19---max-0.0---max = 0, --points = 21: the grid"),
        pytest.param([*_IDS_ARGV, "--min=-1e308"], "--max", "1e308",
                     "--max = 1e+308, --points = 21: the grid",
                     id="base20---max-1e308---max = 1e+308, --points = 21: the grid"),
        # a support whose width overflows draws inf and NaN
        pytest.param(_LYAPUNOV_ARGV, "--law", "uniform:-1e308,1e308", "largest float",
                     id="base21---law-uniform:-1e308,1e308-largest float"),
        # the alloy's draw margin is its profile radius
        pytest.param(_LYAPUNOV_ARGV, "--margin", "1", "unrecognized arguments: --margin",
                     id="base22---margin-1-unrecognized arguments: --margin"),
        pytest.param(_IDS_ARGV, "--margin", "1", "unrecognized arguments: --margin",
                     id="base23---margin-1-unrecognized arguments: --margin"),
        # refused before any replica array is allocated
        pytest.param(_LYAPUNOV_ARGV, "--samples", "100000000", "--samples: samples = 100000000",
                     id="base24---samples-100000000---samples"),
    ],
)
def test_subcommand_rejects_bad_flag(tmp_path, capsys, base, flag, text, label):
    text = _with_law_files(tmp_path, text)
    # the last occurrence of a flag wins, so each row overrides one valid value
    try:
        code = main([*base, "--out", str(tmp_path / "ids.csv"), flag, text]
                    if base[0] == "ids" else [*base, flag, text])
    except SystemExit as exc:  # argparse rejects command-line values
        code = exc.code
    assert code == 2
    assert label in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the parse layer: any text gives a value or the error that names its input


def _subparser(command):
    return next(a for a in cli._parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices[command]


def _parse_targets():
    """(label, parse, error) for every config field and every command-line flag
    typed by a Field: `_value` on the field, or the flag's argparse type."""
    targets = [(f"[experiment] {key}", field) for key, field in cli._EXPERIMENT.items()]
    targets += [(f"[probe:{ptype}] {key}", field)
                for ptype, probe in PROBES.items() for key, field in probe.fields.items()]
    out = [(label, functools.partial(cli._value, label, field), ConfigError)
           for label, field in targets]
    for command in ("run", "ids", "lyapunov"):
        for action in _subparser(command)._actions:
            if isinstance(action.type, functools.partial):
                out.append((f"{command} {action.option_strings[0]}", action.type,
                            argparse.ArgumentTypeError))
    return out


_EXTREMES = ["nan", "inf", "-inf", "-1", "0", "-0", "", " ", "1e400", "1" + "0" * 400,
             "9" * 5000, "0x10", "1_000", "2.5", "uniform:", "uniform:nan,1",
             "uniform:1,0", "uniform:0,1e400", "uniform:1", "finite:", "finite:1,2",
             "finite:inf", "piecewise:"]
_NUMBERS = st.one_of(st.sampled_from(_EXTREMES), st.integers().map(str),
                     st.floats().map(repr), st.text(max_size=8))


def _parses_or_names(target, text):
    label, parse, error = target
    try:
        parse(text)
    except error as exc:  # any other exception fails the test
        assert error is not ConfigError or str(exc).startswith(f"{label} = ")


def test_parse_layer_raises_only_named_errors(tmp_path):
    _with_law_files(tmp_path, "")
    laws = [f"piecewise:{tmp_path / name}" for name in [*_MALFORMED_LAWS, "missing.csv", ""]]
    targets = _parse_targets()
    assert {label for label, _, _ in targets} >= {
        "[experiment] seed", "[probe:spacing] law", "ids --law", "ids --points",
        "lyapunov --steps", "run --scale", "run --workers",
    }
    for target in targets:  # every field meets every extreme and malformed law file
        for text in _EXTREMES + laws:
            _parses_or_names(target, text)
    texts = st.one_of(
        st.text().filter(lambda t: t.partition(":")[0] != "piecewise"),  # no arbitrary files
        _NUMBERS,
        st.tuples(st.sampled_from(["uniform:", "finite:"]),
                  st.lists(_NUMBERS, max_size=4).map(",".join)).map("".join),
    )

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(targets), texts)
    def parse_one(target, text):
        _parses_or_names(target, text)

    parse_one()


# ---------------------------------------------------------------------------
# the command layer: any command line runs, or exits 2 naming what it rejects

_REJECTED = ["nan", "inf", "-inf", "", " ", "1e400", "2.5", "0x10", "many"]
_ODD_FLOAT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "1e308", "-1e308", "5e-324", "x"]),
    st.floats().map(repr),
)


def _valid_text(field):
    """A text of the field's type inside its range. Integers (sizes, counts,
    steps) stay within 12 of the field's minimum, so that every
    probe that runs is small."""
    parse = field.parse
    low = field.gt if field.gt is not None else field.ge
    if parse is cli._int:
        return st.integers(int(low or 0), int(low or 0) + 12).map(str)
    if parse in (cli._float, cli._floats):
        x = st.floats(-3.0, 3.0) if low is None else st.floats(low, low + 3.0).filter(
            lambda x: field.gt is None or x > field.gt)
        return x.map(repr) if parse is cli._float else st.lists(
            x.map(repr), min_size=1, max_size=3).map(",".join)
    if parse is cli._intervals:
        pair = st.tuples(st.floats(-1.0, 2.0), st.floats(0.1, 2.0)).map(
            lambda t: f"{t[0]!r}:{t[0] + t[1]!r}")
        return st.lists(pair, min_size=1, max_size=3).map(",".join)
    return st.sampled_from({
        cli._bool: ["true", "false"], cli._kind: list(cli.KINDS),
        cli._parse_law: ["uniform:1,2", "uniform:0,1", "piecewise:{law}"],
        cli._parse_profile: ["finite:0.25,1,0.5", "finite:1"],
    }[parse])


def _odd_text(field):
    """nan, inf, negative and huge numbers, texts of the wrong type, and for
    integers the value just below the range: an integer field never gets a
    large value, which would make the run large."""
    if field.parse is cli._int:
        return st.sampled_from([str(int(field.ge or 0) - 1), *_REJECTED])
    if field.parse is cli._parse_law:
        return st.one_of(st.tuples(_ODD_FLOAT, _ODD_FLOAT).map(lambda t: "uniform:" + ",".join(t)),
                         st.sampled_from(["piecewise:{tmp}/none.csv", "gaussian:0,1"]))
    if field.parse is cli._parse_profile:
        return st.lists(_ODD_FLOAT, min_size=1, max_size=3).map(lambda v: "finite:" + ",".join(v))
    if field.parse in (cli._floats, cli._intervals):
        return st.lists(_ODD_FLOAT, min_size=1, max_size=3).map(",".join)
    return st.one_of(_ODD_FLOAT, st.sampled_from(_REJECTED))


def _mostly(valid, odd):
    """`valid` seven times in eight, `odd` the eighth."""
    return st.integers(0, 7).flatmap(lambda i: odd if i == 0 else valid)


def _field_text(field):
    return _mostly(_valid_text(field), _odd_text(field))


def _consistent(chosen):
    """Most of the time, make the drawn fields fit together as a valid run
    needs: a profile for the alloy only, and min below max."""
    chosen = dict(chosen)
    if chosen.get("kind") == "alloy":
        chosen.setdefault("profile", "finite:0.25,1,0.5")
    else:
        chosen.pop("profile", None)
    try:
        lo, hi = float(chosen["min"]), float(chosen["max"])
    except (KeyError, ValueError):
        return chosen
    if lo >= hi:
        chosen["min"], chosen["max"] = repr(min(lo, hi)), repr(max(lo, hi) + 1.0)
    return chosen


def _fields(fields):
    """{name: text}: every required field, and each optional one or not."""
    required = {k: _field_text(f) for k, f in fields.items() if f.default is cli.REQUIRED}
    optional = {k: _field_text(f) for k, f in fields.items() if f.default is not cli.REQUIRED}
    drawn = st.fixed_dictionaries(required, optional=optional)
    return _mostly(drawn.map(_consistent), drawn)


_SEED = _mostly(st.integers(0, 2**70).map(str), st.sampled_from(["-1", *_REJECTED]))
_RUN = st.tuples(
    st.just("run"),
    st.sampled_from(sorted(PROBES)).flatmap(
        lambda ptype: st.tuples(st.just(ptype), _fields(PROBES[ptype].fields))),
    st.fixed_dictionaries({"seed": _SEED}, optional={
        "out": _mostly(st.just("{tmp}/res"), st.just("{law}/x")),
    }),
    st.lists(st.sampled_from(["--check", "--scale", "--workers", "--out"]), unique=True),
    _mostly(st.sampled_from(["0.5", "1"]), st.sampled_from(["0", "-1", "nan", "inf", "x"])),
)


def _subcommand(command, fields):
    """argv for `ids` or `lyapunov` from its typed flags."""
    return _fields(fields).map(
        lambda chosen: [command] + [f"--{k}={v}" for k, v in chosen.items()])


def _flag_fields(command):
    """{flag: Field} of a subcommand's typed flags, and --kind. --workers is
    left out (no worker pool starts)."""
    fields = {a.dest: a.type.args[1] for a in _subparser(command)._actions
              if isinstance(a.type, functools.partial) and a.dest != "workers"}
    return {"kind": cli._ENSEMBLE["kind"], **fields}


_IDS = _subcommand("ids", _flag_fields("ids"))
_LYAPUNOV = _subcommand("lyapunov", _flag_fields("lyapunov"))


def _main_exit(argv):
    """(exit code, stderr) of cli.main(argv) in this process; any exception
    other than argparse's SystemExit fails the test as a traceback would."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a command-line value
            code = exc.code
    return code, err.getvalue()


def test_main_exits_cleanly_or_names_the_input(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a run with no out writes to ./results
    law = tmp_path / "law.csv"
    law.write_text("1,1\n1.5,2\n2,1\n")

    def fill(text):
        return text.format(tmp=tmp_path, law=law)

    def check(argv, labels):
        code, err = _main_exit([fill(a) for a in argv])
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err
        if code == 2:
            assert any(label in line for line in err.splitlines() for label in labels), (argv, err)

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(_RUN, _IDS, _LYAPUNOV))
    def one_command(case):
        if case[0] == "ids":
            case = case + ["--out={tmp}/ids.csv"]
        if case[0] != "run":
            check(case, [a.partition("=")[0] for a in case[1:]] + ["arguments "])
            return
        _, (ptype, options), experiment, flags, scale = case
        body = "[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in experiment.items())
        body += "[probe:p]\ntype = " + ptype + "\n"
        body += "".join(f"{k} = {v}\n" for k, v in options.items())
        (tmp_path / "guard.cfg").write_text(fill(body))
        values = {"--scale": scale, "--workers": "1", "--out": "{tmp}/res"}
        argv = ["run", str(tmp_path / "guard.cfg")]
        for flag in flags:
            argv += [flag] if flag == "--check" else [f"{flag}={values[flag]}"]
        check(argv, ["[experiment]", "[probe:p]", "probe p failed", *flags])

    one_command()
