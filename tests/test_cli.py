"""Config parsing, the experiment runner, and the utility subcommands."""

import csv
import hashlib
import inspect
import json

import numpy as np
import pytest

from randspec import FiniteProfile, GeometricProfile, IdsTable, UniformLaw, probes
from randspec.cli import (
    PROBES,
    ConfigError,
    Section,
    _evaluate_checks,
    _fmt,
    _parse_law,
    _parse_profile,
    load_config,
    main,
    parse_probe,
    probe_seed,
)
from randspec.probes import Estimate, ProbeReport


# ---------------------------------------------------------------------------
# helpers


def test_probe_seed_derivation():
    digest = hashlib.sha256(b"alpha").digest()
    want = (12345 ^ int.from_bytes(digest[:8], "big")) & (2**63 - 1)
    assert probe_seed(12345, "alpha") == want
    assert probe_seed(12345, "alpha") != probe_seed(12345, "beta")
    assert probe_seed(1, "alpha") != probe_seed(2, "alpha")
    assert 0 <= probe_seed(2**62, "x") < 2**63


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
    prof = _parse_profile("geometric:2.0,0.7")  # amplitude, rate
    assert prof == GeometricProfile(rate=0.7, amplitude=2.0)
    with pytest.raises(ConfigError):
        _parse_profile("cauchy:1")


def test_evaluate_checks():
    rep = ProbeReport(
        "demo", {}, [Estimate("slope", 1.05), Estimate("bad", float("nan"))],
        10, 0, 0.0,
    )
    rows = _evaluate_checks(
        rep,
        [
            ("slope", "min", 0.9),
            ("slope", "max", 1.0),
            ("bad", "min", 0.0),
            ("missing", "max", 1.0),
        ],
    )
    assert rows[0] == ("slope", "min", 0.9, 1.05, True)
    assert rows[1] == ("slope", "max", 1.0, 1.05, False)
    assert rows[2][4] is False  # NaN never passes
    assert rows[3] == ("missing", "max", 1.0, None, False)


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
workers = 3

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
    seed, out, workers, sections = load_config(path)
    assert (seed, out, workers) == (42, "outdir", 3)
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


def test_load_config_defaults_and_errors(tmp_path):
    path = _write_config(tmp_path, "[experiment]\nseed = 7\n")
    seed, out, workers, sections = load_config(path)
    assert (seed, out, workers, sections) == (7, "results", None, [])
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
    _, _, _, (sec,) = load_config(path)
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
    _, _, _, (sec,) = load_config(path)
    with pytest.raises(ConfigError, match=r"\[probe:p\] check_slope: .*_min or _max"):
        parse_probe(sec)


def test_paper_suite_config_bundled():
    seed, out, workers, sections = load_config("paper-suite")
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


def test_run_env_workers(tmp_path, monkeypatch):
    monkeypatch.setenv("RANDSPEC_WORKERS", "2")
    cfg = _write_config(tmp_path, _SMALL_SUITE)
    out = tmp_path / "res"
    assert main(["run", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "weg.json").read_text())
    assert rep["samples"] == 300


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
        ("experiment", "workers", "four", "[experiment] workers"),
        ("experiment", "workers", "0", "[experiment] workers"),
        ("experiment", "seed", "1.5", "[experiment] seed"),
        ("experiment", "outdir", "x", "[experiment] unknown fields: outdir"),
        ("w", "type", "nope", "[probe:w] type"),
        ("w", "samples", "0", "[probe:w] samples"),
        ("w", "samples", "2.5", "[probe:w] samples"),
        ("w", "size", "0", "[probe:w] size"),
        ("w", "energy", "inf", "[probe:w] energy"),
        ("w", "widths", "nan,0.1", "[probe:w] widths"),
        ("w", "widths", "0.1,-0.2", "[probe:w] widths"),
        ("w", "widths", ",", "[probe:w] widths"),
        ("w", "kind", "gaussian", "[probe:w] kind"),
        ("w", "law", "gaussian:0,1", "[probe:w] law"),
        ("w", "law", "piecewise:no-such-file.csv", "[probe:w] law"),
        ("w", "profile", "finite:1", "[probe:w] kind/law/profile/margin"),
        ("w", "margin", "-1", "[probe:w] margin"),
        ("w", "check_slope_min", "nan", "[probe:w] check_slope_min"),
        ("d", "disjoint", "maybe", "[probe:d] disjoint"),
        ("d", "half_width", "0", "[probe:d] half_width"),
        ("l", "size", "99", "[probe:l] size"),
        ("l", "intervals", "1:1", "[probe:l] intervals"),
        ("l", "intervals", "0:1,2", "[probe:l] intervals"),
        ("l", "collect", "-1", "[probe:l] collect"),
        ("l", "ids_points", "1", "[probe:l] ids_points"),
        ("l", "ids_samples", "4", "[probe:l] ids_samples"),
        ("s", "ids_half_width", "0.5", "[probe:s] unknown fields: ids_half_width"),
        ("q", "kind", "anderson", "[probe:q] unknown fields: kind"),
        ("q", "energy", "-1", "[probe:q] energy"),
        ("q", "width_scale", "-0.5", "[probe:q] width_scale"),
        ("argv", "--scale", "-1", "--scale"),
        ("argv", "--scale", "nan", "--scale"),
        ("argv", "--scale", "0", "--scale"),
        ("argv", "--workers", "0", "--workers"),
        ("env", "RANDSPEC_WORKERS", "x", "RANDSPEC_WORKERS"),
        ("env", "RANDSPEC_WORKERS", "0", "RANDSPEC_WORKERS"),
    ],
)
def test_run_rejects_bad_input(tmp_path, capsys, monkeypatch, where, field, text, label):
    experiment = {"seed": "1"}
    sections = {"w": dict(_VALID["w"])}
    argv = []
    if where == "experiment":
        experiment[field] = text
    elif where == "argv":
        argv = [field, text]
    elif where == "env":
        monkeypatch.setenv(field, text)
    else:
        sections = {where: {**_VALID[where], field: text}}
    body = "[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in experiment.items())
    for name, options in sections.items():
        body += f"[probe:{name}]\n" + "".join(f"{k} = {v}\n" for k, v in options.items())
    cfg = _write_config(tmp_path, body)
    try:
        code = main(["run", cfg, "--out", str(tmp_path / "res"), *argv])
    except SystemExit as exc:  # argparse rejects command-line values
        code = exc.code
    assert code == 2
    assert label in capsys.readouterr().err


# ---------------------------------------------------------------------------
# utility subcommands


def test_list_probes_prints_registry(capsys, monkeypatch):
    monkeypatch.setenv("RANDSPEC_WORKERS", "x")  # read only by commands that run
    assert main(["list-probes"]) == 0
    out = capsys.readouterr().out
    for name in (
        "wegner", "minami", "decorrelation", "level_statistics",
        "joint_independence", "spacing", "qgraph-minami",
    ):
        assert name in out


# a valid value for every field name any probe type takes
_EXAMPLES = {
    "kind": "alloy", "law": "uniform:0,1", "profile": "finite:1", "margin": "1",
    "size": "100", "samples": "10", "energy": "4.0", "widths": "0.1,0.2",
    "energy_a": "0.5", "energy_b": "-0.5", "half_width": "0.5", "disjoint": "true",
    "intervals": "0:1", "collect": "2", "ids_half_width": "0.5", "ids_points": "11",
    "ids_samples": "16", "length_a": "1", "length_b": "2", "width_scale": "0.5",
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
    table = IdsTable.from_csv(out)
    assert table.energies.size == 21
    assert table.energies[0] == -2.0 and table.energies[-1] == 3.0
    assert np.all(np.diff(table.values) >= 0)


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
        (_LYAPUNOV_ARGV, "--steps", "100", "--steps"),
        (_LYAPUNOV_ARGV, "--steps", "2e3", "--steps"),
        (_LYAPUNOV_ARGV, "--samples", "1", "--samples"),
        (_LYAPUNOV_ARGV, "--seed", "-1", "--seed"),
        (_LYAPUNOV_ARGV, "--energy", "nan", "--energy"),
        (_LYAPUNOV_ARGV, "--workers", "2", "unrecognized arguments: --workers"),
        (_IDS_ARGV, "--samples", "0", "--samples"),
        (_IDS_ARGV, "--size", "99", "--size"),
        (_IDS_ARGV, "--points", "1", "--points"),
        (_IDS_ARGV, "--seed", "-1", "--seed"),
        (_IDS_ARGV, "--workers", "0", "--workers"),
        (_IDS_ARGV, "--min", "inf", "--min"),
        (_IDS_ARGV, "--max", "-2", "--min = -2, --max = -2"),
    ],
)
def test_subcommand_rejects_bad_flag(tmp_path, capsys, base, flag, text, label):
    # the last occurrence of a flag wins, so each row overrides one valid value
    try:
        code = main([*base, "--out", str(tmp_path / "ids.csv"), flag, text]
                    if base is _IDS_ARGV else [*base, flag, text])
    except SystemExit as exc:  # argparse rejects command-line values
        code = exc.code
    assert code == 2
    assert label in capsys.readouterr().err
