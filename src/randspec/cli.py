"""Experiment runner: INI config in, deterministic reports out.

Config grammar (INI):

    [experiment]
    seed = 12345            ; mandatory master seed
    out = results           ; output directory (overridden by --out)

    [probe:some_name]       ; one section per probe invocation
    type = wegner           ; one of the probe types in PROBES
    kind = anderson         ; ensemble kind; qgraph-minami takes no kind,
    law = uniform:0,1       ;   only a law (optional; defaults per kind)
    size = 100
    samples = 100000
    energy = 0.0
    widths = 1e-4,1e-3,1e-2 ; width-scan probes
    check_slope_min = 0.9   ; optional bounds on named estimates,
    check_slope_max = 1.1   ; evaluated under --check

`randspec list-probes` prints every field of every type with its format,
default and allowed range; any other field or value is rejected.

Each probe writes <name>.json (canonical apart from runtime_s) plus
plot-ready CSVs, and one combined summary.csv. Per-probe seeds are derived
from the master seed and the probe name, so adding or reordering sections
never changes another probe's numbers. Exit codes: 0 all probes ran (checks
pass or not requested), 1 a --check bound failed, 2 a probe raised or an
input was rejected.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import hashlib
import importlib.resources
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import probes, transfer
from .ids import estimate_ids
from .operators import (
    KINDS, EnsembleSpec, FiniteProfile, PiecewiseLinearLaw, UniformLaw,
)

class ConfigError(ValueError):
    """Rejected input, annotated with section/field."""


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


# ---------------------------------------------------------------------------
# field parsers: text -> value, ValueError when the text does not parse.
# The docstring names the accepted format for messages and list-probes.


def _int(text):
    """integer"""
    return int(text)


def _float(text):
    """finite number"""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(text)
    return x


def _floats(text):
    """comma-separated finite numbers"""
    out = [_float(t) for t in text.split(",") if t.strip()]
    if not out:
        raise ValueError(text)
    return out


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _bool(text):
    """true/false (or yes/no, on/off, 1/0)"""
    if text.lower() not in _BOOLS:
        raise ValueError(text)
    return _BOOLS[text.lower()]


def _intervals(text):
    """comma-separated a:b pairs with a < b"""
    pairs = [tuple(_float(x) for x in part.split(":")) for part in text.split(",")]
    if not all(len(pair) == 2 and pair[0] < pair[1] for pair in pairs):
        raise ValueError(text)
    return pairs


def _kind(text):
    if text not in KINDS:
        raise ValueError(text)
    return text


_kind.__doc__ = "one of " + ", ".join(KINDS)


def _parse_law(text: str):
    """uniform:lo,hi or piecewise:FILE"""
    head, _, rest = text.partition(":")
    if head == "uniform":
        lo, hi = (float(t) for t in rest.split(","))
        return UniformLaw(lo, hi)
    if head == "piecewise":
        try:
            return PiecewiseLinearLaw.from_csv(rest)
        except ValueError as exc:  # a malformed file: the message names its line
            raise ConfigError(exc) from None
    raise ConfigError(f"unknown law {head!r}; expected {_parse_law.__doc__}")


def _parse_profile(text: str):
    """finite:v-r,...,vr"""
    head, _, rest = text.partition(":")
    if head == "finite":
        return FiniteProfile(tuple(float(t) for t in rest.split(",")))
    raise ConfigError(f"unknown profile {head!r}; expected {_parse_profile.__doc__}")


REQUIRED = object()  # default of a field that must be given


@dataclass(frozen=True)
class Field:
    """One typed input: its parser, its default text (REQUIRED, or None for
    "not passed"), the range every number in it must lie in (> gt, >= ge),
    and whether --scale multiplies it (the result is clamped up to ge)."""

    parse: Callable
    default: str | None | object = REQUIRED
    gt: float | None = None
    ge: float | None = None
    scaled: bool = False

    def bound(self) -> str:
        return f"> {self.gt:g}" if self.gt is not None else f">= {self.ge:g}"

    def describe(self) -> str:
        parts = [self.parse.__doc__, "required" if self.default is REQUIRED else
                 "optional" if self.default is None else f"default {self.default}"]
        if self.gt is not None or self.ge is not None:
            parts.append(self.bound())
        if self.scaled:
            parts.append("multiplied by --scale")
        return ", ".join(parts)


def _value(label: str, field: Field, text: str, error=ConfigError):
    """Parsed and range-checked value of one input; errors name `label`."""
    try:
        value = field.parse(text)
    except (OSError, ConfigError) as exc:  # a file's error, or a parser's own message
        raise error(f"{label} = {text!r}: {exc}") from None
    except ValueError:
        raise error(f"{label} = {text!r}: expected {field.parse.__doc__}") from None
    for x in value if isinstance(value, list) else [value]:
        if (field.gt is not None and not x > field.gt) or (
            field.ge is not None and not x >= field.ge
        ):
            raise error(f"{label} = {text!r}: must be {field.bound()}")
    return value


def _arg(field: Field):
    """argparse type that parses and range-checks like a config field."""
    return functools.partial(_value, "value", field, error=argparse.ArgumentTypeError)


def _parse_fields(where: str, options, fields: dict) -> dict:
    """{field: value} for one section; every error names `where` and the field."""
    unknown = sorted(set(options) - set(fields))
    if unknown:
        raise ConfigError(f"{where} unknown fields: {', '.join(unknown)}")
    values = {}
    for key, field in fields.items():
        text = options.get(key, field.default)
        if text is REQUIRED:
            raise ConfigError(f"{where} missing required field {key!r}")
        values[key] = None if text is None else _value(f"{where} {key}", field, text)
    return values


# ---------------------------------------------------------------------------
# the probe table


_WORKERS = Field(_int, "1", ge=1)
_SCALE = Field(_float, gt=0)
_BOUND = Field(_float)
_ENSEMBLE = {"kind": Field(_kind), "law": Field(_parse_law, None),
             "profile": Field(_parse_profile, None)}
_BOX = {"size": Field(_int, ge=1), "samples": Field(_int, ge=1, scaled=True)}
_IDS_BOX = {**_BOX, "size": Field(_int, ge=100)}  # estimate_ids needs L >= 100
_ENERGY = Field(_float)
_WIDTHS = Field(_floats, gt=0)
_IDS_SAMPLES = Field(_int, "2048", ge=8, scaled=True)
_IDS = {"ids_points": Field(_int, "161", ge=2), "ids_samples": _IDS_SAMPLES}


def _width_curve(header, *stats):
    """Emitter of <name>_curve.csv: per width, each statistic and its CI."""

    def emit(name, kwargs, report):
        rows = [header]
        by_name = {e.name: e for e in reversed(report.estimates)}  # first match, as estimate()
        for w in kwargs["widths"]:
            row = [w]
            for stat in stats:
                e = by_name[f"{stat}[{w:.6g}]"]
                row += [e.value, *e.ci]
            rows.append(row)
        return report, {f"{name}_curve.csv": rows}

    return emit


def _points_curve(name, kwargs, result):
    report, draws = result
    rows = [("draw", "xi")] + [(r, float(x)) for r, points in enumerate(draws) for x in points]
    return report, ({f"{name}_points.csv": rows} if draws else {})


def _ecdf_curve(name, kwargs, result):
    report, spacings = result
    srt = np.sort(spacings)
    rows = [("spacing", "ecdf")]
    rows += [(float(x), (i + 1) / srt.size) for i, x in enumerate(srt)]
    return report, {f"{name}_ecdf.csv": rows}


@dataclass(frozen=True)
class ProbeType:
    """A config probe type: the `randspec.probes` function it calls (looked up
    at call time), the claim it tests, its fields (named like the function's
    parameters; kind/law/profile become `spec`), and its optional
    curve emitter (section name, kwargs, probe result) -> (report, CSVs)."""

    function: str
    claim: str
    fields: dict
    curves: Callable | None = None


PROBES = {
    "wegner": ProbeType(
        "wegner_probe",
        "single-window occupancy P[count >= 1] scales linearly in the "
        "window width (slope 1 log-log), with constant <= C |J| L",
        {**_ENSEMBLE, **_BOX, "energy": _ENERGY, "widths": _WIDTHS},
        _width_curve(("width", "p_hat", "ci_lo", "ci_hi"), "p_hat"),
    ),
    "minami": ProbeType(
        "minami_probe",
        "excess E[max(count-1, 0)] scales quadratically in the width for "
        "independent potentials (slope 2); couplings-only disorder at a "
        "band edge keeps slope >= 3/2",
        {**_ENSEMBLE, **_BOX, "energy": _ENERGY, "widths": _WIDTHS},
        _width_curve(
            ("width", "m_hat", "m_lo", "m_hi", "p2_hat", "p2_lo", "p2_hi"),
            "m_hat", "p2_hat",
        ),
    ),
    "decorrelation": ProbeType(
        "decorrelation_probe",
        "windows at two energies with |E| != |E'| are occupied jointly at "
        "the product rate (independence ratio -> 1); mirrored energies in "
        "the pure hopping model make the events identical (control)",
        {
            **_ENSEMBLE, **_BOX, "energy_a": _ENERGY, "energy_b": _ENERGY,
            "half_width": Field(_float, None, gt=0),
            "disjoint": Field(_bool, "false"),
        },
    ),
    "level_statistics": ProbeType(
        "level_statistics_probe",
        "unfolded eigenvalue counts near a localized energy converge to a "
        "Poisson process: per-interval counts are Poisson(|I|) in total "
        "variation and disjoint intervals decorrelate",
        {
            **_ENSEMBLE, **_IDS_BOX, "energy": _ENERGY,
            "intervals": Field(_intervals, "0:1,1:2,0:2"),
            "collect": Field(_int, "0", ge=0),
            **_IDS,
        },
        _points_curve,
    ),
    "joint_independence": ProbeType(
        "joint_independence_probe",
        "count processes at two distinct energies converge to independent "
        "Poisson processes: joint pmf matches the product law",
        {
            **_ENSEMBLE, **_IDS_BOX, "energy_a": _ENERGY, "energy_b": _ENERGY,
            "length_a": Field(_float, "1.0", gt=0),
            "length_b": Field(_float, "1.0", gt=0),
            **_IDS,
        },
    ),
    "spacing": ProbeType(
        "spacing_probe",
        "unfolded nearest-neighbour spacings L(N(E_{j+1}) - N(E_j)) are "
        "asymptotically exponential(1): KS to e^{-x} small, mean 1",
        {
            **_ENSEMBLE, **_IDS_BOX, "energy": _ENERGY,
            "half_width": Field(_float, "2.0", gt=0),
            "ids_points": Field(_int, "301", ge=2),
            "ids_samples": _IDS_SAMPLES,
        },
        _ecdf_curve,
    ),
    "qgraph-minami": ProbeType(
        "qgraph_minami_probe",
        "window counts of the reduced quantum-graph operator at fixed "
        "energy scale like (width L)^k for k = 1, 2 eigenvalues, with the "
        "vertex-coupling scale factor |sin(sqrt E)|/sqrt(E)",
        {
            "law": Field(_parse_law, "uniform:0,1"), **_BOX,
            "energy": Field(_float, gt=0), "widths": _WIDTHS,
        },
        _width_curve(
            ("width", "p1_hat", "p1_lo", "p1_hi", "p2_hat", "p2_lo", "p2_hi"),
            "p1_hat", "p2_hat",
        ),
    ),
}


# ---------------------------------------------------------------------------
# config parsing


class Section(NamedTuple):
    """One [probe:NAME] section: its name and its raw text fields."""

    name: str
    options: dict


_EXPERIMENT = {"seed": Field(_int), "out": Field(str, "results")}


def load_config(path: str):
    """Parse an experiment config; returns (master_seed, out_dir, [probe sections])."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # estimate names in check keys are case-sensitive
    if path == "paper-suite":
        cfg = importlib.resources.files("randspec") / "configs/paper_suite.cfg"
        parser.read_string(cfg.read_text(), source="paper-suite")
    else:
        try:
            if not parser.read(path, encoding="utf-8"):
                raise ConfigError(f"cannot read config file {path!r}")
        except UnicodeDecodeError:
            raise ConfigError(f"config file {path!r}: not UTF-8 text") from None
        except configparser.Error as exc:  # its message names the file and the line
            raise ConfigError(" ".join(str(exc).split())) from None
    if "experiment" not in parser:
        raise ConfigError("config needs an [experiment] section")
    exp = _parse_fields("[experiment]", parser["experiment"], _EXPERIMENT)
    sections = []
    for sec_name in parser.sections():
        head, _, name = sec_name.partition(":")
        if head == "probe" and name:
            sections.append(Section(name, dict(parser[sec_name])))
        elif sec_name != "experiment":
            raise ConfigError(f"unexpected section [{sec_name}]; use [probe:NAME]")
    return exp["seed"], exp["out"], sections


def _ensemble(where, kind, law=None, profile=None) -> EnsembleSpec:
    try:
        return EnsembleSpec(kind, law=law, profile=profile)
    except ValueError as exc:
        raise ConfigError(f"{where} kind/law/profile: {exc}") from None


def parse_probe(sec: Section, scale: float = 1.0):
    """(probe type, probe keyword arguments, check triples) for one section.

    Check triples are (estimate name, 'min' | 'max', bound) from the
    check_<estimate>_min/_max fields.
    """
    where = f"[probe:{sec.name}]"
    options = dict(sec.options)
    ptype = options.pop("type", None)
    if ptype not in PROBES:
        raise ConfigError(f"{where} type = {ptype!r}: unknown probe type; see list-probes")
    checks = []
    for key in [k for k in options if k.startswith("check_")]:
        est, _, which = key[len("check_"):].rpartition("_")
        if not est or which not in ("min", "max"):
            raise ConfigError(f"{where} {key}: check keys end in _min or _max")
        checks.append((est, which, _value(f"{where} {key}", _BOUND, options.pop(key))))
    probe = PROBES[ptype]
    kwargs = _parse_fields(where, options, probe.fields)
    for key, field in probe.fields.items():
        if field.scaled:
            try:
                kwargs[key] = max(field.ge, round(kwargs[key] * scale))
            except OverflowError:  # the count times --scale is no finite float
                raise ConfigError(f"{where} {key}: too large") from None
    if "kind" in kwargs:
        kwargs["spec"] = _ensemble(
            where, *(kwargs.pop(k) for k in ("kind", "law", "profile"))
        )
    return probe, kwargs, checks


def probe_seed(master: int, name: str) -> int:
    """Per-probe seed: stable under adding/reordering other probes."""
    digest = hashlib.sha256(name.encode()).digest()
    return (master ^ int.from_bytes(digest[:8], "big")) & (2**63 - 1)


# ---------------------------------------------------------------------------
# probe execution


def _write_csv(path: Path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def cmd_run(args) -> int:
    master, out_dir, sections = load_config(args.config)
    out = Path(args.out or out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        where = "--out" if args.out else "[experiment] out"
        raise ConfigError(f"{where} = {str(out)!r}: not a directory ({exc.strerror})") from None
    summary = [
        ("probe", "type", "estimate", "value", "ci_lo", "ci_hi",
         "check", "bound", "status")
    ]
    any_error = any_check_failed = False
    for sec in sections:
        ptype = sec.options.get("type", "?")
        try:
            probe, kwargs, checks = parse_probe(sec, args.scale)
            result = getattr(probes, probe.function)(
                **kwargs, seed=probe_seed(master, sec.name), workers=args.workers
            )
            report, curves = (
                probe.curves(sec.name, kwargs, result) if probe.curves else (result, {})
            )
        except Exception as exc:  # isolate probe failures
            any_error = True
            print(f"probe {sec.name} failed: {exc}", file=sys.stderr)
            summary.append((sec.name, ptype, "error", str(exc), "", "", "", "", "ERROR"))
            continue
        (out / f"{sec.name}.json").write_text(report.to_json())
        for fname, rows in curves.items():
            _write_csv(out / fname, rows)
        bounds = {}  # estimate -> [(min | max, bound)]; NaN passes no bound
        for est_name, which, bound in checks:
            bounds.setdefault(est_name, []).append((which, bound))
        for est in report.estimates:
            lo, hi = est.ci if est.ci is not None else ("", "")
            for which, bound in bounds.get(est.name, [("", "")]):
                status = ""
                if which:
                    ok = est.value >= bound if which == "min" else est.value <= bound
                    any_check_failed |= not ok
                    status = "PASS" if ok else "FAIL"
                summary.append((sec.name, ptype, est.name, est.value, lo, hi,
                                which, bound, status))
        reported = {est.name for est in report.estimates}
        for est_name, entries in bounds.items():
            if est_name not in reported:
                any_check_failed = True
                summary += [(sec.name, ptype, est_name, "missing", "", "", which, bound, "FAIL")
                            for which, bound in entries]
    _write_csv(out / "summary.csv", summary)
    if any_error:
        return 2
    if args.check and any_check_failed:
        return 1
    return 0


def cmd_list_probes(args) -> int:
    for name, probe in PROBES.items():
        print(name)
        print(f"  tests: {probe.claim}")
        print("  params:")
        for key, field in probe.fields.items():
            print(f"    {key}: {field.describe()}")
    print("every type also takes check_<estimate>_min/_max bounds (see --check)")
    return 0


def cmd_ids(args) -> int:
    with np.errstate(all="ignore"):  # an overflowing step leaves a non-finite grid
        grid = np.linspace(args.min, args.max, args.points)
        increasing = np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)
    if not increasing:  # also --min >= --max
        raise ConfigError(
            f"--min = {args.min:g}, --max = {args.max:g}, --points = {args.points}: "
            "the grid is not finite and strictly increasing"
        )
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():  # checked before the estimate runs
        raise ConfigError(f"--out = {args.out!r}: not a file in an existing directory")
    spec = _ensemble("arguments", args.kind, args.law, args.profile)
    table = estimate_ids(spec, args.size, args.samples, grid, seed=args.seed,
                         workers=args.workers)
    table.to_csv(args.out)
    print(f"wrote {args.points}-point table to {args.out}")
    return 0


def cmd_lyapunov(args) -> int:
    spec = _ensemble("arguments", args.kind, args.law, args.profile)
    try:
        est = transfer.lyapunov(
            spec, args.energy, steps=args.steps, samples=args.samples, seed=args.seed
        )
    except ValueError as exc:  # a product that overflows or vanishes at this law and energy
        raise ConfigError(f"--law and --energy: {exc}") from None
    payload = {
        "gamma": est.gamma, "stderr": est.stderr, "ci99": list(est.ci99),
        "steps": est.steps, "samples": est.samples, "energy": args.energy,
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _flag(p, name: str, field: Field):
    """Add --name, parsed and range-checked by `field`; errors name the flag."""
    required = field.default is REQUIRED
    p.add_argument(f"--{name}", type=_arg(field), required=required,
                   default=None if required else field.default, help=field.describe())


def _add_spec_args(p, samples: Field, kinds=KINDS):
    p.add_argument("--kind", required=True, choices=kinds)
    for key in ("law", "profile"):
        _flag(p, key, _ENSEMBLE[key])
    _flag(p, "samples", samples)
    _flag(p, "seed", Field(_int, "0", ge=0))


def _parser() -> argparse.ArgumentParser:
    """The command line: run, list-probes, ids and lyapunov."""
    parser = argparse.ArgumentParser(
        prog="randspec",
        description="Monte Carlo laboratory for random tridiagonal operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the probes in a config file")
    p_run.add_argument("config", help="config path, or 'paper-suite' for the bundled suite")
    p_run.add_argument("--check", action="store_true", help="evaluate check_* bounds")
    _flag(p_run, "workers", _WORKERS)
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument(
        "--scale", type=_arg(_SCALE), default=1.0,
        help="multiply all sample counts (smoke-test factor; estimates keep "
             "their meaning, bounds may fail at reduced scale)",
    )
    p_run.set_defaults(fn=cmd_run)

    p_list = sub.add_parser("list-probes", help="show the probe types and their fields")
    p_list.set_defaults(fn=cmd_list_probes)

    p_ids = sub.add_parser("ids", help="estimate an integrated density of states table")
    _add_spec_args(p_ids, Field(_int, "64", ge=1))
    _flag(p_ids, "workers", _WORKERS)
    _flag(p_ids, "size", _IDS_BOX["size"])
    _flag(p_ids, "min", Field(_float))
    _flag(p_ids, "max", Field(_float))
    _flag(p_ids, "points", Field(_int, "201", ge=2))
    p_ids.add_argument("--out", default="ids.csv")
    p_ids.set_defaults(fn=cmd_ids)

    p_ly = sub.add_parser("lyapunov", help="estimate a Lyapunov exponent")
    lyapunov_kinds = [k for k in KINDS if k in transfer._STEP_TABLE]
    _add_spec_args(p_ly, Field(_int, "64", ge=2), lyapunov_kinds)
    _flag(p_ly, "energy", _ENERGY)
    _flag(p_ly, "steps", Field(_int, "2000", ge=1000))  # transfer.lyapunov's minimum
    p_ly.set_defaults(fn=cmd_lyapunov)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
