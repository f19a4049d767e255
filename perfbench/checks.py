"""Output checks: determinism, recorded counts, and independent oracles.

Every operation (one probe section of one `randspec run`, or one library
call) either passes every check that applies to it or counts as failed:

* reports with `runtime_s` removed, and every CSV, are identical across all
  runs of a workload within one benchmark run;
* on the default seed, count-valued estimates equal `reference.json`;
* eigenvalues the spacing probe extracted agree to 1e-9 with scipy's
  `eigvalsh_tridiagonal` on draws regenerated with `make_draw`;
* api-small results match dense diagonalization (numpy / scipy).
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference.json"
TOL = 1e-9

# estimates that are integer counts divided by the sample size
COUNT_PREFIXES = (
    "p_hat[", "m_hat[", "p2_hat[", "p1_hat[", "p_joint", "p_first",
    "p_second", "event_mismatch", "mean_count[", "mean_first",
    "mean_second", "n_spacings",
)


# ---------------------------------------------------------------------------
# suite workloads


def section_outputs(out_dir: Path, sections) -> dict:
    """{section: canonical text of its report, curves and summary rows}.

    A section whose report is missing or whose summary row says ERROR maps
    to None.
    """
    out_dir = Path(out_dir)
    summary_rows = {}
    summary = out_dir / "summary.csv"
    if summary.is_file():
        for row in csv.reader(io.StringIO(summary.read_text())):
            summary_rows.setdefault(row[0], []).append(row)
    result = {}
    for name in sections:
        report = out_dir / f"{name}.json"
        rows = summary_rows.get(name, [])
        if not report.is_file() or any(r[-1] == "ERROR" for r in rows):
            result[name] = None
            continue
        data = json.loads(report.read_text())
        data.pop("runtime_s", None)
        parts = [json.dumps(data, sort_keys=True), json.dumps(rows)]
        for curve in sorted(out_dir.glob(f"{name}_*.csv")):
            parts.append(curve.name + "\n" + curve.read_text())
        result[name] = "\n".join(parts)
    return result


def count_estimates(canonical: str) -> dict:
    report = json.loads(canonical.split("\n", 1)[0])
    return {
        e["name"]: e["value"]
        for e in report["estimates"]
        if e["name"].startswith(COUNT_PREFIXES)
    }


def reference_entry(outputs: dict) -> dict:
    """{section: count-valued estimates}: one workload's entry in reference.json."""
    return {name: count_estimates(text) for name, text in outputs.items()}


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE.read_text())[workload]


def reference_mismatches(workload: str, outputs: dict) -> set:
    """Sections whose count-valued estimates differ from the reference."""
    ref = load_reference(workload)
    bad = set()
    for name, text in outputs.items():
        if text is None or count_estimates(text) != ref.get(name):
            bad.add(name)
    return bad


def spacing_oracle(captures, master: int, section: str, canonical: str) -> list:
    """Problems found comparing captured eigenvalues with scipy (empty: ok)."""
    from randspec.cli import probe_seed
    from randspec.operators import EnsembleSpec, make_draw

    params = workloads.SECTIONS[section]
    size = int(params["size"])
    spec = EnsembleSpec(params["kind"])
    seed = probe_seed(master, section)
    problems = []
    if not captures:
        return ["no eigenvalues captured from batched_eigenvalues_in"]
    spacings = 0
    offset = 0
    for cap in captures:
        draws = np.asarray(cap["draws"], dtype=np.int64)
        values = np.asarray(cap["values"], dtype=np.float64)
        lo_e, hi_e = np.nextafter([cap["lo"], cap["hi"]], np.inf)
        for r in range(cap["rows"]):
            draw = make_draw(spec, size, seed, offset + r)
            ref = scipy.linalg.eigvalsh_tridiagonal(
                draw.diag, draw.offdiag, select="v", select_range=(lo_e, hi_e)
            )
            got = np.sort(values[draws == r])
            if got.size != ref.size:
                problems.append(
                    f"draw {offset + r}: {got.size} eigenvalues, scipy {ref.size}"
                )
            elif got.size and np.max(np.abs(got - ref)) > TOL:
                problems.append(
                    f"draw {offset + r}: max |E - E_scipy| = "
                    f"{np.max(np.abs(got - ref)):.2e}"
                )
            spacings += max(ref.size - 1, 0)
        offset += cap["rows"]
    reported = count_estimates(canonical).get("n_spacings")
    if reported != float(spacings):
        problems.append(f"n_spacings {reported} != {spacings} from scipy")
    return problems


# ---------------------------------------------------------------------------
# api-small


def _dense_eigs(diag, offdiag):
    return scipy.linalg.eigvalsh_tridiagonal(np.asarray(diag), np.asarray(offdiag))


def _distance(diag, offdiag, energy):
    return float(np.min(np.abs(_dense_eigs(diag, offdiag) - energy)))


def _reduced_eigs(omega, energy):
    """Eigenvalues of R(E) = -Delta + cos sqrt(E) - (sin sqrt(E)/sqrt(E)) omega."""
    root = math.sqrt(energy)
    diag = math.cos(root) - (math.sin(root) / root) * np.asarray(omega)
    return _dense_eigs(diag, -np.ones(diag.size - 1))


def _thouless_gamma(law, energy, size=400, draws=40, seed=7):
    """Lyapunov exponent of the Anderson model from the Thouless formula,
    gamma(E) = lim (1/L) sum_j log|E - E_j|, with its standard error."""
    rng = np.random.default_rng(seed)
    vals = []
    for _ in range(draws):
        eigs = _dense_eigs(rng.uniform(law[0], law[1], size), np.ones(size - 1))
        vals.append(float(np.mean(np.log(np.abs(energy - eigs)))))
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(draws))


def api_oracle(call: dict, value) -> list:
    """Problems found comparing one library result with dense LAPACK."""
    fn = call["fn"]
    if fn == "nearest_eigenvalue_distance":
        ref = _distance(call["diag"], call["offdiag"], call["energy"])
        return [] if abs(value - ref) <= TOL else [f"distance {value} != {ref}"]
    if fn == "eigenvalues_in":
        eigs = _dense_eigs(call["diag"], call["offdiag"])
        ref = eigs[(eigs > call["lo"]) & (eigs <= call["hi"])]
        got = np.asarray(value)
        if got.size != ref.size:
            return [f"{got.size} eigenvalues in window, dense {ref.size}"]
        if got.size and np.max(np.abs(got - ref)) > TOL:
            return [f"eigenvalues differ by {np.max(np.abs(got - ref)):.2e}"]
        return []
    if fn == "eigenvector":
        # Inverse iteration stops after max_iter steps and reports its
        # residual r = |Hv - rho v|; the contract checked is the one r
        # certifies: rho within r of the eigenvalue the vector belongs to
        # (Krylov-Weinstein) and sin(angle) <= r / gap (Davis-Kahan).
        off = np.asarray(call["offdiag"])
        h = np.diag(call["diag"]) + np.diag(off, 1) + np.diag(off, -1)
        eigs, vecs = np.linalg.eigh(h)
        v = np.asarray(value["vector"])
        rho, resid = value["value"], value["residual"]
        overlaps = np.abs(vecs.T @ v)
        j = int(np.argmax(overlaps))
        problems = []
        if j != int(np.argmin(np.abs(eigs - call["energy"]))):
            problems.append("vector does not belong to the nearest eigenvalue")
        true_resid = float(np.linalg.norm(h @ v - rho * v))
        if abs(true_resid - resid) > TOL + 1e-6 * resid:
            problems.append(f"reported residual {resid:.3e}, actual {true_resid:.3e}")
        if abs(eigs[j] - rho) > TOL + resid:
            problems.append(f"eigenvalue {rho} != {eigs[j]} beyond residual {resid:.1e}")
        gap = float(np.min(np.abs(np.delete(eigs, j) - rho)))
        u = vecs[:, j]
        sin = float(np.linalg.norm(v - (u @ v) * u))
        if not value["flagged"] and sin > 1e-8 + resid / gap:
            problems.append(f"eigenvector angle {sin:.2e} beyond r/gap {resid / gap:.2e}")
        return problems
    if fn == "split_box_search":
        diag, off = np.asarray(call["diag"]), np.asarray(call["offdiag"])
        size, sep, center = diag.size, call["separation"], value["center"]
        left = [_distance(diag[:x], off[: x - 1], center) for x in range(1, size - sep + 1)]
        right = [
            _distance(diag[y - 1:], off[y - 1:], center)
            for y in range(1 + sep, size + 1)
        ]
        best = min(
            max(left[i], right[j])
            for i in range(len(left))
            for j in range(i, len(right))
        )
        eigs = _dense_eigs(diag, off)
        eps = call["epsilon"]
        n_win = int(np.sum((eigs > center - eps) & (eigs <= center + eps)))
        problems = []
        if abs(value["achieved"] - best) > TOL:
            problems.append(f"achieved {value['achieved']} != dense optimum {best}")
        if abs(value["d_left"] - left[value["x_minus"] - 1]) > TOL:
            problems.append("d_left differs from the dense sub-box distance")
        if value["window_count"] != n_win:
            problems.append(f"window count {value['window_count']} != {n_win}")
        if value["meets_target"] != (best <= call["delta_target"]):
            problems.append("meets_target disagrees with the dense optimum")
        return problems
    if fn == "graph_eigenvalues":
        problems = []
        for e in value:
            resid = float(np.min(np.abs(_reduced_eigs(call["omega"], e))))
            if resid > 1e-7:
                problems.append(f"root {e}: dense |g| = {resid:.2e}")
        grid = np.linspace(call["window"][0], call["window"][1], 4001)
        neg = [int(np.sum(_reduced_eigs(call["omega"], e) < 0)) for e in grid]
        crossings = int(np.sum(np.abs(np.diff(neg))))
        if crossings != len(value):
            problems.append(f"{len(value)} roots, dense scan finds {crossings}")
        return problems
    if fn == "lyapunov":
        ref, ref_se = _thouless_gamma(call["law"], call["energy"])
        tol = 5.0 * math.hypot(value["stderr"], ref_se) + 2.0 / 400
        if abs(value["gamma"] - ref) > tol:
            return [f"gamma {value['gamma']:.4f} vs Thouless {ref:.4f} (tol {tol:.4f})"]
        return []
    return [f"no oracle for {fn}"]
