"""Experiment orchestration: validated manifests, a registry of module
operations, and deterministic CSV/JSON reports.

A manifest names one operation and a parameter grid; each grid row becomes a
report row.  Row failures are recorded and the run continues: rows that break
an assertion-class invariant (closed forms, reproduction bounds, structural
checks) drive the exit code to 1, anything else stays 0.  CSV output contains
only deterministic columns so re-runs are byte-identical; wall times go to the
JSON twin.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .besov import class_series_verdict
from .errors import (
    NotMedianError,
    StructureViolationError,
    TailBoundExceededError,
)
from .hankel import class_spec, rank_one_geom, s1_estimate
from .medgraph import (
    attach_ray,
    cayley_ball,
    coset_tree,
    median,
    median_complex,
    product_graph,
    serre_embedding,
    serre_shift,
    tree_ball,
)
from .mlab import (
    cb_norm_sdp,
    radial_kernel,
    sandwich_check,
    separable_multiradial_T,
    tree_product_witness,
)
from .symbols import CATALOG, make_symbol

__all__ = [
    "DEFAULTS",
    "ExperimentManifest",
    "ReportRow",
    "RunResult",
    "built_in_manifest",
    "manifest_from_json",
    "parse_graph",
    "run_manifest",
    "write_reports",
]

# recorded in every JSON report so rows stay recomputable from the file alone
DEFAULTS = {"sizes": (64, 128, 256, 512), "tol": 1e-6, "grid": 1 << 14,
            "K": 16, "R": 3}


# ---------------------------------------------------------------------------
# graph expressions


def _split_args(body: str) -> list:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return [p.strip() for p in parts if p.strip()]


def parse_graph(expr: str):
    """Small grammar for --graph: T<k>ball(R), cayley(R), product(e, e, ...)."""
    expr = expr.strip()
    if "(" not in expr or not expr.endswith(")"):
        raise ValueError(f"cannot parse graph expression {expr!r}")
    head, body = expr.split("(", 1)
    body = body[:-1]
    head = head.strip()
    if head == "product":
        factors = [parse_graph(a) for a in _split_args(body)]
        if not factors:
            raise ValueError("product() needs at least one factor")
        return product_graph(factors)
    if head == "cayley":
        return cayley_ball(int(body))
    if head.startswith("T") and head.endswith("ball"):
        degree = int(head[1:-4])
        if degree < 3:
            raise ValueError(f"tree degree must be at least 3 in {expr!r}")
        return tree_ball(degree - 1, int(body)).graph
    raise ValueError(f"unknown graph constructor {head!r}")


# ---------------------------------------------------------------------------
# manifests


@dataclass(frozen=True)
class ExperimentManifest:
    """One operation, one parameter grid, shared truncation settings."""

    experiment: str
    operation: str
    grid: Tuple[Mapping, ...]
    sizes: Tuple[int, ...] = DEFAULTS["sizes"]
    tol: float = DEFAULTS["tol"]
    out: str = "report"
    seed: int = 0

    def __post_init__(self):
        if self.operation not in _OPERATIONS:
            raise ValueError(f"unknown operation {self.operation!r}; "
                             f"known: {sorted(_OPERATIONS)}")
        sizes = tuple(int(s) for s in self.sizes)
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"sizes must be strictly increasing, got {sizes}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "grid", tuple(dict(row) for row in self.grid))
        for row in self.grid:
            name = row.get("symbol")
            if name is not None and name not in CATALOG:
                raise ValueError(f"unknown symbol id {name!r} in grid")


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    operation: str
    params: Mapping
    values: Mapping
    verdicts: Mapping
    provenance: Mapping
    wall_time: float
    status: str = "ok"
    message: str = ""


@dataclass(frozen=True)
class RunResult:
    manifest: ExperimentManifest
    rows: Tuple[ReportRow, ...]
    exit_code: int
    csv_path: Optional[Path] = None
    json_path: Optional[Path] = None


def manifest_from_json(text) -> ExperimentManifest:
    """Load a manifest; keys outside `ExperimentManifest`'s fields are refused."""
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError(f"a manifest is a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - {f.name for f in fields(ExperimentManifest)})
    if unknown:
        raise ValueError(f"unknown manifest keys {unknown}")
    return ExperimentManifest(
        experiment=raw["experiment"],
        operation=raw["operation"],
        grid=tuple(raw.get("grid", ())),
        sizes=tuple(raw.get("sizes", DEFAULTS["sizes"])),
        tol=float(raw.get("tol", DEFAULTS["tol"])),
        out=raw.get("out", "report"),
        seed=int(raw.get("seed", 0)),
    )


def built_in_manifest(name: str) -> ExperimentManifest:
    """The two named grids shipped with the workbench."""
    if name == "inclusions":
        grid = []
        for level in (1, 2):
            for tag in ("A", "B", "C"):
                grid.extend([
                    {"symbol": "GEOM", "params": [0.5], "level": level, "tag": tag},
                    {"symbol": "PARITY", "params": [], "level": level, "tag": tag},
                    {"symbol": "ALT_POWER", "params": [level + 0.5],
                     "level": level, "tag": tag},
                    {"symbol": "I_POWER", "params": [1.0], "level": level, "tag": tag},
                    {"symbol": "POWER", "params": [1.5], "level": level, "tag": tag},
                    {"symbol": "PARTIAL_SUM", "params": [level],
                     "level": level, "tag": tag},
                ])
        return ExperimentManifest("inclusions", "hankel.s1_estimate",
                                  tuple(grid), out="inclusions")
    if name == "geom-norms":
        grid = [{"level": n, "r": r, "K": 400}
                for n in (1, 2, 3) for r in (0.1, 0.5, 0.9)]
        return ExperimentManifest("geom-norms", "hankel.rank_one_geom",
                                  tuple(grid), out="geom-norms")
    raise ValueError(f"no built-in manifest named {name!r}")


# ---------------------------------------------------------------------------
# operation executors: params -> (values, verdicts, provenance, status)


def _symbol_of(params: Mapping):
    return make_symbol(params["symbol"], *params.get("params", ()))


def _op_s1_estimate(manifest: ExperimentManifest, params: Mapping):
    sym = _symbol_of(params)
    level = int(params["level"])
    tag = params["tag"]
    sizes = tuple(params.get("sizes", manifest.sizes))
    tol = float(params.get("tol", 1e-3))
    est = s1_estimate(class_spec(sym, level, tag), sizes, tol=tol)
    src = f"hankel.s1_estimate@K={sizes[-1]}"
    values = {"estimate": float(est.values[-1]), "cauchy_gap": float(est.cauchy_gap)}
    return values, {"s1": est.verdict}, {k: src for k in values}, "ok"


def _op_rank_one_geom(manifest: ExperimentManifest, params: Mapping):
    level = int(params["level"])
    r = float(params["r"])
    K = int(params.get("K", 400))
    rep = rank_one_geom(level, r, K)
    err = abs(rep.truncated_norm - rep.closed_form_norm)
    src = f"hankel.rank_one_geom@K={K}"
    values = {"closed_form": rep.closed_form_norm,
              "truncated": rep.truncated_norm, "error": err}
    ok = err <= manifest.tol
    verdicts = {"agreement": "MATCH" if ok else "MISMATCH"}
    return values, verdicts, {k: src for k in values}, "ok" if ok else "fail"


def _op_cb_norm(manifest: ExperimentManifest, params: Mapping):
    graph = parse_graph(params["graph"])
    sym = _symbol_of(params)
    tol = float(params.get("tol", 1e-4))
    res = cb_norm_sdp(radial_kernel(graph, sym), tol=tol)
    src = f"mlab.cb_norm_sdp@n={graph.size}"
    values = {"lower": res.lower, "upper": res.upper, "gap": res.gap,
              "iterations": res.iterations}
    return values, {"bracket": "CERTIFIED"}, {k: src for k in values}, "ok"


def _op_sandwich(manifest: ExperimentManifest, params: Mapping):
    sym = _symbol_of(params)
    degrees = tuple(int(d) for d in params["degrees"])
    radius = int(params.get("radius", DEFAULTS["R"]))
    rep = sandwich_check(sym, degrees, radius, sizes=manifest.sizes,
                         tol=float(params.get("tol", 1e-4)),
                         sdp_tol=float(params.get("sdp_tol", 1e-4)))
    last = rep.rows[-1]
    src = f"mlab.sandwich_check@R={radius}"
    values = {"hankel_norm": rep.hankel_norm, "ceiling": last.ceiling,
              "cb_upper": last.cb_upper, "floor": last.floor_report}
    verdicts = {"hankel": rep.hankel_verdict, "sandwich": "HOLDS"}
    return values, verdicts, {k: src for k in values}, "ok"


def _op_tree_witness(manifest: ExperimentManifest, params: Mapping):
    sym = _symbol_of(params)
    dim = int(params.get("N", 1))
    radius = int(params.get("radius", DEFAULTS["R"]))
    cutoff = int(params.get("K", DEFAULTS["K"]))
    j_tail = int(params.get("j_tail", max(2, cutoff - 2)))
    T = separable_multiradial_T([sym] * dim, cutoff)
    balls = [tree_ball(2, radius) for _ in range(dim)]
    w = tree_product_witness(balls, _product_eval(sym, dim), T, j_tail,
                             tol=manifest.tol)
    src = f"mlab.tree_product_witness@K={cutoff}"
    values = {"certified": w.certified, "tail_bound": w.tail_bound,
              "reproduction_error": w.reproduction_error}
    ok = w.reproduction_error <= w.tail_bound + 1e-9
    verdicts = {"reproduction": "WITHIN_TAIL" if ok else "EXCEEDED"}
    return values, verdicts, {k: src for k in values}, "ok" if ok else "fail"


def _product_eval(sym, dim):
    """Evaluator of the product symbol d -> sym(d_1) ... sym(d_dim)."""
    if dim == 1:
        return sym
    cast = float if sym.real else complex
    return lambda d: cast(np.prod([sym(t) for t in d]))


def _op_besov_tail(manifest: ExperimentManifest, params: Mapping):
    sym = _symbol_of(params)
    level = int(params["level"])
    tag = params["tag"]
    grid = int(params.get("grid", DEFAULTS["grid"]))
    n_max = int(params.get("n_max", 10))
    verdict = class_series_verdict(sym, level, tag, n_max=n_max, grid=grid)
    src = f"besov.class_series_verdict@grid={grid}"
    return {"n_max": n_max}, {"besov": verdict}, {"n_max": src}, "ok"


def _op_serre_check(manifest: ExperimentManifest, params: Mapping):
    radius = int(params.get("R", DEFAULTS["R"]))
    ball = cayley_ball(radius)
    emb = serre_embedding(ball)
    sh = serre_shift(coset_tree(radius))
    depth = sh.tree.distances[sh.tree.index("e")]
    is_word = ["G" not in s for s in sh.tree.labels]
    shifted = {j for v, j in enumerate(sh.image) if j is not None and is_word[v]}
    cosets = {v for v in range(sh.tree.size) if not is_word[v]}
    ok = emb.check and shifted == cosets
    src = f"medgraph.serre@R={radius}"
    values = {"ball_size": ball.size, "tree_size": sh.tree.size}
    verdicts = {"doubling": "PASS" if emb.check else "FAIL",
                "partition": "PASS" if shifted == cosets else "FAIL"}
    return values, verdicts, {k: src for k in values}, "ok" if ok else "fail"


def _op_median_check(manifest: ExperimentManifest, params: Mapping):
    degrees = tuple(int(d) for d in params.get("degrees", (3, 3)))
    radius = int(params.get("radius", 2))
    triples = int(params.get("triples", 2000))
    graph = product_graph([tree_ball(d - 1, radius).graph for d in degrees])
    g, ray = attach_ray(graph, 0, 8)
    cx = median_complex(g, ray)
    rng = np.random.default_rng(manifest.seed)
    src = f"medgraph.median@n={g.size}"
    # raises if some median is not unique
    median(cx, *rng.integers(0, g.size, size=(triples, 3)).T)
    values = {"vertices": g.size, "triples": triples}
    return values, {"median": "UNIQUE"}, {k: src for k in values}, "ok"


_OPERATIONS = {
    "hankel.s1_estimate": _op_s1_estimate,
    "hankel.rank_one_geom": _op_rank_one_geom,
    "mlab.cb_norm_sdp": _op_cb_norm,
    "mlab.sandwich_check": _op_sandwich,
    "mlab.tree_product_witness": _op_tree_witness,
    "besov.class_series_verdict": _op_besov_tail,
    "medgraph.serre": _op_serre_check,
    "medgraph.median": _op_median_check,
}

# failures of these kinds mean a pinned invariant broke, not a refusal
_ASSERTION_ERRORS = (StructureViolationError, TailBoundExceededError,
                     NotMedianError, AssertionError)


# ---------------------------------------------------------------------------
# running and reporting


def _run_row(manifest: ExperimentManifest, params: Mapping) -> ReportRow:
    start = time.perf_counter()
    try:
        values, verdicts, provenance, status = _OPERATIONS[manifest.operation](
            manifest, params)
        message = ""
    except _ASSERTION_ERRORS as exc:
        values, verdicts, provenance = {}, {}, {}
        status, message = "fail", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a malformed row becomes an error row, never ends the run
        values, verdicts, provenance = {}, {}, {}
        status, message = "error", f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return ReportRow(manifest.experiment, manifest.operation, dict(params),
                     values, verdicts, provenance, wall, status, message)


def run_manifest(manifest: ExperimentManifest, out_dir=None,
                 jobs: Optional[int] = None) -> RunResult:
    """Execute the grid (optionally threaded), keep row order, write reports."""
    if jobs is None:
        jobs = int(os.environ.get("WORKBENCH_JOBS", "1"))
    if jobs > 1 and len(manifest.grid) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = tuple(pool.map(lambda p: _run_row(manifest, p), manifest.grid))
    else:
        rows = tuple(_run_row(manifest, p) for p in manifest.grid)
    exit_code = 1 if any(r.status == "fail" for r in rows) else 0
    result = RunResult(manifest, rows, exit_code)
    if out_dir is not None:
        csv_path, json_path = write_reports(result, out_dir)
        result = RunResult(manifest, rows, exit_code, csv_path, json_path)
    return result


def _cell(value) -> list:
    """CSV cells: repr floats, complex as adjacent re/im, lists ;-joined."""
    if isinstance(value, complex):
        return [repr(value.real), repr(value.imag)]
    if isinstance(value, float):
        return [repr(value)]
    if isinstance(value, (list, tuple)):
        return [";".join(str(v) for v in value)]
    return ["" if value is None else str(value)]


def _columns(rows: Sequence[ReportRow], attr: str) -> list:
    keys = set()
    for row in rows:
        keys.update(getattr(row, attr))
    return sorted(keys)


def write_reports(result: RunResult, out_dir) -> Tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = result.manifest.out
    csv_path = out / f"{stem}.csv"
    json_path = out / f"{stem}.json"

    pcols = _columns(result.rows, "params")
    vcols = _columns(result.rows, "values")
    dcols = _columns(result.rows, "verdicts")
    header = ["experiment", "operation"] + pcols
    for k in vcols:
        if any(isinstance(r.values.get(k), complex) for r in result.rows):
            header += [f"{k}_re", f"{k}_im"]
        else:
            header.append(k)
    header += dcols + ["status", "message", "provenance"]

    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in result.rows:
            line = [row.experiment, row.operation]
            for k in pcols:
                line += _cell(row.params.get(k))
            for k in vcols:
                v = row.values.get(k)
                if any(isinstance(r.values.get(k), complex) for r in result.rows):
                    v = complex(v) if v is not None else complex("nan+nanj")
                    line += [repr(v.real), repr(v.imag)]
                else:
                    line += _cell(v)
            for k in dcols:
                line += [row.verdicts.get(k, "")]
            prov = ";".join(f"{k}:{row.provenance[k]}" for k in sorted(row.provenance))
            line += [row.status, row.message, prov]
            writer.writerow(line)

    payload = {
        "experiment": result.manifest.experiment,
        "operation": result.manifest.operation,
        "defaults": {k: list(v) if isinstance(v, tuple) else v
                     for k, v in DEFAULTS.items()},
        "sizes": list(result.manifest.sizes),
        "tol": result.manifest.tol,
        "seed": result.manifest.seed,
        "exit_code": result.exit_code,
        "rows": [
            {
                "params": _jsonable(row.params),
                "values": _jsonable(row.values),
                "verdicts": dict(row.verdicts),
                "provenance": dict(row.provenance),
                "status": row.status,
                "message": row.message,
                "wall_time": row.wall_time,
            }
            for row in result.rows
        ],
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return csv_path, json_path


def _jsonable(mapping: Mapping) -> dict:
    return {k: _coerce(v) for k, v in mapping.items()}


def _coerce(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (list, tuple)):
        return [_coerce(x) for x in v]
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v
