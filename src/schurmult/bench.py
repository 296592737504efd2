"""Experiment orchestration: validated manifests, a registry of module
operations, and deterministic CSV/JSON reports.

A manifest names one operation and a parameter grid; each grid row, checked on
load against the operation's parameter table, becomes a report row.  Row
failures are recorded and the run continues: rows that break an
assertion-class invariant (closed forms, reproduction bounds, structural
checks) drive the exit code to 1, anything else stays 0.  CSV output contains
only deterministic columns so re-runs are byte-identical; wall times go to the
JSON twin.
"""

from __future__ import annotations

import contextvars
import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .besov import class_series_verdict
from .errors import (
    NotMedianError,
    StructureViolationError,
    TailBoundExceededError,
)
from .hankel import class_spec, rank_one_geom, s1_estimate, trace_norm_memo
from .medgraph import (
    attach_ray,
    cayley_ball,
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
    tree_product_witness,
)
from .symbols import symbol_constructor

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


def _graph_plan(expr: str):
    """Parse a graph expression into a builder, checking it without building."""
    expr = expr.strip()
    if "(" not in expr or not expr.endswith(")"):
        raise ValueError(f"cannot parse graph expression {expr!r}")
    head, body = expr.split("(", 1)
    body = body[:-1]
    head = head.strip()
    if head == "product":
        factors = [_graph_plan(a) for a in _split_args(body)]
        if not factors:
            raise ValueError("product() needs at least one factor")
        return lambda: product_graph([build() for build in factors])
    if head == "cayley":
        radius = int(body)
        return lambda: cayley_ball(radius)
    if head.startswith("T") and head.endswith("ball"):
        degree, radius = int(head[1:-4]), int(body)
        if degree < 3:
            raise ValueError(f"tree degree must be at least 3 in {expr!r}")
        return lambda: tree_ball(degree - 1, radius).graph
    raise ValueError(f"unknown graph constructor {head!r}")


def parse_graph(expr: str):
    """Small grammar for --graph: T<k>ball(R), cayley(R), product(e, e, ...)."""
    return _graph_plan(expr)()


# ---------------------------------------------------------------------------
# manifests


# what a parameter's conversion or a symbol's constructor raises for a bad value
_REFUSED = (TypeError, ValueError, AttributeError, OverflowError)


@dataclass(frozen=True)
class ExperimentManifest:
    """One operation, one parameter grid, shared truncation settings.  Rows
    are checked against the operation's parameter table on construction."""

    experiment: str
    operation: str
    grid: Tuple[Mapping, ...] = ()
    sizes: Tuple[int, ...] = DEFAULTS["sizes"]
    tol: float = DEFAULTS["tol"]
    out: str = "report"
    seed: int = 0

    def __post_init__(self):
        if self.operation not in _OPERATIONS:
            raise ValueError(f"unknown operation {self.operation!r}; "
                             f"known: {sorted(_OPERATIONS)}")
        for name, convert in (("sizes", _sizes), ("tol", float), ("seed", _integer)):
            object.__setattr__(self, name, convert(getattr(self, name)))
        object.__setattr__(self, "grid", tuple(dict(row) for row in self.grid))
        table = _OPERATIONS[self.operation][1]
        for i, row in enumerate(self.grid):
            for name, value in row.items():
                if name not in table:
                    raise ValueError(f"grid row {i}: {self.operation} takes no "
                                     f"{name!r}; it takes {sorted(table)}")
                try:
                    table[name][0](value)
                except _REFUSED as exc:
                    raise ValueError(f"grid row {i}: bad {name!r}: {exc}") from exc
            if "symbol" in row:   # constructor arguments are checked here, not at run time
                try:
                    symbol_constructor(row["symbol"])(*row.get("params", ()))
                except _REFUSED as exc:
                    raise ValueError(f"grid row {i}: bad 'params': {exc}") from exc


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
    # the library object a JSON writer takes (the CLI's sdp, witness), never
    # reported; kept by one-row runs only, since holding every row's object at
    # once raised the peak memory of many-row runs
    result: Any = field(default=None, repr=False, compare=False)


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
    return ExperimentManifest(**raw)


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
# operation executors: converted parameters -> _Outcome


class _Outcome(NamedTuple):
    source: str            # provenance of every value
    values: dict
    verdicts: dict
    ok: bool = True        # False: a pinned invariant broke, the row fails
    result: Any = None     # the object a JSON writer takes, if there is one


def _op_s1_estimate(manifest, symbol, params, level, tag, sizes, tol):
    est = s1_estimate(class_spec(symbol(*params), level, tag), sizes, tol=tol)
    values = {"estimate": float(est.values[-1]), "cauchy_gap": float(est.cauchy_gap)}
    return _Outcome(f"hankel.s1_estimate@K={sizes[-1]}", values, {"s1": est.verdict})


def _op_rank_one_geom(manifest, level, r, K):
    rep = rank_one_geom(level, r, K)
    err = abs(rep.truncated_norm - rep.closed_form_norm)
    values = {"closed_form": rep.closed_form_norm,
              "truncated": rep.truncated_norm, "error": err}
    ok = err <= manifest.tol
    return _Outcome(f"hankel.rank_one_geom@K={K}", values,
                    {"agreement": "MATCH" if ok else "MISMATCH"}, ok)


def _op_cb_norm(manifest, graph, symbol, params, tol):
    g = graph()
    res = cb_norm_sdp(radial_kernel(g, symbol(*params)), tol=tol)
    values = {"lower": res.lower, "upper": res.upper, "gap": res.gap,
              "iterations": res.iterations}
    return _Outcome(f"mlab.cb_norm_sdp@n={g.size}", values,
                    {"bracket": "CERTIFIED"}, result=res)


def _op_sandwich(manifest, symbol, params, degrees, radius, tol, sdp_tol):
    rep = sandwich_check(symbol(*params), degrees, radius, sizes=manifest.sizes,
                         tol=tol, sdp_tol=sdp_tol)
    last = rep.rows[-1]
    values = {"hankel_norm": rep.hankel_norm, "ceiling": last.ceiling,
              "cb_upper": last.cb_upper, "floor": last.floor_report}
    return _Outcome(f"mlab.sandwich_check@R={radius}", values,
                    {"hankel": rep.hankel_verdict, "sandwich": "HOLDS"})


def _op_tree_witness(manifest, symbol, params, N, radius, K, j_tail):
    sym = symbol(*params)
    balls = [tree_ball(2, radius) for _ in range(N)]
    w = tree_product_witness(balls, [sym] * N, K, j_tail, tol=manifest.tol)
    values = {"certified": w.certified, "tail_bound": w.tail_bound,
              "reproduction_error": w.reproduction_error}
    ok = w.reproduction_error <= w.tail_bound + 1e-9
    return _Outcome(f"mlab.tree_product_witness@K={K}", values,
                    {"reproduction": "WITHIN_TAIL" if ok else "EXCEEDED"}, ok, w)


def _op_besov_tail(manifest, symbol, params, level, tag, grid, n_max):
    verdict = class_series_verdict(symbol(*params), level, tag, n_max=n_max, grid=grid)
    return _Outcome(f"besov.class_series_verdict@grid={grid}", {"n_max": n_max},
                    {"besov": verdict})


def _op_serre_check(manifest, R):
    ball = cayley_ball(R)
    emb = serre_embedding(ball)
    # raises StructureViolationError unless the shifted words are the cosets
    sh = serre_shift(emb.tree)
    values = {"ball_size": ball.size, "tree_size": sh.tree.size}
    verdicts = {"doubling": "PASS" if emb.check else "FAIL", "partition": "PASS"}
    return _Outcome(f"medgraph.serre@R={R}", values, verdicts, emb.check)


def _op_median_check(manifest, degrees, radius, triples):
    graph = product_graph([tree_ball(d - 1, radius).graph for d in degrees])
    g, ray = attach_ray(graph, 0, 8)
    cx = median_complex(g, ray)
    rng = np.random.default_rng(manifest.seed)
    # raises if some median is not unique
    median(cx, *rng.integers(0, g.size, size=(triples, 3)).T)
    return _Outcome(f"medgraph.median@n={g.size}",
                    {"vertices": g.size, "triples": triples}, {"median": "UNIQUE"})


def _integer(value) -> int:
    """int(value), refusing booleans and non-integral numbers."""
    number = int(value)
    if isinstance(value, bool) or (isinstance(value, float) and number != value):
        raise ValueError(f"{value!r} is not an integer")
    return number


def _array(value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{value!r} is not an array")
    return tuple(value)


def _integers(value) -> tuple:
    return tuple(_integer(v) for v in _array(value))


def _sizes(value) -> tuple:
    sizes = _integers(value)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be strictly increasing, got {sizes}")
    return sizes


def _tag(value) -> str:
    if value not in ("A", "B", "C"):
        raise ValueError(f"class tag must be one of A, B, C, got {value!r}")
    return value


# Each operation's parameters: name -> (conversion, default).  A default is
# _REQUIRED, a value, or a function of the manifest and the arguments
# converted before it.
_REQUIRED = object()
_SYMBOL = {"symbol": (symbol_constructor, _REQUIRED), "params": (_array, ())}
_CLASS = {"level": (_integer, _REQUIRED), "tag": (_tag, _REQUIRED)}

_OPERATIONS = {
    "hankel.s1_estimate": (_op_s1_estimate, {
        **_SYMBOL, **_CLASS, "sizes": (_sizes, lambda m, args: m.sizes),
        "tol": (float, 1e-3)}),
    "hankel.rank_one_geom": (_op_rank_one_geom, {
        "level": (_integer, _REQUIRED), "r": (float, _REQUIRED), "K": (_integer, 400)}),
    "mlab.cb_norm_sdp": (_op_cb_norm, {
        "graph": (_graph_plan, _REQUIRED), **_SYMBOL, "tol": (float, 1e-4)}),
    "mlab.sandwich_check": (_op_sandwich, {
        **_SYMBOL, "degrees": (_integers, _REQUIRED),
        "radius": (_integer, DEFAULTS["R"]), "tol": (float, 1e-4),
        "sdp_tol": (float, 1e-4)}),
    "mlab.tree_product_witness": (_op_tree_witness, {
        **_SYMBOL, "N": (_integer, 1), "radius": (_integer, DEFAULTS["R"]),
        "K": (_integer, DEFAULTS["K"]),
        "j_tail": (_integer, lambda m, args: max(2, args["K"] - 2))}),
    "besov.class_series_verdict": (_op_besov_tail, {
        **_SYMBOL, **_CLASS, "grid": (_integer, DEFAULTS["grid"]),
        "n_max": (_integer, 10)}),
    "medgraph.serre": (_op_serre_check, {"R": (_integer, DEFAULTS["R"])}),
    "medgraph.median": (_op_median_check, {
        "degrees": (_integers, (3, 3)), "radius": (_integer, 2),
        "triples": (_integer, 2000)}),
}


def _default(operation: str, name: str):
    """A parameter's default from its table, for the CLI's option defaults."""
    return _OPERATIONS[operation][1][name][1]


# failures of these kinds mean a pinned invariant broke, not a refusal
_ASSERTION_ERRORS = (StructureViolationError, TailBoundExceededError,
                     NotMedianError, AssertionError)


# ---------------------------------------------------------------------------
# running and reporting


def _run_row(manifest: ExperimentManifest, params: Mapping) -> ReportRow:
    start = time.perf_counter()
    executor, table = _OPERATIONS[manifest.operation]
    values, verdicts, provenance, result, message = {}, {}, {}, None, ""
    try:
        args = {}
        for name, (convert, default) in table.items():
            if name in params or default is _REQUIRED:
                args[name] = convert(params[name])   # KeyError(name) when missing
            else:
                args[name] = default(manifest, args) if callable(default) else default
        out = executor(manifest, **args)
        values, verdicts, result = out.values, out.verdicts, out.result
        provenance = {k: out.source for k in values}
        status = "ok" if out.ok else "fail"
    except _ASSERTION_ERRORS as exc:
        status, message = "fail", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a malformed row becomes an error row, never ends the run
        status, message = "error", f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return ReportRow(manifest.experiment, manifest.operation, dict(params),
                     values, verdicts, provenance, wall, status, message,
                     result if len(manifest.grid) == 1 else None)


def run_manifest(manifest: ExperimentManifest, out_dir=None, jobs: int = 1) -> RunResult:
    """Execute the grid (optionally threaded), keep row order, write reports.

    The rows share one trace-norm memo, so a section two rows both need (the
    level-1 class A and C sections are the same) is computed once per call;
    nothing of it outlives the call.
    """
    with trace_norm_memo():
        if jobs > 1 and len(manifest.grid) > 1:
            # each row runs in its own copy of this context, which holds the memo
            contexts = [contextvars.copy_context() for _ in manifest.grid]
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                rows = tuple(pool.map(lambda ctx, p: ctx.run(_run_row, manifest, p),
                                      contexts, manifest.grid))
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
    complex_cols = {k for k in vcols
                    if any(isinstance(r.values.get(k), complex) for r in result.rows)}
    header = ["experiment", "operation"] + pcols
    for k in vcols:
        header += [f"{k}_re", f"{k}_im"] if k in complex_cols else [k]
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
                if k in complex_cols:
                    v = complex("nan+nanj") if v is None else complex(v)
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
                "params": _coerce(row.params),
                "values": _coerce(row.values),
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


def _coerce(v):
    if isinstance(v, Mapping):
        return {k: _coerce(x) for k, x in v.items()}
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (list, tuple)):
        return [_coerce(x) for x in v]
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v
