"""Command-line front end: thin wrappers over the module operations.

Exit codes: 0 clean, 1 when an assertion-class check fails, 2 for usage
errors (click's default).  Reports land next to --out when given, otherwise
the row summary goes to stdout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .bench import (
    DEFAULTS,
    ExperimentManifest,
    _product_eval,
    built_in_manifest,
    manifest_from_json,
    parse_graph,
    run_manifest,
)
from .errors import WorkbenchError
from .mlab import cb_norm_sdp, radial_kernel
from .serialize import cb_result_to_json
from .symbols import make_symbol


def _parse_params(text: str) -> list:
    """Comma-separated constructor arguments; `name=value` names are cosmetic."""
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" in item:
            item = item.split("=", 1)[1].strip()
        try:
            out.append(int(item))
        except ValueError:
            try:
                out.append(float(item))
            except ValueError:
                out.append(item)
    return out


def _parse_sizes(text: str) -> tuple:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise click.BadParameter(f"sizes must be integers, got {text!r}")


def _echo_rows(result) -> None:
    for row in result.rows:
        verdicts = " ".join(f"{k}={v}" for k, v in sorted(row.verdicts.items()))
        values = " ".join(f"{k}={v:.6g}" for k, v in sorted(row.values.items())
                          if isinstance(v, (int, float)) and not isinstance(v, bool))
        tail = f" [{row.message}]" if row.message else ""
        click.echo(f"{row.status:5s} {verdicts} {values}{tail}".rstrip())


def _finish(result, out) -> None:
    if out is not None:
        from .bench import write_reports
        csv_path, json_path = write_reports(result, out)
        click.echo(f"wrote {csv_path} and {json_path}")
    if result.exit_code:
        sys.exit(result.exit_code)


@click.group()
def main():
    """Workbench for radial multiplier experiments on trees and complexes."""


@main.command()
@click.option("--symbol", required=True, help="Catalog id, e.g. ALT_POWER")
@click.option("--params", default="", help="Constructor arguments, e.g. alpha=2.5")
@click.option("--n", "--N", "level", type=int, required=True, help="Level N")
@click.option("--class", "tag", type=click.Choice(["A", "B", "C"]), required=True)
@click.option("--sizes", default=None, help="Comma-separated section sizes")
@click.option("--tol", type=float, default=1e-3, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Report directory")
def classes(symbol, params, level, tag, sizes, tol, out):
    """Trace-norm growth verdict for one symbol, level, and matrix class."""
    row = {"symbol": symbol, "params": _parse_params(params),
           "level": level, "tag": tag, "tol": tol}
    manifest = ExperimentManifest(
        "classes", "hankel.s1_estimate", (row,),
        sizes=_parse_sizes(sizes) if sizes else DEFAULTS["sizes"])
    result = run_manifest(manifest)
    _echo_rows(result)
    _finish(result, out)


@main.command()
@click.option("--n", "--N", "level", type=int, default=1, show_default=True)
@click.option("--params", default="r=0.5", show_default=True,
              help="Ratio r in (0,1)")
@click.option("--k", "--K", "size", type=int, default=400, show_default=True)
@click.option("--tol", type=float, default=DEFAULTS["tol"], show_default=True)
@click.option("--out", type=click.Path(), default=None)
def norms(level, params, size, tol, out):
    """Rank-one geometric section against its closed-form trace norm."""
    (r,) = _parse_params(params) or (0.5,)
    row = {"level": level, "r": float(r), "K": size}
    manifest = ExperimentManifest("norms", "hankel.rank_one_geom", (row,), tol=tol)
    result = run_manifest(manifest)
    _echo_rows(result)
    _finish(result, out)


@main.command()
@click.option("--symbol", required=True)
@click.option("--params", default="")
@click.option("--n", "--N", "dim", type=int, default=1, show_default=True)
@click.option("--radius", type=int, default=DEFAULTS["R"], show_default=True)
@click.option("--k", "--K", "cutoff", type=int, default=DEFAULTS["K"],
              show_default=True, help="Lattice truncation")
@click.option("--tol", type=float, default=DEFAULTS["tol"], show_default=True)
@click.option("--emit-witness", is_flag=True, help="Include factor rows")
@click.option("--out", type=click.Path(), default=None)
def witness(symbol, params, dim, radius, cutoff, tol, emit_witness, out):
    """Tree-product factorization witness for a centered symbol."""
    from .medgraph import tree_ball
    from .mlab import separable_multiradial_T, tree_product_witness
    from .serialize import witness_to_json

    sym = make_symbol(symbol, *_parse_params(params))
    try:
        T = separable_multiradial_T([sym] * dim, cutoff)
        balls = [tree_ball(2, radius) for _ in range(dim)]
        w = tree_product_witness(balls, _product_eval(sym, dim), T,
                                 max(2, cutoff - 2), tol=tol)
    except WorkbenchError as exc:
        raise click.ClickException(str(exc))
    text = witness_to_json(w, include_rows=emit_witness)
    if out is not None:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
        click.echo(f"wrote {path}")
    else:
        click.echo(text)
    if w.reproduction_error > w.tail_bound + 1e-9:
        sys.exit(1)


@main.command()
@click.option("--check", type=click.Choice(["serre", "median"]), default="serre",
              show_default=True)
@click.option("--r", "--R", "radius", type=int, default=DEFAULTS["R"],
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def graphs(check, radius, seed, out):
    """Structural graph checks: Serre doubling/partition, median uniqueness."""
    if check == "serre":
        row = {"R": radius}
        manifest = ExperimentManifest("graphs", "medgraph.serre", (row,), seed=seed)
    else:
        row = {"degrees": [3, 3], "radius": min(radius, 2), "triples": 2000}
        manifest = ExperimentManifest("graphs", "medgraph.median", (row,), seed=seed)
    result = run_manifest(manifest)
    _echo_rows(result)
    _finish(result, out)


@main.command()
@click.option("--symbol", required=True)
@click.option("--params", default="")
@click.option("--n", "--N", "level", type=int, required=True)
@click.option("--class", "tag", type=click.Choice(["A", "B", "C"]), required=True)
@click.option("--grid", type=int, default=DEFAULTS["grid"], show_default=True,
              help="Circle quadrature size")
@click.option("--out", type=click.Path(), default=None)
def besov(symbol, params, level, tag, grid, out):
    """Dyadic tail verdict of the class-matched series on the circle."""
    row = {"symbol": symbol, "params": _parse_params(params),
           "level": level, "tag": tag, "grid": grid}
    manifest = ExperimentManifest("besov", "besov.class_series_verdict", (row,))
    result = run_manifest(manifest)
    _echo_rows(result)
    _finish(result, out)


@main.command()
@click.option("--out", type=click.Path(), default=None)
@click.option("--jobs", type=int, default=None, help="Parallel rows")
def inclusions(out, jobs):
    """The full class-membership verdict grid over the symbol catalog."""
    result = run_manifest(built_in_manifest("inclusions"), jobs=jobs)
    for row in result.rows:
        label = (f"{row.params['symbol']}({','.join(map(str, row.params['params']))}) "
                 f"N={row.params['level']} class {row.params['tag']}")
        click.echo(f"{label:40s} {row.verdicts.get('s1', row.status)}")
    _finish(result, out)


@main.command()
@click.option("--graph", "expr", required=True,
              help="e.g. product(T3ball(3),T3ball(3))")
@click.option("--symbol", required=True)
@click.option("--params", default="")
@click.option("--tol", type=float, default=1e-4, show_default=True)
@click.option("--emit-witness", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def sdp(expr, symbol, params, tol, emit_witness, out):
    """Certified multiplier-norm bracket for a radial kernel on a graph."""
    try:
        graph = parse_graph(expr)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    sym = make_symbol(symbol, *_parse_params(params))
    try:
        res = cb_norm_sdp(radial_kernel(graph, sym), tol=tol)
    except WorkbenchError as exc:
        raise click.ClickException(str(exc))
    text = cb_result_to_json(res, include_rows=emit_witness)
    if out is not None:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
        click.echo(f"wrote {path}")
    else:
        click.echo(text)


@main.command()
@click.argument("manifest")
@click.option("--out", type=click.Path(), default=".", show_default=True)
@click.option("--jobs", type=int, default=None, help="Parallel rows")
def run(manifest, out, jobs):
    """Run a manifest: a built-in name or a JSON file path."""
    path = Path(manifest)
    try:
        if path.exists():
            spec = manifest_from_json(path.read_text(encoding="utf-8"))
        else:
            spec = built_in_manifest(manifest)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"bad manifest {manifest!r}: {exc}")
    result = run_manifest(spec, out_dir=out, jobs=jobs)
    click.echo(f"wrote {result.csv_path} and {result.json_path}")
    failed = [r for r in result.rows if r.status != "ok"]
    for row in failed:
        click.echo(f"  {row.status}: {row.params} {row.message}")
    if result.exit_code:
        sys.exit(result.exit_code)


if __name__ == "__main__":
    main(prog_name="schurmult")
