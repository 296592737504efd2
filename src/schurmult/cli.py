"""Command-line front end: every subcommand runs registry rows.

Each subcommand builds its row from the options and runs it through
`bench.run_manifest`, with the registry's parameter table, defaults and error
policy.  Exit codes: 0 clean, 1 when a check fails or a row cannot be
computed, 2 for usage errors, among them every value the table refuses.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .bench import (
    DEFAULTS,
    ExperimentManifest,
    _default,
    built_in_manifest,
    manifest_from_json,
    run_manifest,
    write_reports,
)
from .serialize import cb_result_to_json, witness_to_json


def _parse_params(text: str) -> list:
    """Comma-separated constructor arguments; `name=value` names are cosmetic."""
    return [_number(item.split("=", 1)[-1].strip())
            for item in text.split(",") if item.strip()]


def _number(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _run_one(operation: str, row: dict, **settings):
    """Run one registry row; a row the parameter table refuses is a usage error."""
    experiment = click.get_current_context().info_name   # the subcommand's name
    try:
        manifest = ExperimentManifest(experiment, operation, (row,), **settings)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    return run_manifest(manifest)


def _echo_rows(result, out) -> None:
    """Print the row summaries, write reports to --out, exit with the run's code."""
    for row in result.rows:
        verdicts = " ".join(f"{k}={v}" for k, v in sorted(row.verdicts.items()))
        values = " ".join(f"{k}={v:.6g}" for k, v in sorted(row.values.items())
                          if isinstance(v, (int, float)) and not isinstance(v, bool))
        tail = f" [{row.message}]" if row.message else ""
        click.echo(f"{row.status:5s} {verdicts} {values}{tail}".rstrip())
    _finish(result, out)


def _finish(result, out) -> None:
    if out is not None:
        csv_path, json_path = write_reports(result, out)
        click.echo(f"wrote {csv_path} and {json_path}")
    if result.exit_code:
        sys.exit(result.exit_code)


def _echo_json(result, to_json, include_rows: bool, out) -> None:
    """Write the row's library object as JSON to --out or stdout."""
    (row,) = result.rows
    if row.result is None:
        raise click.ClickException(row.message)
    text = to_json(row.result, include_rows=include_rows)
    if out is not None:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
        click.echo(f"wrote {path}")
    else:
        click.echo(text)
    _finish(result, None)


@click.group()
def main():
    """Workbench for radial multiplier experiments on trees and complexes."""


@main.command()
@click.option("--symbol", required=True, help="Catalog id, e.g. ALT_POWER")
@click.option("--params", default="", help="Constructor arguments, e.g. alpha=2.5")
@click.option("--n", "--N", "level", type=int, required=True, help="Level N")
@click.option("--class", "tag", type=click.Choice(["A", "B", "C"]), required=True)
@click.option("--sizes", default=None, help="Comma-separated section sizes")
@click.option("--tol", type=float, show_default=True,
              default=_default("hankel.s1_estimate", "tol"))
@click.option("--out", type=click.Path(), default=None, help="Report directory")
def classes(symbol, params, level, tag, sizes, tol, out):
    """Trace-norm growth verdict for one symbol, level, and matrix class."""
    row = {"symbol": symbol, "params": _parse_params(params),
           "level": level, "tag": tag, "tol": tol}
    _echo_rows(_run_one("hankel.s1_estimate", row,
                        sizes=sizes.split(",") if sizes else DEFAULTS["sizes"]), out)


@main.command()
@click.option("--n", "--N", "level", type=int, default=1, show_default=True)
@click.option("--params", default="r=0.5", show_default=True,
              help="Ratio r in (0,1)")
@click.option("--k", "--K", "size", type=int, show_default=True,
              default=_default("hankel.rank_one_geom", "K"))
@click.option("--tol", type=float, default=DEFAULTS["tol"], show_default=True)
@click.option("--out", type=click.Path(), default=None)
def norms(level, params, size, tol, out):
    """Rank-one geometric section against its closed-form trace norm."""
    values = _parse_params(params) or [0.5]
    if len(values) != 1:
        raise click.UsageError(f"--params takes one ratio r, got {params!r}")
    (r,) = values
    _echo_rows(_run_one("hankel.rank_one_geom", {"level": level, "r": r, "K": size},
                        tol=tol), out)


@main.command()
@click.option("--symbol", required=True)
@click.option("--params", default="")
@click.option("--n", "--N", "dim", type=int, show_default=True,
              default=_default("mlab.tree_product_witness", "N"))
@click.option("--radius", type=int, default=DEFAULTS["R"], show_default=True)
@click.option("--k", "--K", "cutoff", type=int, default=DEFAULTS["K"],
              show_default=True, help="Lattice truncation")
@click.option("--tol", type=float, default=DEFAULTS["tol"], show_default=True)
@click.option("--emit-witness", is_flag=True, help="Include factor rows")
@click.option("--out", type=click.Path(), default=None)
def witness(symbol, params, dim, radius, cutoff, tol, emit_witness, out):
    """Tree-product factorization witness for a centered symbol."""
    row = {"symbol": symbol, "params": _parse_params(params), "N": dim,
           "radius": radius, "K": cutoff}
    _echo_json(_run_one("mlab.tree_product_witness", row, tol=tol),
               witness_to_json, emit_witness, out)


@main.command()
@click.option("--check", type=click.Choice(["serre", "median"]), default="serre",
              show_default=True)
@click.option("--r", "--R", "radius", type=int, default=DEFAULTS["R"],
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def graphs(check, radius, seed, out):
    """Structural graph checks: Serre doubling/partition, median uniqueness."""
    row = {"R": radius} if check == "serre" else {"radius": radius}
    _echo_rows(_run_one(f"medgraph.{check}", row, seed=seed), out)


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
    _echo_rows(_run_one("besov.class_series_verdict", row), out)


@main.command()
@click.option("--out", type=click.Path(), default=None)
@click.option("--jobs", type=int, default=1, show_default=True, help="Parallel rows")
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
@click.option("--tol", type=float, show_default=True,
              default=_default("mlab.cb_norm_sdp", "tol"))
@click.option("--emit-witness", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def sdp(expr, symbol, params, tol, emit_witness, out):
    """Certified multiplier-norm bracket for a radial kernel on a graph."""
    row = {"graph": expr, "symbol": symbol, "params": _parse_params(params), "tol": tol}
    _echo_json(_run_one("mlab.cb_norm_sdp", row), cb_result_to_json, emit_witness, out)


@main.command()
@click.argument("manifest")
@click.option("--out", type=click.Path(), default=".", show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True, help="Parallel rows")
def run(manifest, out, jobs):
    """Run a manifest: a built-in name or a JSON file path."""
    path = Path(manifest)
    try:
        if path.exists():
            spec = manifest_from_json(path.read_text(encoding="utf-8"))
        else:
            spec = built_in_manifest(manifest)
    except (ValueError, TypeError) as exc:
        raise click.UsageError(f"bad manifest {manifest!r}: {exc}")
    result = run_manifest(spec, out_dir=out, jobs=jobs)
    click.echo(f"wrote {result.csv_path} and {result.json_path}")
    failed = [r for r in result.rows if r.status != "ok"]
    for row in failed:
        click.echo(f"  {row.status}: {row.params} {row.message}")
    _finish(result, None)


if __name__ == "__main__":
    main(prog_name="schurmult")
