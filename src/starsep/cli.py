"""Command-line interface.

Exit codes: 0 ok, 2 input error, 3 non-member, 4 verified-conclusion
failure, 5 capacity exceeded.  All JSON output has sorted keys and every
random choice is seeded, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from .cutsets import clique_cutset_atoms
from .detectors import class_membership
from .errors import (CapacityError, HypothesisViolation, InputError,
                     NotAMember, SamplingError)
from .generators import make, sample_class
from .graph_core import (Graph, WeightFn, bit_list, dumps_graph,
                         graph_weights, load_graph_file, read_fraction,
                         to_graph6)
from .hub_division import check_no_wheels_in_bag, hub_division
from .separations import leq_a_order
from .separator_engine import main_separator, verify_certificate
from .treewidth import TreeDecomposition, certify, exact_treewidth, validate_td

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONMEMBER = 3
EXIT_HYPOTHESIS = 4
EXIT_CAPACITY = 5

# Every failure a command reports: (error, exit code, JSON kind), worst
# first; batch exits with the code of the first entry any of its rows
# failed with.  NotAMember, an InputError, is caught before these and
# exits 3 with its report.  A click.UsageError is a bad command line
# (an unknown option value, a missing option), caught once the command
# is known.
FAILURES = (
    (HypothesisViolation, EXIT_HYPOTHESIS, "hypothesis_violation"),
    (CapacityError, EXIT_CAPACITY, "capacity"),
    (SamplingError, EXIT_INPUT, "sampling"),
    (InputError, EXIT_INPUT, "input"),
    (click.UsageError, EXIT_INPUT, "input"),
    (OSError, EXIT_INPUT, "io"),
)
_ERRORS = tuple(error for error, _, _ in FAILURES)


def _failure(e: Exception):
    return next(row for row in FAILURES if isinstance(e, row[0]))


def _emit(obj) -> None:
    click.echo(json.dumps(obj, sort_keys=True, indent=2))


class _Guarded(click.Group):
    """Runs every command's whole body under one guard, which turns each
    failure into its JSON and exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except NotAMember as e:
            _emit(e.report.as_json())
            sys.exit(EXIT_NONMEMBER)
        except _ERRORS as e:
            _, code, kind = _failure(e)
            message = (e.format_message()
                       if isinstance(e, click.UsageError) else str(e))
            payload = {"error": kind, "message": message}
            witness = getattr(e, "witness", getattr(e, "stats", None))
            if witness is not None:
                payload["witness"] = witness
            _emit(payload)
            sys.exit(code)


def _weights(g: Graph, source: str) -> WeightFn:
    if source == "uniform":
        return WeightFn.uniform(g)
    with open(source) as fh:
        try:
            values = json.load(fh, parse_float=read_fraction)
        except ValueError as e:  # also an int past Python's digit limit
            raise InputError(f"bad weights file {source}: {e}")
    return graph_weights(g, values, f"weights file {source}")


def _library_variant(ctx, param, value) -> str:
    return "C_t_star" if value == "star" else value


# Options shared by several commands, declared once.
T = click.option("--t", "t", type=int, required=True)
VARIANT = click.option("--variant", type=click.Choice(["C_t", "star"]),
                       default="C_t", callback=_library_variant)
WEIGHTS = click.option(
    "--weights", default="uniform",
    help="'uniform' or a JSON file with one weight per vertex")
FILE = click.argument("file", type=click.Path(dir_okay=False))


@click.group(cls=_Guarded)
def main() -> None:
    """Structural certificates for hole-and-wheel-restricted graphs."""


@main.command()
@T
@VARIANT
@FILE
def recognize(t, variant, file):
    """Class membership with a first-obstruction witness."""
    g, _ = load_graph_file(file)
    report = class_membership(g, t, variant)
    _emit(report.as_json())
    sys.exit(EXIT_OK if report.member else EXIT_NONMEMBER)


@main.command()
@FILE
def atoms(file):
    """Clique-cutset atom decomposition."""
    g, _ = load_graph_file(file)
    _emit(clique_cutset_atoms(g).as_json())


@main.command()
@WEIGHTS
@FILE
def separations(weights, file):
    """Unbalanced vertices, canonical separations, and the A-side order."""
    g, _ = load_graph_file(file)
    digest = leq_a_order(g, _weights(g, weights))
    _emit({"U": bit_list(digest.unbalanced),
           "canonical_separations": {str(v): s.as_json()
                                     for v, s in digest.separations.items()},
           "order": digest.as_json()})


@main.command()
@T
@WEIGHTS
@FILE
def hubdiv(t, weights, file):
    """Hub division, central bag, and the wheel-freeness check report."""
    g, _ = load_graph_file(file)
    div = hub_division(g, _weights(g, weights), t)
    report = check_no_wheels_in_bag(g, div)
    _emit({"division": div.as_json(), "no_wheels_in_bag": report.as_json()})


def _parse_balance(text: str) -> Fraction:
    c = read_fraction(text)
    if not Fraction(1, 2) <= c < 1:
        raise InputError(f"balance constant must lie in [1/2, 1), got {text}")
    return c


@main.command()
@T
@WEIGHTS
@click.option("--balance", default="1/2",
              help="balance constant c in [1/2, 1)")
@FILE
def separator(t, weights, balance, file):
    """Balanced separator certificate from the full pipeline."""
    g, _ = load_graph_file(file)
    c = _parse_balance(balance)
    w = _weights(g, weights)
    cert = main_separator(g, w, t, c=c)
    if not verify_certificate(g, w, cert):
        raise HypothesisViolation(
            "separator certificate failed its balance re-check",
            witness={"separator": bit_list(cert.separator)})
    _emit(cert.as_json())


@main.command()
@T
@VARIANT
@FILE
def decompose(t, variant, file):
    """Certified tree decomposition (atoms glued along cutset bags)."""
    g, _ = load_graph_file(file)
    _emit(certify(g, t, variant).as_json())


@main.command(name="exact-tw")
@FILE
def exact_tw(file):
    """Exact treewidth (desk-scale cap applies)."""
    g, _ = load_graph_file(file)
    _emit({"treewidth": exact_treewidth(g)})


@main.command(name="verify-cert")
@click.argument("graph_file", type=click.Path(dir_okay=False))
@click.argument("td_file", type=click.Path(dir_okay=False))
def verify_cert(graph_file, td_file):
    """Independently re-validate a decomposition against a graph."""
    g, _ = load_graph_file(graph_file)
    with open(td_file) as fh:
        try:
            obj = json.load(fh)
        except ValueError as e:  # bad JSON or UTF-8, or a huge int
            raise InputError(f"bad decomposition file {td_file}: {e}")
    if not isinstance(obj, dict):
        raise InputError(f"decomposition file {td_file} must hold a "
                         "JSON object")
    if obj.get("member") is False:
        raise InputError(f"{td_file} holds an obstruction report, not a "
                         "decomposition")
    td = TreeDecomposition.from_json(obj.get("decomposition", obj), g.n)
    validation = validate_td(g, td)
    _emit({"validation": validation.as_json(), "width": td.width})
    if not validation.passed:
        sys.exit(EXIT_HYPOTHESIS)


@main.command()
@click.option("--kind", default="random",
              help="named graph id or 'random' for a sampled member")
@click.option("--n", "n", type=int, default=12)
@click.option("--t", "t", type=int, default=4)
@click.option("--seed", type=int, default=0)
@VARIANT
@click.option("--g6", is_flag=True, help="emit graph6 instead of JSON")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def gen(kind, n, t, seed, variant, g6, out):
    """Write a named witness graph or a seeded random class member."""
    if kind == "random":
        res = sample_class(n, t, seed, variant)
        g, stats = res.graph, res.stats
    else:
        g, stats = make(kind), None
    text = to_graph6(g) if g6 else dumps_graph(g)
    if out:
        Path(out).write_text(text + "\n")
        payload = {"written": out, "n": g.num_vertices(),
                   "edges": g.num_edges()}
        if stats:
            payload["sampling"] = stats
        _emit(payload)
    else:
        click.echo(text)


@main.command()
@T
@VARIANT
@click.option("--jobs", type=int, default=1)
@click.argument("directory", type=click.Path(file_okay=False))
def batch(t, variant, jobs, directory):
    """Run the certification pipeline over every graph file in a
    directory and aggregate a summary table.

    Rows with an error set the exit code: 4 if any is a hypothesis
    violation, else 5 if any is a capacity error, else 2."""
    paths = sorted(str(p) for p in Path(directory).iterdir()
                   if p.suffix in (".json", ".g6", ".graph6", ".col"))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_batch_row,
                                 [(p, t, variant) for p in paths]))
    else:
        rows = [_batch_row((p, t, variant)) for p in paths]
    _emit({"t": t, "variant": variant, "instances": rows})
    failed = {r.get("error") for r in rows}
    for error, code, _ in FAILURES:
        if error.__name__ in failed:
            sys.exit(code)


def _batch_row(args):
    """One summary row; a failure is named by its class in FAILURES."""
    path, t, var = args
    name = Path(path).name
    try:
        g, _ = load_graph_file(path)
        row = {"instance": name, "n": g.num_vertices()}
        try:
            res = certify(g, t, var)
        except NotAMember as e:
            row.update({"member": False, "obstruction": e.report.kind})
            return row
        row.update({
            "member": True,
            "width": res.report["width"],
            "exact_treewidth": res.report["exact_treewidth"],
            "separator_sizes": sorted(c.size for c in res.certificates),
            "checks": {
                "validation": res.report["validation_passed"],
                "width_le_2x_max_separator":
                    res.report["width_le_2x_max_separator"],
                "width_le_measured_bound":
                    res.report["width_le_measured_bound"],
                "ledger_ok": all(c.ok() for c in res.certificates),
            },
        })
        return row
    except _ERRORS as e:
        return {"instance": name, "error": _failure(e)[0].__name__,
                "message": str(e)}


if __name__ == "__main__":
    main()
