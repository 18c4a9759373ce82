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
                         load_graph_file, to_graph6)
from .hub_division import check_no_wheels_in_bag, hub_division
from .separations import canonical_separation, classify_balanced, leq_a_order
from .separator_engine import main_separator, verify_certificate
from .treewidth import TreeDecomposition, certify, exact_treewidth, validate_td

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONMEMBER = 3
EXIT_HYPOTHESIS = 4
EXIT_CAPACITY = 5

def _emit(obj) -> None:
    click.echo(json.dumps(obj, sort_keys=True, indent=2))


def _fail(code: int, kind: str, message: str, witness=None) -> None:
    payload = {"error": kind, "message": message}
    if witness is not None:
        payload["witness"] = witness
    _emit(payload)
    sys.exit(code)


def _guard(fn):
    try:
        return fn()
    except NotAMember as e:
        _emit(e.report.as_json())
        sys.exit(EXIT_NONMEMBER)
    except InputError as e:
        _fail(EXIT_INPUT, "input", str(e))
    except CapacityError as e:
        _fail(EXIT_CAPACITY, "capacity", str(e))
    except SamplingError as e:
        _fail(EXIT_INPUT, "sampling", str(e), e.stats)
    except HypothesisViolation as e:
        _fail(EXIT_HYPOTHESIS, "hypothesis_violation", str(e), e.witness)
    except OSError as e:
        _fail(EXIT_INPUT, "io", str(e))


def _load(path: str):
    return _guard(lambda: load_graph_file(path))


def _weights(g: Graph, source: str) -> WeightFn:
    if source == "uniform":
        return WeightFn.uniform(g)
    with open(source) as fh:
        try:
            values = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise InputError(f"bad weights file {source}: {e}")
    return WeightFn(g.n, values)


@click.group()
def main() -> None:
    """Structural certificates for hole-and-wheel-restricted graphs."""


@main.command()
@click.option("--t", "t", type=int, required=True)
@click.option("--variant", type=click.Choice(["C_t", "star"]), default="C_t")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def recognize(t, variant, file):
    """Class membership with a first-obstruction witness."""
    g, _ = _load(file)
    var = "C_t_star" if variant == "star" else "C_t"
    report = _guard(lambda: class_membership(g, t, var))
    _emit(report.as_json())
    sys.exit(EXIT_OK if report.member else EXIT_NONMEMBER)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def atoms(file):
    """Clique-cutset atom decomposition."""
    g, _ = _load(file)
    _emit(_guard(lambda: clique_cutset_atoms(g)).as_json())


@main.command()
@click.option("--weights", default="uniform",
              help="'uniform' or a JSON file with one weight per vertex")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def separations(weights, file):
    """Unbalanced vertices, canonical separations, and the A-side order."""
    g, _ = _load(file)

    def run():
        w = _weights(g, weights)
        _, unbal = classify_balanced(g, w)
        digest = leq_a_order(g, w)
        return {
            "U": bit_list(unbal),
            "canonical_separations": {
                str(v): canonical_separation(g, w, v).as_json()
                for v in bit_list(unbal)},
            "order": digest.as_json(),
        }

    _emit(_guard(run))


@main.command()
@click.option("--t", "t", type=int, required=True)
@click.option("--weights", default="uniform")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def hubdiv(t, weights, file):
    """Hub division, central bag, and the wheel-freeness check report."""
    g, _ = _load(file)

    def run():
        w = _weights(g, weights)
        div = hub_division(g, w, t)
        report = check_no_wheels_in_bag(g, div)
        return {"division": div.as_json(),
                "no_wheels_in_bag": report.as_json()}

    _emit(_guard(run))


def _parse_balance(text: str):
    try:
        value = Fraction(text) if "/" in text or text.isdigit() else float(text)
        exact = Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"balance constant must be a number, got {text}")
    if not Fraction(1, 2) <= exact < 1:
        raise InputError(f"balance constant must lie in [1/2, 1), got {text}")
    return value


@main.command()
@click.option("--t", "t", type=int, required=True)
@click.option("--weights", default="uniform")
@click.option("--balance", default="1/2",
              help="balance constant c in [1/2, 1)")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def separator(t, weights, balance, file):
    """Balanced separator certificate from the full pipeline."""
    g, _ = _load(file)

    def run():
        c = _parse_balance(balance)
        w = _weights(g, weights)
        cert = main_separator(g, w, t, c=c)
        if not verify_certificate(g, w, cert):
            raise HypothesisViolation(
                "separator certificate failed its balance re-check",
                witness={"separator": bit_list(cert.separator)})
        return cert.as_json()

    _emit(_guard(run))


@main.command()
@click.option("--t", "t", type=int, required=True)
@click.option("--variant", type=click.Choice(["C_t", "star"]), default="C_t")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def decompose(t, variant, file):
    """Certified tree decomposition (atoms glued along cutset bags)."""
    g, _ = _load(file)
    var = "C_t_star" if variant == "star" else "C_t"
    _emit(_guard(lambda: certify(g, t, var)).as_json())


@main.command(name="exact-tw")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def exact_tw(file):
    """Exact treewidth (desk-scale cap applies)."""
    g, _ = _load(file)
    tw = _guard(lambda: exact_treewidth(g))
    _emit({"treewidth": tw})


@main.command(name="verify-cert")
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("td_file", type=click.Path(exists=True, dir_okay=False))
def verify_cert(graph_file, td_file):
    """Independently re-validate a decomposition against a graph."""
    g, _ = _load(graph_file)

    def run():
        with open(td_file) as fh:
            try:
                obj = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as e:
                raise InputError(f"bad decomposition file {td_file}: {e}")
        if not isinstance(obj, dict):
            raise InputError(f"decomposition file {td_file} must hold a "
                             "JSON object")
        td = TreeDecomposition.from_json(obj.get("decomposition", obj),
                                         g.n)
        return validate_td(g, td), td

    validation, td = _guard(run)
    _emit({"validation": validation.as_json(), "width": td.width})
    if not validation.passed:
        sys.exit(EXIT_HYPOTHESIS)


@main.command()
@click.option("--kind", default="random",
              help="named graph id or 'random' for a sampled member")
@click.option("--n", "n", type=int, default=12)
@click.option("--t", "t", type=int, default=4)
@click.option("--seed", type=int, default=0)
@click.option("--variant", type=click.Choice(["C_t", "star"]), default="C_t")
@click.option("--g6", is_flag=True, help="emit graph6 instead of JSON")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def gen(kind, n, t, seed, variant, g6, out):
    """Write a named witness graph or a seeded random class member."""
    def run():
        if kind == "random":
            var = "C_t_star" if variant == "star" else "C_t"
            res = sample_class(n, t, seed, var)
            return res.graph, res.stats
        return make(kind), None

    g, stats = _guard(run)
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
@click.option("--t", "t", type=int, required=True)
@click.option("--variant", type=click.Choice(["C_t", "star"]), default="C_t")
@click.option("--jobs", type=int, default=1)
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
def batch(t, variant, jobs, directory):
    """Run the certification pipeline over every graph file in a
    directory and aggregate a summary table.

    Rows with an error set the exit code: 4 if any is a hypothesis
    violation, else 5 if any is a capacity error, else 2."""
    var = "C_t_star" if variant == "star" else "C_t"
    paths = sorted(str(p) for p in Path(directory).iterdir()
                   if p.suffix in (".json", ".g6", ".graph6", ".col"))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_batch_row, [(p, t, var) for p in paths]))
    else:
        rows = [_batch_row((p, t, var)) for p in paths]
    summary = {"t": t, "variant": var, "instances": rows}
    _emit(summary)
    errors = {r.get("error") for r in rows}
    for error, code in (("HypothesisViolation", EXIT_HYPOTHESIS),
                        ("CapacityError", EXIT_CAPACITY),
                        ("InputError", EXIT_INPUT)):
        if error in errors:
            sys.exit(code)


def _batch_row(args):
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
            "width": res.td.width,
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
    except (InputError, CapacityError, HypothesisViolation) as e:
        return {"instance": name, "error": type(e).__name__,
                "message": str(e)}


if __name__ == "__main__":
    main()
