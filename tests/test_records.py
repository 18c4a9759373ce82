"""Records are NamedTuples: immutable tuples that keep the field names,
field order, defaults, methods and repr text of the frozen dataclasses
they replaced, and whose classes are built without generated code."""

import importlib
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import starsep
from starsep import (Graph, WeightFn, aux_graph, canonical_separation,
                     certify, check_no_wheels_in_bag, class_membership,
                     classify_wheels, clique_cutset_atoms, detect_prism,
                     detect_pyramid, detect_theta, hub_division, leq_a_order,
                     main_separator, make, revised_collection, sample_class,
                     sample_cutset_free_member, validate_td)
from starsep.central_bag import CentralBag, SmoothCollection, validate_smooth
from starsep.detectors import ObstructionReport, ThetaWitness
from starsep.graph_core import bits
from starsep.treewidth import TreeDecomposition

from .lemmas import (Trichotomy, WheelCutset, attachment_trichotomy,
                     wheel_star_cutset)
from .test_hub_division import _division_with_bag

SRC = Path(starsep.__file__).parent


def _heavy_w93():
    """W93 with one sector vertex weighing 7/10: its hub is unbalanced,
    so the hub division has a one-center collection."""
    vals = [Fraction(1, 30)] * 10
    vals[1] = Fraction(7, 10)
    return make("W93"), WeightFn(10, vals)


def _records():
    """One record of each public record class, made by the pipeline."""
    w93, heavy = _heavy_w93()
    div = hub_division(w93, heavy, 4)
    res = certify(w93, 4)
    wheel = next(w for w in classify_wheels(w93) if w.is_proper_wheel)
    center = next(bits(div.minimal_set))
    return [
        detect_theta(make("THETA(2,2,3)")),
        detect_pyramid(make("PYRAMID(1,2,2)")),
        detect_prism(make("PRISM(1,1,1)")),
        wheel,
        class_membership(make("THETA(3,3,3)"), 4),
        clique_cutset_atoms(make("P5")).tree,
        res.atoms,
        sample_class(10, 4, 0),
        div.partition, div, check_no_wheels_in_bag(w93, div),
        canonical_separation(w93, heavy, center),
        leq_a_order(w93, heavy),
        revised_collection(w93, tuple(canonical_separation(w93, heavy, v)
                                      for v in bits(div.minimal_set))),
        div.bag.collection, div.bag,
        aux_graph(w93, w93.verts, WeightFn.uniform(w93), 9),
        res.certificates[0], res.td, validate_td(w93, res.td), res,
    ]


def _lemma_records():
    """One record of each lemma illustration the tests keep."""
    w93 = make("W93")
    wheel = next(w for w in classify_wheels(w93) if w.is_proper_wheel)
    return [wheel_star_cutset(w93, wheel, sector=(0, 1, 2, 3)),
            attachment_trichotomy(Graph(4, [(0, 1), (0, 2), (0, 3)]),
                                  1, 2, 3, 1 << 0)]


@pytest.fixture(scope="module")
def records():
    return _records() + _lemma_records()


def test_import_runs_no_dataclass_machinery():
    """A fresh interpreter imports the package and its CLI without the
    dataclasses module: no record class is built by generated code."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, starsep, starsep.cli; "
         "print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_no_module_uses_dataclasses():
    """Records are NamedTuples; no module of the package names the
    dataclasses module, so a later record cannot bring its generated
    methods back unnoticed."""
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        assert "dataclass" not in path.read_text(), path.name


def test_every_public_record_class_is_covered(records):
    """The records above cover every public NamedTuple class of the
    package, 20 of them, and each record is a tuple of its fields."""
    modules = [importlib.import_module(f"starsep.{p.stem}")
               for p in SRC.glob("*.py") if p.stem != "__main__"]
    found = {cls for mod in modules for cls in vars(mod).values()
             if isinstance(cls, type) and issubclass(cls, tuple)
             and cls.__module__ == mod.__name__
             and not cls.__name__.startswith("_")}
    assert {type(r) for r in records} == found | {Trichotomy, WheelCutset}
    assert len(found) == 20
    assert all(hasattr(cls, "_fields") for cls in found)
    exported = found & {v for v in vars(starsep).values()
                        if isinstance(v, type)}
    assert len(exported) == 14


def test_records_are_immutable(records):
    for rec in records:
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)


def test_replace_and_pickle_round_trips_keep_the_record(records):
    for rec in records:
        same = rec._replace(**rec._asdict())
        assert type(same) is type(rec) and same == rec
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is type(rec) and back == rec


def test_a_hub_division_pickles_with_its_bag_and_weights():
    """A division holds a central bag and its inherited weights; it
    pickles back equal, its weights compared by value, and the graph it
    was made on keeps its records while the unpickled copy holds none."""
    w93, heavy = _heavy_w93()
    div = hub_division(w93, heavy, 4)
    back = pickle.loads(pickle.dumps(div))
    assert back == div and back.bag.weights is not div.bag.weights
    assert pickle.loads(pickle.dumps(div.bag)) == div.bag
    assert div.bag.collection.centers == (9,)
    assert w93._kept and not pickle.loads(pickle.dumps(w93))._kept


def test_repr_text_is_the_dataclass_text():
    """Pinned to the frozen dataclasses' repr of the same records."""
    assert repr(detect_theta(make("THETA(2,2,3)"))) == (
        "ThetaWitness(a=0, b=1, paths=((0, 2, 1), (0, 3, 1), (0, 4, 5, 1)))")
    assert repr(class_membership(make("THETA(3,3,3)"), 4)) == (
        "ObstructionReport(member=False, t=4, variant='C_t', kind='theta', "
        "embedding=(0, 1, 2, 3, 4, 5, 6, 7), detail=ThetaWitness(a=0, b=1, "
        "paths=((0, 2, 3, 1), (0, 4, 5, 1), (0, 6, 7, 1))))")


def test_smooth_collection_carries_its_bag():
    """A smooth collection is a record of four fields, its central bag
    and A-side parts among them: len() is the field count, and _replace,
    _asdict, repr and pickling see all four.  The empty collection's bag
    is the whole graph, and it is a non-empty tuple."""
    w93, heavy = _heavy_w93()
    coll = hub_division(w93, heavy, 4).bag.collection
    assert len(coll) == 4 and len(coll.centers) == 1
    assert coll._replace(centers=coll.centers) == coll
    assert coll._asdict() == {"centers": coll.centers,
                              "separations": coll.separations,
                              "beta": coll.beta, "a_star": coll.a_star}
    assert repr(coll) == ("SmoothCollection(centers=(9,), separations=("
                          "Separation(a=496, c=521, b=6, center=9),), "
                          "beta=527, a_star=(496,))")
    assert pickle.loads(pickle.dumps(coll)) == coll
    empty = validate_smooth(w93, (), ())
    assert empty == SmoothCollection((), (), w93.verts, ())
    assert len(empty) == 4 and empty and empty._replace() == empty


def test_central_bag_reads_its_bag_off_the_collection():
    """A bag's beta and a_star are its collection's, not copies."""
    w93, heavy = _heavy_w93()
    bag = hub_division(w93, heavy, 4).bag
    assert CentralBag._fields == ("weights", "collection")
    assert bag.beta is bag.collection.beta
    assert bag.a_star is bag.collection.a_star
    assert list(bag.as_json()) == ["beta", "a_star", "weights"]


def test_records_have_tuple_semantics():
    """Equality is tuple equality, and a record is a sequence that
    json.dumps writes as a list."""
    w = ThetaWitness(0, 1, ((0, 2, 1), (0, 3, 1), (0, 4, 1)))
    assert w == (0, 1, ((0, 2, 1), (0, 3, 1), (0, 4, 1)))
    assert len(w) == 3 and w[0] == 0 and list(w)[2] == w.paths
    assert json.loads(json.dumps(ObstructionReport(True, 4, "C_t"))) == [
        True, 4, "C_t", None, [], None]


def _record_classes(key):
    """The record classes of a Graph.kept key, read through plain tuples."""
    if hasattr(key, "_fields"):
        return {type(key)}
    if type(key) is tuple:
        return set().union(*map(_record_classes, key))
    return set()


def test_each_builder_keeps_records_of_one_class():
    """Records are tuples, so a record key equals any tuple of its
    values.  Kept keys cannot collide across classes: the builder is part
    of the key, and each builder is given records of one class."""
    w93, heavy = _heavy_w93()
    member = sample_cutset_free_member(18, 4, 2)
    wheel = make("WHEEL(13,{1,5,9})")
    by_builder = {}
    for g, w in ((w93, heavy), (member, WeightFn.uniform(member)),
                 (wheel, WeightFn.uniform(wheel))):
        main_separator(g, w, 4)
        certify(g, 4)
        for key in g._kept:
            if isinstance(key, tuple):
                by_builder.setdefault(key[0].__name__, set()).update(
                    _record_classes(key[1:]))
    with_records = {b: {c.__name__ for c in cs}
                    for b, cs in by_builder.items() if cs}
    assert with_records == {"_revise": {"Separation"}}


def _containers(x):
    """Every dict and list in a JSON value, x included."""
    if isinstance(x, (dict, list)):
        yield x
    for v in x.values() if isinstance(x, dict) else \
            x if isinstance(x, (list, tuple)) else ():
        yield from _containers(v)


def test_as_json_hands_out_no_container_a_record_holds(records):
    """Changing every dict and list of one as_json() output changes no
    record, nor any record kept on a graph: the next as_json() prints
    the same bytes.  The records include failed checks, whose failures
    hold lists."""
    w93 = make("W93")
    res = certify(w93, 4)
    broken = TreeDecomposition(res.td.bags, res.td.edges[1:])
    failing = [validate_td(w93, broken),
               check_no_wheels_in_bag(w93, _division_with_bag(
                   w93, (9,), 2, w93.verts))]
    assert not any(r.passed for r in failing)
    checked = 0
    for rec in records + failing:
        if not hasattr(rec, "as_json"):
            continue
        before = json.dumps(rec.as_json())
        out = rec.as_json()
        for c in list(_containers(out)):
            if isinstance(c, dict):
                c.update({k: "changed" for k in c}, added=True)
            else:
                c[:] = ["changed"] * len(c) + ["added"]
        assert json.dumps(rec.as_json()) == before, type(rec).__name__
        checked += 1
    assert checked >= 20


def test_weights_compare_by_value():
    """Two WeightFns are equal, and hash alike, when they give every
    vertex the same weight, whatever their stored denominator or class
    order; so the records that hold one compare by value too."""
    g = make("P5")
    support = 0b10110
    on = WeightFn.uniform_on(g, support)
    listed = WeightFn(5, ["0", "1/3", "1/3", "0", "1/3"])
    doubled = WeightFn._made(5, 6, ((2, support),))
    assert on == listed == doubled
    assert hash(on) == hash(listed) == hash(doubled)
    assert on != WeightFn.uniform(g) and on != list(on.values)
    skew = WeightFn(5, ["1/2", "1/4", "1/8", "1/16", "1/16"])
    reordered = WeightFn._made(5, 16, tuple(reversed(skew._classes)))
    assert skew == reordered and hash(skew) == hash(reordered)
    # vertex 0 also carries vertex 1's weight; inherited lists the
    # classes of the vertices it leaves alone first, shifted in vertex
    # order
    inherited = skew.inherited({0: 0b10})
    shifted = skew.shifted({0: "1/4"})
    assert inherited._classes != shifted._classes
    assert inherited == shifted and hash(inherited) == hash(shifted)
    w93, heavy = _heavy_w93()
    div = hub_division(w93, heavy, 4)
    assert hub_division(w93, heavy, 4) == div
    assert pickle.loads(pickle.dumps(div.bag)) == div.bag
