"""The record classes: equality, hashing, printing, immutability and defaults."""

from fractions import Fraction as F

import pytest

from gfinv import program as P
from gfinv.algebra import ClosedForm, ExtendedMass, Polynomial
from gfinv.oracle import SparseMeasure
from gfinv.synthesis import Failure, PolySystem, SynthesisConfig

X_OVER_ONE = ClosedForm(Polynomial.var("x"), Polynomial.const(1))


@pytest.mark.parametrize("a, same, other", [
    (P.And(P.Lt("x", 1), P.Eq("y", 2)), P.And(P.Lt("x", 1), P.Eq("y", 2)),
     P.Or(P.Lt("x", 1), P.Eq("y", 2))),
    (P.Skip(), P.Skip(), P.Diverge()),
    (P.Lt("x", 1), P.Lt("x", 1), P.Eq("x", 1)),
], ids=["and-or", "skip-diverge", "lt-eq"])
def test_records_of_look_alike_classes_are_unequal(a, same, other):
    assert a == same and hash(a) == hash(same)
    assert a != other and not a == other
    assert len({a, same, other}) == 2


def test_hand_written_records_compare_every_field():
    x, one, two = Polynomial.var("x"), Polynomial.const(1), Polynomial.const(2)
    assert ClosedForm(x, one) == X_OVER_ONE != ClosedForm(x, two)
    assert X_OVER_ONE != ClosedForm(one, one)
    assert SparseMeasure({(0,): F(1)}, F(1)) != SparseMeasure({(0,): F(1)})
    assert SparseMeasure({(0,): F(1)}) != SparseMeasure({(1,): F(1)})


def test_fields_are_taken_by_position_or_keyword():
    assert P.Lt("x", bound=1) == P.Lt(var="x", bound=1) == P.Lt("x", 1) != P.Lt("x", 2)
    for bad in (lambda: P.Lt("x"), lambda: P.Lt("x", 1, 2), lambda: P.Lt("x", 1, var="y"),
                lambda: P.Lt("x", 1, guard=None)):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("record, fields", [
    (P.Lt("x", 1), ("x", 1)),
    (P.Skip(), ()),
    (P.IidIncrement("x", P.dirac(2), None), ("x", P.dirac(2), None)),
    (P.Seq((P.Skip(), P.Decrement("x"))), ((P.Skip(), P.Decrement("x")),)),
    (X_OVER_ONE, (Polynomial.var("x"), Polynomial.const(1))),
    (ExtendedMass(True, F(3)), (True, F(3))),
    (PolySystem((), ("a",)), ((), ("a",), ())),
], ids=["lt", "skip", "iid", "seq", "closed-form", "mass", "poly-system"])
def test_hash_is_the_hash_of_the_field_tuple(record, fields):
    assert hash(record) == hash(fields)


def test_repr_names_the_class_and_each_field():
    assert (repr(P.And(P.Lt("x", 1), P.Not(P.Eq("y", 2))))
            == "And(left=Lt(var='x', bound=1), right=Not(inner=Eq(var='y', value=2)))")
    assert repr(P.Skip()) == "Skip()"
    assert repr(SynthesisConfig()) == (
        "SynthesisConfig(max_den_degree=3, timeout_s=60.0, user_template=None)")
    assert repr(SparseMeasure({(1,): F(1, 2)})) == (
        "SparseMeasure(entries={(1,): Fraction(1, 2)}, residual=Fraction(0, 1))")
    assert repr(ExtendedMass.of(3)) == "Mass(3)"      # its own repr wins


@pytest.mark.parametrize("record, name", [
    (P.Lt("x", 1), "bound"),
    (P.Seq((P.Skip(),)), "stmts"),
    (X_OVER_ONE, "num"),
    (ExtendedMass.of(1), "value"),
    (PolySystem((), ()), "numerator"),
], ids=["lt", "seq", "closed-form", "mass", "poly-system"])
def test_a_frozen_record_cannot_be_changed(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == before


def test_a_plain_record_can_be_changed_and_is_unhashable():
    m = SparseMeasure({})
    m.residual = F(1, 3)
    assert m == SparseMeasure({}, F(1, 3)) != SparseMeasure({})
    with pytest.raises(TypeError):
        hash(m)


def test_defaults():
    m = SparseMeasure({(0,): F(1)})
    assert m.residual == 0 and m == SparseMeasure({(0,): F(1)}, F(0))
    assert PolySystem((), ("a",)).numerator == ()
    cfg = SynthesisConfig()
    assert (cfg.max_den_degree, cfg.timeout_s, cfg.user_template) == (3, 60.0, None)
    assert SynthesisConfig(timeout_s=2.0) == SynthesisConfig(3, 2.0, None)


def test_failures_do_not_share_a_diagnostics_list():
    a, b = Failure("solve", "first"), Failure("solve", "second")
    a.diagnostics.append("only in a")
    assert b.diagnostics == [] and a.diagnostics == ["only in a"]
    assert a.candidate is None and Failure(stage="s", message="m") == Failure("s", "m", [], None)
