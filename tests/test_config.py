import gc
import inspect
import math
import sys

import numpy as np
import pytest

import eplab  # noqa: F401  (defines every record class)
from eplab.config import DEFAULT_TOLERANCES, Record, ToleranceConfig, _lazy, gate, within
from eplab.errors import InapplicableError, InputError
from eplab.fuzz import SUITES, Violation, run_suite
from eplab.generators import random_commuting_ep_pair, sweep
from eplab.kernel import RankDecision
from eplab.predicates import classify
from eplab.products import hartwig_katz
from eplab.structure import block_kernel_inclusions, decompose_pair
from eplab.subspaces import (
    AngleReport, Factorization, Subspace, factor, factor_pair, intersect, subspace_sum,
)


class TestWithin:
    @pytest.mark.parametrize("residual", [math.nan, math.inf, -math.inf])
    def test_non_finite_residual_raises(self, residual):
        with pytest.raises(InapplicableError, match="commutation"):
            within(residual, 1.0, "commutation")
        with pytest.raises(InapplicableError):
            within(residual, math.inf)

    @pytest.mark.parametrize(
        "residual, bound",
        [
            (0.0, 0.0),
            (-0.0, 0.0),
            (1e-8, 1e-8),
            (1e-8, math.nextafter(1e-8, 0.0)),
            (math.nextafter(1e-8, 0.0), 1e-8),
            (5e-324, 0.0),
            (0.0, 5e-324),
            (-1.0, 0.0),
            (2.0, 1.0),
            (1e300, math.inf),
            (1.0, -math.inf),
            (1.0, math.nan),
        ],
    )
    def test_finite_residual_compares_like_le(self, residual, bound):
        assert within(residual, bound) is (residual <= bound)

    @pytest.mark.parametrize("residual", [math.nan, math.inf, -math.inf])
    def test_gate_raises_naming_the_non_finite_key(self, residual):
        with pytest.raises(InapplicableError, match="^kernel_z_residual is not finite"):
            gate(DEFAULT_TOLERANCES, commutation=0.0, kernel_z_residual=residual, ya=1.0)

    # the edge values above with a bound a ToleranceConfig accepts
    @pytest.mark.parametrize(
        "residual",
        [0.0, -0.0, 1e-8, math.nextafter(1e-8, 0.0), math.nextafter(1e-8, 1.0), 5e-324, 2.0],
    )
    @pytest.mark.parametrize("tol", [1e-8, math.nextafter(1e-8, 0.0), 5e-324])
    def test_gate_flag_compares_like_le_against_subspace_tol(self, residual, tol):
        flags = gate(ToleranceConfig(subspace_tol=tol), r=residual)
        assert flags == {"r": residual <= tol} and flags["r"] is (residual <= tol)

    def test_gate_keeps_the_keyword_order(self):
        names = ("z", "a", "y_norm", "b_prime_posinormal", "m")
        flags = gate(DEFAULT_TOLERANCES, **{name: 1.0 for name in names})
        assert tuple(flags) == names and set(flags.values()) == {False}
        assert gate(DEFAULT_TOLERANCES) == {}


class TestToleranceConfig:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1e-8])
    @pytest.mark.parametrize("name", ["rank_multiplier", "subspace_tol", "psd_tol"])
    def test_rejects_non_finite_and_non_positive(self, name, value):
        with pytest.raises(InputError, match=name):
            ToleranceConfig(**{name: value})


class TestRecord:
    """The frozen-record semantics every report and tolerance config has."""

    def test_the_fields_are_each_record_class_annotations_in_order(self):
        # inspect.get_annotations reads annotations on every Python version,
        # including those that no longer keep them in the class __dict__
        for cls in Record.__subclasses__():
            assert cls._fields and cls._fields == tuple(inspect.get_annotations(cls))

    def test_a_field_can_be_neither_assigned_nor_deleted(self):
        cfg = ToleranceConfig()
        with pytest.raises(AttributeError):
            cfg.psd_tol = 1.0
        with pytest.raises(AttributeError):
            del cfg.psd_tol
        assert cfg.psd_tol == 1e-10

    def test_tolerance_configs_hash_and_compare_by_value(self):
        a, b = ToleranceConfig(subspace_tol=1e-6), ToleranceConfig(50.0, 1e-6, 1e-10)
        assert a == b and hash(a) == hash(b) and a != ToleranceConfig()
        m = np.diag([1.0, 0.0])
        # factor_pair's memo key holds the config: an equal one still hits it
        assert factor_pair(m, m, a) is factor_pair(m.copy(), m.copy(), b)

    def test_violations_compare_by_value(self):
        def violations(ab_ep):
            return [Violation(3, (1, 3), "biconditional", {"ab_ep": ab_ep})]

        assert violations(0.5) == violations(0.5)
        assert violations(0.5) != violations(0.25)

    def test_eq_false_records_compare_by_identity(self):
        m = np.diag([1.0, 0.0])
        f, report = factor(m), classify(m)
        assert f == f and f != factor(m)
        assert report == report and report != classify(m)
        assert {f: 1}[f] == 1  # hashable by identity

    def test_a_pair_report_owns_its_residuals(self):
        a, b = np.diag([1.0, 0.0]), np.eye(2)
        first, second = hartwig_katz(a, b), hartwig_katz(a, b)
        assert first == second and first.residuals is not second.residuals
        first.residuals["cond_i"] = -1.0
        assert hartwig_katz(a, b).residuals == second.residuals

    def test_a_class_attribute_is_a_default(self):
        report = AngleReport(0.5, 1.0)
        assert report.bouldin_components is None
        assert report == AngleReport(cos_min_angle=0.5, angle_radians=1.0)
        assert ToleranceConfig(psd_tol=1e-6).rank_multiplier == 50.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ToleranceConfig(subspace_tl=1e-6),  # unknown
            lambda: ToleranceConfig(50.0, 1e-8, 1e-10, 1.0),  # extra
            lambda: ToleranceConfig(50.0, rank_multiplier=50.0),  # repeated
            lambda: RankDecision(1, np.ones(1)),  # missing, with no default
            lambda: RankDecision(1, np.ones(1), thresh=0.0),  # unknown for missing
        ],
    )
    def test_a_bad_argument_list_raises_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_a_kept_fact_read_on_its_class_is_its_descriptor(self):
        # help() and the docs read a fact's docstring from the class
        fact = Factorization.posinormal_residual
        assert type(fact) is _lazy
        assert fact.__doc__ == "Residual of R(m) inside R(m*), computed once."

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="no inline values before 3.11")
    def test_kept_facts_are_stored_beside_the_fields_with_no_instance_dict(self):
        # gc.get_referents lists a record's inline values one by one, and its
        # instance dict once one is made; a made dict sends every later read
        # of the record down CPython's slow path
        a, b = np.diag([1.0, 1.0, 0.0]), np.diag([2.0, 1.0, 3.0])
        for _ in range(40):  # past the instances after which CPython 3.11 adds
            factor(a)  # no name to a class's shared keys: facts read below are new
            Subspace(3, np.eye(3)[:, :1])
        f, pair = factor(a @ b), factor_pair(a, b)
        dec = decompose_pair(a, b)  # one pair report, kept in pair._reports
        # views, a caller's subspace and the lattice's new results: a view is
        # marked by its kept fact _view, not found in its dict
        caller = Subspace(3, np.array([[1.0], [0.0], [1.0]]) / np.sqrt(2.0))
        meet, join = intersect(f.range, caller), subspace_sum(f.kernel, caller)
        assert (meet.dim, join.dim) == (0, 2)
        facts = {
            f: ("range", "kernel", "cokernel", "corange", "unit", "pinv", "ep_residual"),
            pair: ("fa",),
            dec: ("fbp", "fz"),
            **{s: ("complement",) for s in (f.range, f.kernel, caller, meet, join)},
        }
        read = {obj: [getattr(obj, name) for name in names] for obj, names in facts.items()}
        kept_dicts = {pair: [pair._reports], dec: [dec.residuals]}
        assert len(pair._reports) == 1  # decompose_pair read the memoized pair
        for obj, names in facts.items():
            dicts = [x for x in gc.get_referents(obj) if type(x) is dict]
            assert list(map(id, dicts)) == list(map(id, kept_dicts.get(obj, [])))
            assert all(getattr(obj, n) is fact for n, fact in zip(names, read[obj]))

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="no inline values before 3.11")
    def test_no_record_made_by_the_procedures_has_an_instance_dict(self, monkeypatch):
        # every record each procedure builds, kept alive to the end; an
        # instance dict holds every field, and a field's dict value none
        made, init = [], Record.__init__

        def keep(record, *args, **kwargs):
            made.append(record)
            init(record, *args, **kwargs)

        monkeypatch.setattr(Record, "__init__", keep)
        a, b = random_commuting_ep_pair(5, 3, seed=3)
        classify(a @ b)
        hartwig_katz(a, b)
        block_kernel_inclusions(decompose_pair(a, b))
        for suite in SUITES:
            run_suite(suite, 3, [2, 5], seed=1)
        sweep("shift_block", [4, 6])
        kinds = {type(r).__name__ for r in made}
        assert {"Subspace", "Factorization", "FactoredPair", "FuzzOutcome"} <= kinds
        for r in made:
            fields = set(r._fields)
            assert not any(type(x) is dict and fields <= x.keys() for x in gc.get_referents(r))

    def test_a_non_positive_tolerance_still_raises_input_error(self):
        with pytest.raises(InputError, match="psd_tol"):
            ToleranceConfig(psd_tol=0)
