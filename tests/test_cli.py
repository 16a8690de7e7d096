import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eplab
from eplab import InapplicableError, InputError, catalog, catalog_names, write_matrix
from eplab.cli import main, main_entry, parse_size_list

G = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
P = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def _assert_same_up_to_roundoff(got, expected):
    # flags, dimensions and reasons equal; residuals within 1e-12 relative,
    # or 1e-14 absolute where a residual is roundoff
    if isinstance(expected, dict):
        assert got.keys() == expected.keys()
        for key in expected:
            _assert_same_up_to_roundoff(got[key], expected[key])
    elif isinstance(expected, float):
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)
    else:
        assert got == expected


@pytest.mark.parametrize(
    "argv, code", [(["catalog"], 0), (["fuzz", "not_a_suite", "--trials", "1"], 2)]
)
def test_the_console_script_exits_with_mains_code(argv, code, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["eplab", *argv])
    with pytest.raises(SystemExit) as exit_:
        main_entry()
    assert exit_.value.code == code


class TestParseSizeList:
    def test_forms(self):
        assert parse_size_list("5") == [5]
        assert parse_size_list("2:5") == [2, 3, 4, 5]
        assert parse_size_list("8,2,4") == [2, 4, 8]
        assert parse_size_list("2:4,9") == [2, 3, 4, 9]

    def test_empty(self):
        with pytest.raises(Exception):
            parse_size_list(",")

    def test_descending_range_is_named(self):
        with pytest.raises(InputError, match="^empty size range '5:3'$"):
            parse_size_list("5:3")

    @pytest.mark.parametrize("text", ["2:x", "a", "2:", ":3", "2,x:4"])
    def test_malformed_chunk_is_named(self, text):
        bad = text.split(",")[-1]
        with pytest.raises(InputError, match=f"^bad size {bad!r}$"):
            parse_size_list(text)


class TestClassifyCommand:
    def test_posinormal_flags_for_both_orders(self, tmp_path, capsys):
        gp, pg = tmp_path / "gp.cmat", tmp_path / "pg.cmat"
        write_matrix(gp, G @ P)
        write_matrix(pg, P @ G)
        code, doc, _ = run_json(capsys, "classify", str(gp))
        assert code == 0
        assert doc["command"] == "classify"
        assert doc["result"]["flags"]["posinormal"] is True
        code, doc, _ = run_json(capsys, "classify", str(pg))
        assert code == 0
        assert doc["result"]["flags"]["posinormal"] is False

    def test_zero_matrix_all_true(self, tmp_path, capsys):
        path = tmp_path / "z.cmat"
        write_matrix(path, np.zeros((3, 3)))
        code, doc, _ = run_json(capsys, "classify", str(path))
        assert code == 0
        assert all(doc["result"]["flags"].values())

    def test_malformed_file_exits_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cmat"
        path.write_text("cmat 1 2 2\n1 2\n3\n")
        code, out, err = run_cli(capsys, "classify", str(path))
        assert code == 2
        assert "line 3" in err

    def test_inapplicable_procedure_exits_2_naming_it(self, capsys, monkeypatch):
        # a NaN residual raises InapplicableError; main prints it, not a report
        def handler(args, cfg):
            raise InapplicableError("ep residual is not finite (nan)")

        monkeypatch.setattr("eplab.cli.cmd_classify", handler)
        code, out, err = run_cli(capsys, "classify", "unread.cmat")
        assert (code, out) == (2, "")
        assert err == "eplab: inapplicable: ep residual is not finite (nan)\n"

    def test_a_largest_singular_value_beyond_the_double_range_exits_2(
        self, tmp_path, capsys
    ):
        # finite entries whose sigma_1 = 2**1024 overflows: no report of rank 0
        path = tmp_path / "huge.cmat"
        write_matrix(path, 2.0**1023 * np.ones((2, 2)))
        code, out, err = run_cli(capsys, "classify", str(path))
        assert (code, out) == (2, "")
        assert err == "eplab: inapplicable: largest singular value is not finite (inf)\n"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "classify", str(tmp_path / "absent.cmat"))
        assert code == 2
        assert err

    def test_tolerance_flags_are_echoed(self, tmp_path, capsys):
        path = tmp_path / "m.cmat"
        write_matrix(path, np.eye(2))
        code, doc, _ = run_json(
            capsys, "--tol-subspace", "1e-6", "classify", str(path)
        )
        assert code == 0
        assert doc["tolerances"]["subspace_tol"] == 1e-6


class TestProductCommand:
    def test_shear_projection_report(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.cmat", tmp_path / "b.cmat"
        write_matrix(pa, G)
        write_matrix(pb, P)
        code, doc, _ = run_json(capsys, "product", str(pa), str(pb))
        assert code == 0
        hk = doc["result"]["hartwig_katz"]
        assert hk["cond_i"] and hk["cond_ii"] and hk["ab_ep"]
        assert doc["result"]["djordjevic"]["ab_ep"] is True

    def test_size_mismatch_exits_2(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.cmat", tmp_path / "b.cmat"
        write_matrix(pa, np.eye(2))
        write_matrix(pb, np.eye(3))
        code, _, err = run_cli(capsys, "product", str(pa), str(pb))
        assert code == 2
        assert "mismatch" in err

    def test_identity_pair_all_true(self, tmp_path, capsys):
        pa = tmp_path / "i.cmat"
        write_matrix(pa, np.eye(2))
        code, doc, _ = run_json(capsys, "product", str(pa), str(pa))
        assert code == 0
        hk = doc["result"]["hartwig_katz"]
        assert all(
            hk[k]
            for k in ("cond_i", "cond_ii", "ab_ep", "a_ep", "b_ep", "range_identity")
        )

    @pytest.mark.parametrize("name", ["shear_projection_pair", "jordan2"])
    def test_djordjevic_is_the_gated_hartwig_katz_report(self, name, tmp_path, capsys):
        pair = catalog(name)
        pa, pb = tmp_path / "a.cmat", tmp_path / "b.cmat"
        write_matrix(pa, pair.a)
        write_matrix(pb, pair.b)
        code, doc, _ = run_json(capsys, "product", str(pa), str(pb))
        assert code == 0
        result = doc["result"]
        if name == "jordan2":
            assert result["djordjevic"] == {
                "applicable": False,
                "reason": "both operands must be EP (residuals 1.000e+00, 1.000e+00)",
            }
        else:
            assert result["djordjevic"] == result["hartwig_katz"]


class TestDecomposeCommand:
    def test_diagonal_pair(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.cmat", tmp_path / "b.cmat"
        write_matrix(pa, np.diag([1.0, 0.0]))
        write_matrix(pb, np.diag([2.0, 3.0]))
        code, doc, _ = run_json(capsys, "decompose", str(pa), str(pb))
        assert code == 0
        assert doc["result"]["core_dim"] == 1
        assert doc["result"]["kernel_inclusions"]["kernel_z_included"] is True
        assert doc["result"]["conditions"]["y_zero"] is True

    def test_noncommuting_pair_marked_inapplicable(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.cmat", tmp_path / "b.cmat"
        write_matrix(pa, np.diag([1.0, 0.0]))
        write_matrix(pb, G)
        code, doc, _ = run_json(capsys, "decompose", str(pa), str(pb))
        assert code == 0
        assert doc["result"]["kernel_inclusions"]["applicable"] is False
        assert doc["result"]["residuals"]["commutation"] > 0.5

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_pair_decided_alike_at_every_scale(self, name, tmp_path, capsys):
        # the envelope is that of the unit-scaled pair, so scaling both
        # operands by 1e-150 or 1e150 changes no decision and no residual
        # beyond roundoff
        pair = catalog(name)
        results = []
        for scale in (1e-150, 1.0, 1e150):
            pa, pb = tmp_path / f"a{scale}.cmat", tmp_path / f"b{scale}.cmat"
            write_matrix(pa, scale * pair.a)
            write_matrix(pb, scale * pair.b)
            code, doc, _ = run_json(capsys, "decompose", str(pa), str(pb))
            assert code == 0
            results.append(doc["result"])
        for result in results:
            _assert_same_up_to_roundoff(result, results[1])


class TestFuzzCommand:
    def test_clean_suite_exits_0(self, capsys):
        code, doc, _ = run_json(
            capsys, "fuzz", "hartwig_katz", "--trials", "15", "--dims", "2:5",
            "--seed", "3",
        )
        assert code == 0
        assert doc["result"]["ok"] is True
        assert doc["violations"] == []

    def test_envelope_deterministic_across_jobs(self, capsys):
        args = ("fuzz", "collapse", "--trials", "20", "--dims", "2:6", "--seed", "9")
        code1, out1, _ = run_cli(capsys, *args, "--jobs", "1")
        code2, out2, _ = run_cli(capsys, *args, "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_env_seed_default(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("EPLAB_SEED", "321")
        code, doc, _ = run_json(
            capsys, "fuzz", "powers", "--trials", "2", "--dims", "2:3"
        )
        assert code == 0
        assert doc["result"]["seed"] == 321

    def test_bad_suite_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "fuzz", "not_a_suite", "--trials", "1")
        assert code == 2

    @pytest.mark.parametrize("dims", ["2:x", "a", "2:"])
    def test_malformed_dims_usage_error(self, capsys, dims):
        # a usage error, not a traceback: exit 1 would mean violations found
        code, out, err = run_cli(capsys, "fuzz", "hartwig_katz", "--dims", dims)
        assert (code, out) == (2, "")
        assert err == f"eplab: error: bad size {dims!r}\n"


class TestTruncateCommand:
    def test_csv_output_and_stability(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        args = (
            "truncate", "tilted_projections", "--dims", "0:6", "--out", str(out),
        )
        code, doc, _ = run_json(capsys, *args)
        assert code == 0
        first = out.read_bytes()
        header = first.decode().splitlines()[0]
        assert header == "size,cos_min_angle,bouldin_cos,sigma_min_plus,ab_ep"
        assert len(first.decode().splitlines()) == 8
        code, _, _ = run_cli(capsys, *args)
        assert code == 0
        assert out.read_bytes() == first  # bit-stable across runs

    def test_weighted_shift_sigma_column(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        code, doc, _ = run_json(
            capsys, "truncate", "weighted_shift", "--dims", "2:10", "--out", str(out)
        )
        assert code == 0
        for row in doc["result"]["rows"]:
            assert row["sigma_min_plus"] == pytest.approx(1 / (row["size"] - 1))
            assert row["ab_ep"] is False

    def test_unknown_family_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "truncate", "nope", "--dims", "2:3")
        assert code == 2

    def test_malformed_dims_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "truncate", "weighted_shift", "--dims", "1:x")
        assert (code, out) == (2, "")
        assert err == "eplab: error: bad size '1:x'\n"


class TestCatalogCommand:
    def test_list_names(self, capsys):
        code, doc, _ = run_json(capsys, "catalog")
        assert code == 0
        assert len(doc["result"]["names"]) >= 3

    def test_emit_and_reclassify(self, tmp_path, capsys):
        code, doc, _ = run_json(
            capsys, "catalog", "shear_projection_pair", "--emit", "--out", str(tmp_path)
        )
        assert code == 0
        file_a, file_b = doc["result"]["files"]
        code, doc_a, _ = run_json(capsys, "classify", file_a)
        assert code == 0
        assert doc_a["result"]["flags"]["ep"] is True  # the shear is invertible
        code, doc_b, _ = run_json(capsys, "classify", file_b)
        assert doc_b["result"]["flags"]["normal"] is True

    def test_emit_without_name_is_a_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "emitted"
        code, out, err = run_cli(capsys, "catalog", "--emit", "--out", str(out_dir))
        assert code == 2
        assert out == ""
        assert "--emit" in err
        assert not out_dir.exists()

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "missing")
        assert code == 2
        assert "unknown catalog name" in err


class TestEnvelopeShape:
    def test_stable_keys(self, tmp_path, capsys):
        path = tmp_path / "m.cmat"
        write_matrix(path, np.eye(2))
        _, doc, _ = run_json(capsys, "classify", str(path))
        assert list(doc) == [
            "command", "inputs", "tolerances", "result", "violations", "version",
        ]
        assert doc["version"]

    def test_json_round_trips(self, tmp_path, capsys):
        path = tmp_path / "m.cmat"
        write_matrix(path, np.diag([1.0, 0.0]))
        _, out, _ = run_cli(capsys, "classify", str(path))
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc


class TestToleranceOptions:
    def test_defaults_in_envelope(self, tmp_path, capsys):
        path = tmp_path / "g.cmat"
        write_matrix(path, G)
        code, doc, _ = run_json(capsys, "classify", str(path))
        assert code == 0
        assert doc["tolerances"] == {
            "rank_multiplier": 50.0, "subspace_tol": 1e-8, "psd_tol": 1e-10,
        }

    @pytest.mark.parametrize("option", ["--tol-rank-mult", "--tol-subspace", "--tol-psd"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0"])
    def test_non_finite_tolerance_is_usage_error(self, tmp_path, capsys, option, value):
        # an infinite subspace_tol used to pass every gate: the 2x2 Jordan
        # block came out EP and normal, in an envelope holding "Infinity"
        path = tmp_path / "jordan.cmat"
        write_matrix(path, np.array([[0.0, 1.0], [0.0, 0.0]]))
        code, out, err = run_cli(capsys, f"{option}={value}", "classify", str(path))
        assert code == 2
        assert out == ""
        assert "finite" in err


class TestSeedEnvironment:
    def test_invalid_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("EPLAB_SEED", "7x")
        code, out, err = run_cli(capsys, "fuzz", "powers", "--trials", "2", "--dims", "2:3")
        assert code == 2
        assert out == ""
        assert "7x" in err

    def test_explicit_seed_overrides_invalid_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("EPLAB_SEED", "7x")
        code, doc, _ = run_json(
            capsys, "fuzz", "powers", "--trials", "2", "--dims", "2:3", "--seed", "5"
        )
        assert code == 0
        assert doc["result"]["seed"] == 5


class TestColdStart:
    @staticmethod
    def loaded_by_import(module):
        """Whether ``import eplab.cli`` in a fresh interpreter loads
        ``module``, as that interpreter prints it: "True" or "False"."""
        src = str(Path(eplab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = f"import eplab.cli, sys; print({module!r} in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        return out.stdout.strip()

    def test_import_does_not_load_the_process_pool(self):
        # multiprocessing is imported only by a run with --jobs above 1
        assert self.loaded_by_import("concurrent.futures.process") == "False"

    def test_import_does_not_load_dataclasses(self):
        # reports are config.Record subclasses: defining one runs no exec,
        # where each frozen dataclass ran it about five times at import
        assert self.loaded_by_import("dataclasses") == "False"
