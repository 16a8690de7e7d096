import numpy as np
import pytest

from eplab import CmatParseError, format_matrix, parse_matrix, read_matrix, write_matrix


class TestParse:
    def test_basic(self):
        m = parse_matrix("cmat 1 2 2\n1 0\n0:-2.5 3\n")
        np.testing.assert_allclose(m, [[1.0, 0.0], [-2.5j, 3.0]])

    def test_comments_and_blank_lines(self):
        text = "\n# header comment\ncmat 1 1 2\n\n# row comment\n0.5 -1:2.25\n\n"
        m = parse_matrix(text)
        np.testing.assert_allclose(m, [[0.5, -1.0 + 2.25j]])

    def test_scientific_notation(self):
        m = parse_matrix("cmat 1 1 1\n1e-3:-2E4\n")
        assert m[0, 0] == pytest.approx(1e-3 - 2e4j)

    def test_empty_matrix(self):
        assert parse_matrix("cmat 1 0 3\n").shape == (0, 3)
        assert parse_matrix("cmat 1 3 0\n").shape == (3, 0)

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(CmatParseError) as err:
            parse_matrix("cmat 1 2 2\n1 2\n3\n")
        assert err.value.line == 3
        assert "field" in str(err.value)

    def test_malformed_field_reports_line(self):
        with pytest.raises(CmatParseError) as err:
            parse_matrix("cmat 1 1 2\n1 two\n")
        assert err.value.line == 2

    def test_too_many_colons(self):
        with pytest.raises(CmatParseError):
            parse_matrix("cmat 1 1 1\n1:2:3\n")

    def test_missing_rows(self):
        with pytest.raises(CmatParseError):
            parse_matrix("cmat 1 3 1\n1\n2\n")

    def test_extra_rows_report_line(self):
        with pytest.raises(CmatParseError) as err:
            parse_matrix("cmat 1 1 1\n1\n2\n")
        assert err.value.line == 3

    def test_bad_header(self):
        for text in ("", "cmat 2 1 1\n1\n", "matrix 1 1 1\n1\n", "cmat 1 1\n1\n"):
            with pytest.raises(CmatParseError):
                parse_matrix(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("cmat 1 x 1\n1\n", "rows/cols must be integers"),
            ("cmat 1 1 2.0\n1 2\n", "rows/cols must be integers"),
            ("cmat 1 -1 1\n", "rows/cols must be nonnegative"),
            ("cmat 1 1 -1\n1\n", "rows/cols must be nonnegative"),
        ],
    )
    def test_bad_header_sizes_are_named(self, text, message):
        with pytest.raises(CmatParseError, match=message) as err:
            parse_matrix(text)
        assert err.value.line == 1

    def test_rejects_nonfinite_tokens(self):
        with pytest.raises(CmatParseError) as err:
            parse_matrix("cmat 1 1 1\ninf\n")
        assert err.value.line == 2
        with pytest.raises(CmatParseError):
            parse_matrix("cmat 1 1 1\n0:nan\n")


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_matrices(self, seed):
        rng = np.random.default_rng(30_000 + seed)
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        if seed % 2:
            m = m.real.astype(complex)
        again = parse_matrix(format_matrix(m))
        assert np.array_equal(m, again)

    def test_tiny_and_huge_magnitudes(self):
        m = np.array([[1e-300, -1e300], [3.141592653589793, 1.0 + 1e-17j]])
        assert np.array_equal(parse_matrix(format_matrix(m)), m)

    def test_a_file_that_is_not_utf8_reports_its_line(self, tmp_path):
        # a Latin-1 comment on line 3: a parse error, not a UnicodeDecodeError
        path = tmp_path / "latin1.cmat"
        path.write_bytes(b"cmat 1 1 1\n1\n# caf\xe9\n")
        with pytest.raises(CmatParseError, match="^line 3: not UTF-8 text") as err:
            read_matrix(path)
        assert err.value.line == 3

    def test_file_round_trip(self, tmp_path):
        m = np.array([[1.5, -2.0j], [0.0, 3.25 + 4.5j]])
        path = tmp_path / "m.cmat"
        write_matrix(path, m)
        assert np.array_equal(read_matrix(path), m)

    def test_signed_zeros_round_trip(self):
        # -0.0 == 0.0, so only the bytes show a lost sign
        m = np.array([[complex(1.0, -0.0), complex(-0.0, 0.0)], [complex(-0.0, -0.0), 0.0]])
        text = format_matrix(m)
        assert text == "cmat 1 2 2\n1.0:-0.0 -0.0\n-0.0:-0.0 0.0\n"
        assert parse_matrix(text).tobytes() == m.tobytes()

    def test_real_entries_have_no_imag_field(self):
        text = format_matrix(np.array([[2.0, -3.5]]))
        assert text == "cmat 1 1 2\n2.0 -3.5\n"
