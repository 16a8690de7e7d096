"""Text format for complex matrices ("CMAT v1").

Layout::

    cmat 1 <rows> <cols>
    <row of fields> ...

One line per row, ``cols`` whitespace-separated fields per line.  A field
is ``<re>`` or ``<re>:<im>`` with decimal floats.  Blank lines and lines
starting with ``#`` are ignored.  Wrong field counts are rejected with the
offending line number.
"""

import math

import numpy as np

from .errors import CmatParseError


def _parse_field(token, line_no):
    parts = token.split(":")
    if len(parts) > 2:
        raise CmatParseError(f"malformed field {token!r}", line_no)
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise CmatParseError(f"malformed field {token!r}", line_no) from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise CmatParseError(f"non-finite field {token!r}", line_no)
    return complex(re, im)


def parse_matrix(text):
    """Parse CMAT v1 text into a complex matrix."""
    numbered = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
    ]
    content = [(no, line) for no, line in numbered if line and not line.startswith("#")]
    if not content:
        raise CmatParseError("missing header line", 1)

    header_no, header = content[0]
    tokens = header.split()
    if len(tokens) != 4 or tokens[0] != "cmat" or tokens[1] != "1":
        raise CmatParseError(
            "header must be 'cmat 1 <rows> <cols>'", header_no
        )
    try:
        rows, cols = int(tokens[2]), int(tokens[3])
    except ValueError:
        raise CmatParseError("rows/cols must be integers", header_no) from None
    if rows < 0 or cols < 0:
        raise CmatParseError("rows/cols must be nonnegative", header_no)

    data_lines = content[1:]
    expected = rows if cols > 0 else 0
    if len(data_lines) != expected:
        where = data_lines[expected][0] if len(data_lines) > expected else header_no
        raise CmatParseError(
            f"expected {expected} data line(s), found {len(data_lines)}", where
        )

    out = np.zeros((rows, cols), dtype=np.complex128)
    for r, (line_no, line) in enumerate(data_lines):
        fields = line.split()
        if len(fields) != cols:
            raise CmatParseError(
                f"expected {cols} field(s), found {len(fields)}", line_no
            )
        for c, token in enumerate(fields):
            out[r, c] = _parse_field(token, line_no)
    return out


def read_matrix(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise CmatParseError(f"not UTF-8 text ({exc.reason})", line) from None
    return parse_matrix(text)


def _format_entry(value):
    re, im = float(value.real), float(value.imag)
    if im == 0.0 and math.copysign(1.0, im) > 0:  # -0.0 keeps its field
        return repr(re)
    return f"{re!r}:{im!r}"


def format_matrix(m):
    """Render a matrix as CMAT v1 text (floats use shortest round-trip form)."""
    m = np.asarray(m, dtype=np.complex128)
    rows, cols = m.shape
    lines = [f"cmat 1 {rows} {cols}"]
    for r in range(rows):
        if cols:
            lines.append(" ".join(_format_entry(m[r, c]) for c in range(cols)))
    return "\n".join(lines) + "\n"


def write_matrix(path, m):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(m))
