"""Line-oriented design file format.

    gcd 1
    t: 2
    lambda: 1
    v: 4 2 2
    k: 2 1 1
    blocks:
    1 2 | 1 | 1

`#` starts a comment anywhere on a line; blank lines are ignored; CRLF
input is accepted.  Labels start at 1; a `*` in a block is a retained
placeholder, core's STAR in the parsed parts, and a document holding one
parses to core's PlaceholderDesign.  Both kinds take one constructor call,
which makes make_block's check on each block once.  Emission is
canonical: labels ascending, placeholders last, parts joined by ` | `,
headers in the order shown.

parse_design reads the block lines one by one and does not load numpy.
`gencov verify` loads through parse_label_arrays instead, which reads a
block section of plain decimal labels with one numpy read into the
label arrays of verify's module docstring, one (n_blocks, k_i) array
per part holding the labels as written, and checks them in bulk
(core._check_labels); verify's counting flow counts them as read, and
no Design is built.  For any other block section, a `*`, a bad token
or a bad label included, it returns None, and the command falls back
to parse_design, and so to its result and errors.

Covering-array files (parse_array) share the comment and blank-line
rules: one row of integer entries per line.
"""

from __future__ import annotations

import re
import warnings

from .core import (STAR, Design, PartStructure, PlaceholderDesign, _check_labels,
                   check_strength_lambda)
from .errors import (DesignSemanticError, DesignSyntaxError, GencovError, StrengthTooLarge,
                     StructureMismatch)

_HEADER = "gcd 1"
_KEYS = ("t", "lambda", "v", "k")


def _parse_int(token: str, lineno: int, text: str, offset: int) -> int:
    """token as an integer.  On failure the error's column is that of the
    token in the line, where text, which holds the token, starts at
    0-based column offset."""
    try:
        return int(token)
    except ValueError:
        # Tokens are split at whitespace and "|", so the first occurrence
        # bounded by those is this one: an earlier equal token would have
        # failed first.
        at = re.search(rf"(?<![^\s|]){re.escape(token)}(?![^\s|])", text)
        raise DesignSyntaxError(f"expected integer, got {token!r}",
                                line=lineno, column=offset + at.start() + 1) from None


def _significant_lines(text: str) -> list[tuple[int, str, int]]:
    """(line number, content, 0-based column of the content) of each line,
    comments and blanks removed.  Anything but a str raises
    DesignSyntaxError."""
    if not isinstance(text, str):
        raise DesignSyntaxError(f"document must be text, got a {type(text).__name__}")
    rows = []
    for n, raw in enumerate(text.splitlines(), start=1):
        head = raw.split("#", 1)[0]
        body = head.strip()
        if body:
            rows.append((n, body, len(head) - len(head.lstrip())))
    return rows


def parse_array(text: str) -> list[tuple[int, ...]]:
    """The integer rows of a covering-array file, one per line."""
    return [tuple(_parse_int(x, n, body, col) for x in body.split())
            for n, body, col in _significant_lines(text)]


def _block_tokens(lineno: int, body: str, col: int) -> tuple[tuple, ...]:
    """The entries of one block line, part by part: labels and STARs."""
    if STAR not in body:
        try:
            return tuple(tuple(map(int, chunk.split())) for chunk in body.split("|"))
        except ValueError:
            pass  # the slow path below names the token and its column
    return tuple(tuple(STAR if token == STAR else _parse_int(token, lineno, body, col)
                       for token in chunk.split())
                 for chunk in body.split("|"))


def _parse_head(text: str) -> tuple[PartStructure, int, int, list[tuple[int, str, int]]]:
    """(structure, t, lambda, block rows) of a document, the headers
    checked; the rows are _significant_lines' rows after 'blocks:'."""
    rows = _significant_lines(text)
    if not rows:
        raise DesignSyntaxError("empty document", line=1)
    lineno, head, _ = rows[0]
    if head != _HEADER:
        raise DesignSyntaxError(f"expected {_HEADER!r}, got {head!r}", line=lineno)

    # key: (line number, value, 0-based column of the value)
    fields: dict[str, tuple[int, str, int]] = {}
    pos = 1
    while pos < len(rows):
        lineno, body, col = rows[pos]
        if body == "blocks:":
            pos += 1
            break
        key, sep, rest = body.partition(":")
        key = key.strip()
        if not sep or key not in _KEYS:
            raise DesignSyntaxError(f"expected one of {_KEYS} or 'blocks:', got {body!r}",
                                    line=lineno)
        if key in fields:
            raise DesignSyntaxError(f"duplicate header {key!r}", line=lineno)
        fields[key] = (lineno, rest.strip(), col + len(body) - len(rest.lstrip()))
        pos += 1
    else:
        raise DesignSyntaxError("missing 'blocks:' line", line=rows[-1][0])
    for key in _KEYS:
        if key not in fields:
            raise DesignSyntaxError(f"missing header {key!r}", line=lineno)

    t = _parse_int(fields["t"][1], *fields["t"])
    lam = _parse_int(fields["lambda"][1], *fields["lambda"])
    v = tuple(_parse_int(x, *fields["v"]) for x in fields["v"][1].split())
    k = tuple(_parse_int(x, *fields["k"]) for x in fields["k"][1].split())
    if not v:
        raise DesignSyntaxError("empty part list", line=fields["v"][0])
    if len(v) != len(k):
        raise DesignSemanticError(f"{len(v)} part sizes but {len(k)} profile entries",
                                  line=fields["k"][0])
    try:
        s = PartStructure(v, k)
    except GencovError as e:
        key = "v" if min(v) < 1 else "k"
        raise DesignSemanticError(str(e), line=fields[key][0]) from e
    # The checks of t and lambda that Design and PlaceholderDesign share,
    # made before any block line so that the error carries the header's line.
    try:
        check_strength_lambda(s, t, lam)
    except GencovError as e:
        key = "t" if isinstance(e, StrengthTooLarge) else "lambda"
        raise DesignSemanticError(str(e), line=fields[key][0]) from e
    return s, t, lam, rows[pos:]


def _parse_blocks(s: PartStructure, t: int, lam: int,
                  lines: list[tuple[int, str, int]]) -> Design | PlaceholderDesign:
    """The design of the block rows lines, read line by line."""
    kind = PlaceholderDesign if any(STAR in body for _, body, _ in lines) else Design
    # The constructor checks each block once.  Only on a failure are the
    # lines read so far checked one by one, each as a one-block design of
    # the same kind, so that the first bad line is the one reported, also
    # when a later line holds a syntax error.
    tokens = []
    try:
        for row in lines:
            tokens.append(_block_tokens(*row))
        return kind(s, t, tuple(tokens), lam)
    except GencovError:
        for (n, _, _), parts in zip(lines, tokens):
            try:
                kind(s, t, (parts,), lam)
            except GencovError as e:
                raise DesignSemanticError(str(e), line=n) from e
        raise


def parse_design(text: str) -> Design | PlaceholderDesign:
    """Parse document text; placeholder entries yield a PlaceholderDesign."""
    return _parse_blocks(*_parse_head(text))


def parse_label_arrays(text: str) -> tuple[PartStructure, int, int, list] | None:
    """(structure, t, lambda, labels) of document text, labels the label
    arrays of verify's module docstring, one-based (n_blocks, k_i) int64
    views, read by one np.fromstring and checked by core._check_labels;
    None for a block section that read or check does not vouch for,
    such as none or one with a `*`, a bad token or a bad label.  Header
    errors are parse_design's.

    Only ASCII digits, spaces, tabs and bars are read: a sign, an
    underscore, a non-ASCII digit or space or a `*` is left to
    parse_design, as are part sizes of 2^62 or more, at which a label
    saturated to 2^63 - 1 could pass the range check.  Each line must
    hold m - 1 bars.  Each bar and each line end then reads as a 0, and
    the read is reshaped to (n_blocks, k_sum + m), a 0 after each part's
    labels.  If some line holds other than k_i labels in part i, one of
    those n_blocks * m 0s lands among the labels, and core._check_labels
    refuses it, as it refuses any label below 1."""
    s, t, lam, lines = _parse_head(text)
    import numpy as np

    if (not lines or max(s.v) >= 1 << 62
            or any(body.count("|") != s.m - 1 for _, body, _ in lines)):
        return None
    blocks = " 0 ".join([body.replace("|", " 0 ") for _, body, _ in lines]) + " 0"
    if blocks.encode().translate(None, b"0123456789 \t"):
        return None
    try:
        with warnings.catch_warnings():
            # numpy 1.x warns of unread data where numpy 2 raises
            warnings.simplefilter("error", DeprecationWarning)
            flat = np.fromstring(blocks, dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    if flat.size != len(lines) * (s.k_sum + s.m):
        return None
    flat = flat.reshape(len(lines), s.k_sum + s.m)
    labels, start = [], 0
    for ki in s.k:
        labels.append(flat[:, start:start + ki])
        start += ki + 1
    return (s, t, lam, labels) if _check_labels(s, labels) else None


def emit_design(d: Design | PlaceholderDesign) -> str:
    """Canonical document text; parse_design(emit_design(d)) == d.
    Anything but a Design or a PlaceholderDesign raises StructureMismatch."""
    if not isinstance(d, (Design, PlaceholderDesign)):
        raise StructureMismatch(
            f"emit_design takes a Design or a PlaceholderDesign, got a {type(d).__name__}")
    s = d.structure
    lines = [_HEADER, f"t: {d.t}", f"lambda: {d.lam}",
             "v: " + " ".join(map(str, s.v)),
             "k: " + " ".join(map(str, s.k)),
             "blocks:"]
    for b in d.blocks:
        lines.append(" | ".join(" ".join(map(str, part)) for part in b))
    return "\n".join(lines) + "\n"
