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
parses to a PlaceholderDesign.  Both kinds take one constructor call,
which makes make_block's check on each block once.  Emission is
canonical: labels ascending, placeholders last, parts joined by ` | `,
headers in the order shown.

Covering-array files (parse_array) share the comment and blank-line
rules: one row of integer entries per line.
"""

from __future__ import annotations

import re

from .construct import PlaceholderDesign
from .core import STAR, Design, PartStructure, check_strength_lambda
from .errors import DesignSemanticError, DesignSyntaxError, GencovError, StrengthTooLarge

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
    comments and blanks removed."""
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


def parse_design(text: str) -> Design | PlaceholderDesign:
    """Parse document text; placeholder entries yield a PlaceholderDesign."""
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

    lines = rows[pos:]
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


def emit_design(d: Design | PlaceholderDesign) -> str:
    """Canonical document text; parse_design(emit_design(d)) == d."""
    s = d.structure
    lines = [_HEADER, f"t: {d.t}", f"lambda: {d.lam}",
             "v: " + " ".join(map(str, s.v)),
             "k: " + " ".join(map(str, s.k)),
             "blocks:"]
    for b in d.blocks:
        lines.append(" | ".join(" ".join(map(str, part)) for part in b))
    return "\n".join(lines) + "\n"
