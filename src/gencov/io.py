"""Line-oriented design file format.

    gcd 1
    t: 2
    lambda: 1
    v: 4 2 2
    k: 2 1 1
    blocks:
    1 2 | 1 | 1

`#` starts a comment anywhere on a line; blank lines are ignored; CRLF
input is accepted.  Labels start at 1; a literal `*` in a block denotes a
retained placeholder.  Emission is canonical: labels ascending,
placeholders last, parts joined by ` | `, headers in the order shown.
"""

from __future__ import annotations

from .construct import STAR, PlaceholderBlock, PlaceholderDesign, _canon_placeholder_parts
from .core import Design, PartStructure, make_block
from .errors import (DesignSemanticError, DesignSyntaxError, GencovError, LabelOutOfRange,
                     StrengthTooLarge)

_HEADER = "gcd 1"
_KEYS = ("t", "lambda", "v", "k")


def _parse_int(token: str, lineno: int, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        col = line.find(token) + 1
        raise DesignSyntaxError(f"expected integer, got {token!r}",
                                line=lineno, column=col) from None


def parse_design(text: str) -> Design | PlaceholderDesign:
    """Parse document text; placeholder entries yield a PlaceholderDesign."""
    # (lineno, significant content) with comments and blanks removed
    rows = []
    for n, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((n, body))
    if not rows:
        raise DesignSyntaxError("empty document", line=1)
    lineno, head = rows[0]
    if head != _HEADER:
        raise DesignSyntaxError(f"expected {_HEADER!r}, got {head!r}", line=lineno)

    fields: dict[str, tuple[int, str]] = {}
    pos = 1
    while pos < len(rows):
        lineno, body = rows[pos]
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
        fields[key] = (lineno, rest.strip())
        pos += 1
    else:
        raise DesignSyntaxError("missing 'blocks:' line", line=rows[-1][0])
    for key in _KEYS:
        if key not in fields:
            raise DesignSyntaxError(f"missing header {key!r}", line=lineno)

    t = _parse_int(fields["t"][1], fields["t"][0], fields["t"][1])
    lam = _parse_int(fields["lambda"][1], fields["lambda"][0], fields["lambda"][1])
    v = tuple(_parse_int(x, fields["v"][0], fields["v"][1])
              for x in fields["v"][1].split())
    k = tuple(_parse_int(x, fields["k"][0], fields["k"][1])
              for x in fields["k"][1].split())
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
    # Design's checks of t and lambda, made before any block line so that
    # the error carries the header's line; a PlaceholderDesign needs them too.
    try:
        Design(s, t, (), lam)
    except GencovError as e:
        key = "t" if isinstance(e, StrengthTooLarge) else "lambda"
        raise DesignSemanticError(str(e), line=fields[key][0]) from e

    blocks = []
    has_stars = False
    for lineno, body in rows[pos:]:
        parts = tuple(tuple(STAR if token == "*" else _parse_int(token, lineno, body)
                            for token in chunk.split())
                      for chunk in body.split("|"))
        try:
            if "*" not in body:
                blocks.append(make_block(s, parts))
            # STAR is 0, so a literal 0 would otherwise pass for a placeholder.
            elif sum(part.count(STAR) for part in parts) != body.count("*"):
                raise LabelOutOfRange("label 0 in a block; labels start at 1")
            else:
                blocks.append(_canon_placeholder_parts(s, parts))
                has_stars = True
        except GencovError as e:
            raise DesignSemanticError(str(e), line=lineno) from e
    if has_stars:
        return PlaceholderDesign(s, t, tuple(PlaceholderBlock(b) for b in blocks), lam)
    return Design(s, t, tuple(blocks), lam)


def emit_design(d: Design | PlaceholderDesign) -> str:
    """Canonical document text; parse_design(emit_design(d)) == d."""
    s = d.structure
    lines = [_HEADER, f"t: {d.t}", f"lambda: {d.lam}",
             "v: " + " ".join(map(str, s.v)),
             "k: " + " ".join(map(str, s.k)),
             "blocks:"]
    placeholders = isinstance(d, PlaceholderDesign)
    for b in d.blocks:
        lines.append(" | ".join(
            " ".join("*" if x == STAR else str(x) for x in part)
            for part in (b.parts if placeholders else b)
        ))
    return "\n".join(lines) + "\n"
