"""Design file format: parsing, emission, diagnostics."""

import random

import pytest

from fixture_designs import fano, minimax_567, mixed_422, strength2_fixtures
from gencov import (
    Design,
    DesignSemanticError,
    DesignSyntaxError,
    PartStructure,
    PlaceholderDesign,
    construct_minimax,
    emit_design,
    parse_design,
)
from gencov.io import parse_label_arrays
from gencov.verify import _part_labels
from cli_routes import verify_routes
from util_random import random_structure

MIXED_TEXT = (
    "gcd 1\n"
    "t: 2\n"
    "lambda: 1\n"
    "v: 4 2 2\n"
    "k: 2 1 1\n"
    "blocks:\n"
    "1 2 | 1 | 1\n"
    "1 3 | 1 | 2\n"
    "1 4 | 2 | 1\n"
    "2 3 | 2 | 2\n"
    "2 4 | 1 | 2\n"
    "3 4 | 2 | 1\n"
)


def test_parse_reference_text():
    d = parse_design(MIXED_TEXT)
    assert d.structure == PartStructure((4, 2, 2), (2, 1, 1))
    assert d.t == 2 and d.lam == 1
    assert d.blocks == mixed_422().blocks


def test_emit_matches_reference_text():
    assert emit_design(mixed_422()) == MIXED_TEXT


def test_round_trip_all_fixtures():
    for name, d in strength2_fixtures():
        text = emit_design(d)
        back = parse_design(text)
        assert back.structure == d.structure, name
        assert back.blocks == d.blocks, name
        assert emit_design(back) == text, name  # emission is stable


def test_header_keys_any_order():
    shuffled = (
        "gcd 1\n"
        "k: 2 1 1\n"
        "v: 4 2 2\n"
        "lambda: 1\n"
        "t: 2\n"
        "blocks:\n" + MIXED_TEXT.split("blocks:\n")[1]
    )
    assert parse_design(shuffled).blocks == mixed_422().blocks


def test_comments_blanks_and_crlf():
    text = MIXED_TEXT.replace("\n", "\r\n")
    text = text.replace("t: 2\r\n", "# strength\r\nt: 2  # inline\r\n\r\n")
    d = parse_design(text)
    assert d.t == 2 and len(d.blocks) == 6


def test_unsorted_input_is_canonicalized():
    text = MIXED_TEXT.replace("1 2 | 1 | 1", "2 1 | 1 | 1")
    assert parse_design(text).blocks == mixed_422().blocks


def test_zero_block_design():
    d = parse_design("gcd 1\nt: 0\nlambda: 1\nv: 3\nk: 2\nblocks:\n")
    assert d.t == 0 and d.blocks == ()


def test_placeholder_round_trip():
    pd = construct_minimax(PartStructure((5, 6, 7), (3, 4, 3)), fano(),
                           keep_placeholders=True)
    text = emit_design(pd)
    assert "*" in text
    back = parse_design(text)
    assert isinstance(back, PlaceholderDesign)
    assert back.blocks == pd.blocks
    assert back.fill().blocks == minimax_567().blocks


def test_syntax_errors_carry_position():
    with pytest.raises(DesignSyntaxError) as e:
        parse_design("gcd 2\nt: 2\n")
    assert e.value.line == 1
    with pytest.raises(DesignSyntaxError) as e:
        parse_design(MIXED_TEXT.replace("lambda: 1\n", ""))
    assert "lambda" in str(e.value)
    with pytest.raises(DesignSyntaxError) as e:
        parse_design(MIXED_TEXT.replace("lambda: 1", "lambda: x"))
    assert e.value.line == 3 and e.value.column is not None
    with pytest.raises(DesignSyntaxError):
        parse_design(MIXED_TEXT.replace("lambda: 1\n", "lambda: 1\nlambda: 1\n"))
    with pytest.raises(DesignSyntaxError):
        parse_design(MIXED_TEXT.replace("blocks:\n", ""))


def test_semantic_errors_carry_line():
    # wrong part count on a block line
    with pytest.raises(DesignSemanticError) as e:
        parse_design(MIXED_TEXT.replace("1 2 | 1 | 1", "1 2 | 1"))
    assert e.value.line == 7
    # label above the part size
    with pytest.raises(DesignSemanticError):
        parse_design(MIXED_TEXT.replace("1 2 | 1 | 1", "1 5 | 1 | 1"))
    # wrong subset size
    with pytest.raises(DesignSemanticError):
        parse_design(MIXED_TEXT.replace("1 2 | 1 | 1", "1 2 3 | 1 | 1"))
    # strength above the profile sum, at the t: line
    with pytest.raises(DesignSemanticError) as e:
        parse_design(MIXED_TEXT.replace("t: 2", "t: 5"))
    assert e.value.line == 2
    # also when a placeholder makes the result a PlaceholderDesign
    with pytest.raises(DesignSemanticError) as e:
        parse_design(MIXED_TEXT.replace("t: 2", "t: 5").replace("1 2 | 1 | 1", "1 * | 1 | 1"))
    assert e.value.line == 2
    # lambda below 1, at the lambda: line
    with pytest.raises(DesignSemanticError) as e:
        parse_design(MIXED_TEXT.replace("lambda: 1", "lambda: 0"))
    assert e.value.line == 3
    # a profile entry above its part size, at the k: line
    with pytest.raises(DesignSemanticError) as e:
        parse_design(MIXED_TEXT.replace("v: 4 2 2", "v: 1").replace("k: 2 1 1", "k: 5"))
    assert e.value.line == 5
    # a part size below 1, at the v: line
    with pytest.raises(DesignSemanticError) as e:
        parse_design(MIXED_TEXT.replace("v: 4 2 2", "v: 0 2 2"))
    assert e.value.line == 4


HEADER_ERRORS = {
    "missing blocks line": ("gcd 1\nt: 2\nlambda: 1\nv: 4\nk: 2\n",
                            DesignSyntaxError, 5, "missing 'blocks:'"),
    "empty part list": ("gcd 1\nt: 2\nlambda: 1\nv:\nk: 2\nblocks:\n",
                        DesignSyntaxError, 4, "empty part list"),
    "lengths differ": ("gcd 1\nt: 2\nlambda: 1\nv: 3 4\nk: 2\nblocks:\n",
                       DesignSemanticError, 5, "2 part sizes but 1 profile entries"),
}


@pytest.mark.parametrize("text, error, line, message", HEADER_ERRORS.values(),
                         ids=HEADER_ERRORS)
def test_header_errors_carry_line(text, error, line, message):
    with pytest.raises(error, match=message) as e:
        parse_design(text)
    assert e.value.line == line


# One block line of MIXED_TEXT mutated, without and with a placeholder.
BAD_BLOCK_LINES = {
    "part-count": ("1 3 | 1 | 2", "1 3 | 1"),
    "label-0": ("1 4 | 2 | 1", "0 4 | 2 | 1"),
    "label-above-part": ("2 3 | 2 | 2", "2 5 | 2 | 2"),
    "repeated-label": ("2 4 | 1 | 2", "2 2 | 1 | 2"),
    "entry-count": ("3 4 | 2 | 1", "3 4 | 2 1 | 1"),
    "star-part-count": ("1 3 | 1 | 2", "1 * | 1"),
    "star-label-0": ("1 4 | 2 | 1", "0 * | 2 | 1"),
    "star-label-above-part": ("2 3 | 2 | 2", "* 2 | 3 | 2"),
    "star-repeated-label": ("2 4 | 1 | 2", "2 2 | * | 2"),
    "star-entry-count": ("3 4 | 2 | 1", "3 * | 2 * | 1"),
}


@pytest.mark.parametrize("original,mutated", BAD_BLOCK_LINES.values(),
                         ids=BAD_BLOCK_LINES.keys())
def test_bad_block_line_is_semantic_error(original, mutated):
    lineno = MIXED_TEXT.splitlines().index(original) + 1
    with pytest.raises(DesignSemanticError) as e:
        parse_design(MIXED_TEXT.replace(original, mutated))
    assert e.value.line == lineno


def _mutated(*pairs):
    text = MIXED_TEXT
    for original, mutated in pairs:
        text = text.replace(original, mutated)
    return text


def _line_of(original):
    return MIXED_TEXT.splitlines().index(original) + 1


def test_first_bad_block_line_is_reported():
    plain, plain_bad = BAD_BLOCK_LINES["label-above-part"]
    other, other_bad = BAD_BLOCK_LINES["part-count"]
    star, star_bad = BAD_BLOCK_LINES["star-repeated-label"]
    assert _line_of(other) < _line_of(plain) < _line_of(star)
    # no placeholder anywhere: the lines are checked together, and the
    # first bad one is still the one reported
    with pytest.raises(DesignSemanticError) as e:
        parse_design(_mutated((plain, plain_bad), (other, other_bad)))
    assert e.value.line == _line_of(other)
    # a bad plain line above a bad placeholder line, and the reverse
    with pytest.raises(DesignSemanticError) as e:
        parse_design(_mutated((plain, plain_bad), (star, star_bad)))
    assert e.value.line == _line_of(plain)
    with pytest.raises(DesignSemanticError) as e:
        parse_design(_mutated((other, "1 * | 1"), (plain, plain_bad)))
    assert e.value.line == _line_of(other)
    # a bad line above a non-integer token is reported first
    with pytest.raises(DesignSemanticError) as e:
        parse_design(_mutated((other, other_bad), (plain, "2 x | 2 | 2")))
    assert e.value.line == _line_of(other)


def test_non_integer_block_token_carries_column():
    plain = "2 3 | 2 | 2"
    with pytest.raises(DesignSyntaxError) as e:
        parse_design(MIXED_TEXT.replace(plain, "2 3 | 2 | 2x"))
    assert (e.value.line, e.value.column) == (_line_of(plain), 11)


def test_error_column_counts_within_the_line():
    """The column of a non-integer token is its place in the whole line,
    not in the header value or the stripped block line."""
    with pytest.raises(DesignSyntaxError) as e:
        parse_design(MIXED_TEXT.replace("lambda: 1", "lambda: x"))
    assert (e.value.line, e.value.column) == (3, 9)
    plain = "2 3 | 2 | 2"
    with pytest.raises(DesignSyntaxError) as e:
        parse_design(MIXED_TEXT.replace(plain, "   1 y"))
    assert (e.value.line, e.value.column) == (_line_of(plain), 6)


def _outcome(parse, text):
    """parse(text) as something comparable: the design and its repr, or
    the error's type, message, line and column."""
    try:
        d = parse(text)
    except Exception as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "column", None)
    return type(d), d, repr(d)


def _digits(token, zero):
    return "".join(chr(ord(zero) + int(c)) if c.isdigit() else c for c in token)


# Mutations after which a valid document's block section is still plain
# decimal labels, which the verify load must read as arrays.
PLAIN = {"shuffle", "leading-zero", "tab", "comment", "comment-line"}


def _token_mutation(rng, doc):
    """Change one token of a random block part, or move one to another
    line's same part; doc's v list may grow a huge part size.  Returns
    the mutation's name."""
    blocks = doc["blocks"]
    b, i = rng.choice([(b, i) for b, block in enumerate(blocks)
                       for i, part in enumerate(block) if part])
    part = blocks[b][i]
    j = rng.randrange(len(part))
    op = rng.choice(["shuffle", "duplicate", "zero", "negative", "above", "balance", "plus",
                     "leading-zero", "underscore", "arabic", "huge", "star", "sign-token",
                     "split-sign", "nul"])
    if op == "shuffle":
        rng.shuffle(part)
    elif op == "duplicate":
        part.append(part[0]) if len(part) == 1 else part.__setitem__(1, part[0])
    elif op == "zero":
        part[j] = "0"
    elif op == "negative":
        part[j] = "-" + part[j]
    elif op == "above":
        part[j] = str(doc["v"][i] + 1)
    elif op == "balance":
        # one line of the part loses a label and another gains one, so
        # the part's total stays right
        other = blocks[rng.randrange(len(blocks))][i]
        other.append(part.pop(j))
    elif op == "plus":
        part[j] = "+" + part[j]
    elif op == "leading-zero":
        part[j] = "0" + part[j]
    elif op == "underscore":
        part[j] = f"{part[j][0]}_{part[j][1:]}" if len(part[j]) > 1 else "0_" + part[j]
    elif op == "arabic":
        part[j] = _digits(part[j], "٠")
    elif op == "huge":
        part[j] = "99999999999999999999"
        doc["v"][i] = rng.choice([doc["v"][i], 10 ** 20, 2 ** 62, 2 ** 62 - 1, 2 ** 63])
    elif op == "star":
        part[j] = "*"
    elif op == "sign-token":
        part.insert(rng.randint(0, len(part)), rng.choice("+-"))
    elif op == "split-sign":
        part[j] = rng.choice("+-") + " " + part[j]
    else:
        part[j] = part[j] + "\0"
    return op


def _line_mutation(rng, lines, first):
    """Change the bars, spaces or comments of one line at or after
    first.  Returns the mutation's name."""
    n = rng.randrange(first, len(lines))
    line = lines[n]
    op = rng.choice(["missing-bar", "extra-bar", "rewrap", "nbsp", "tab", "comment",
                     "comment-line"])
    if op == "missing-bar" and "|" in line:
        lines[n] = line.replace("|", " ", 1)
    elif op == "rewrap" and n + 1 < len(lines):
        # the parts of two lines cut at another bar: the section holds the
        # same parts in the same order, and one line has too many
        parts = (line + " | " + lines[n + 1]).split("|")
        cut = rng.randrange(1, len(parts))
        lines[n:n + 2] = ["|".join(parts[:cut]), "|".join(parts[cut:])]
    elif op == "extra-bar":
        cut = rng.choice([m for m, c in enumerate(line + " ") if c == " "])
        lines[n] = line[:cut] + " |" + line[cut:]
    elif op == "nbsp" and " " in line:
        lines[n] = line.replace(" ", "\xa0", 1)
    elif op == "tab":
        lines[n] = "\t" + line.replace(" ", rng.choice(["\t", " \t "]))
    elif op == "comment":
        lines[n] = line + rng.choice(["  # 1 2 | 3", "#", "# *"])
    else:
        lines.insert(n, "   # a comment line")
    return op


def _random_document(rng):
    s = random_structure(rng, v_sum_max=12, m_max=3)
    doc = {"v": list(s.v), "blocks": [
        [[str(x) for x in sorted(rng.sample(range(1, vi + 1), ki))]
         for vi, ki in zip(s.v, s.k)]
        for _ in range(rng.randint(0, 6))]}
    t = rng.choice([0, rng.randint(0, s.k_sum)])
    applied = set()
    if doc["blocks"] and rng.random() < 0.7:
        for _ in range(rng.randint(1, 2)):
            applied.add(_token_mutation(rng, doc))
    lines = ["gcd 1", f"t: {t}", f"lambda: {rng.choice((1, 2))}",
             "v: " + " ".join(map(str, doc["v"])), "k: " + " ".join(map(str, s.k)), "blocks:"]
    lines += [" | ".join(" ".join(part) for part in b) for b in doc["blocks"]]
    if len(lines) > 6 and rng.random() < 0.4:
        applied.add(_line_mutation(rng, lines, 6))
    return ("\r\n" if rng.random() < 0.2 else "\n").join(lines) + "\n", applied <= PLAIN


def test_verify_load_matches_parse_design(tmp_path, monkeypatch):
    """The verify load, which reads a block section as label arrays where
    it can, declines a document or returns the labels of parse_design's
    blocks, and raises parse_design's header errors; and `gencov verify`
    prints what verify(parse_design(text)) gives, with the same exit code,
    on valid and damaged documents."""
    rng = random.Random(31)
    path = tmp_path / "d.gcd"
    read_as_arrays = 0
    for _ in range(1500):
        text, plain = _random_document(rng)
        want = _outcome(parse_design, text)
        try:
            arrays = parse_label_arrays(text)
        except Exception:
            assert _outcome(parse_label_arrays, text) == want, text
            arrays = None
        if arrays is not None:
            s, t, lam, labels = arrays
            d = want[1]
            assert want[0] is Design and (s, t, lam) == (d.structure, d.t, d.lam), text
            read = [lab.tolist() for lab in labels]
            assert read == [[list(b[i]) for b in d.blocks] for i in range(s.m)], text
            assert read == [lab.tolist() for lab in _part_labels(s, d.blocks)], text
        if want[0] is Design and want[1].blocks:
            assert (arrays is not None) >= plain, text
            read_as_arrays += arrays is not None
        path.write_text(text, encoding="utf-8", newline="")
        loaded, fallback = verify_routes(path, monkeypatch)
        assert loaded == fallback, text
    assert read_as_arrays > 300
