"""Design file format: parsing, emission, diagnostics."""

import pytest

from fixture_designs import fano, minimax_567, mixed_422, strength2_fixtures
from gencov import (
    DesignSemanticError,
    DesignSyntaxError,
    PartStructure,
    PlaceholderDesign,
    construct_minimax,
    emit_design,
    parse_design,
)

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
