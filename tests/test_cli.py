"""Command-line surface: subcommands, exit codes, file round-trips."""

import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from fixture_designs import (
    HADAMARD_9_16_RAW,
    fano,
    hadamard_base,
    minimax_567,
    mixed_422,
    prod_b,
    prod_c,
)
import gencov
from gencov import (Design, PartStructure, construct_minimax, emit_design, parse_design,
                    product_concat, upper_minimax, verify)
from gencov.cli import main


@pytest.fixture
def mixed_file(tmp_path):
    p = tmp_path / "mixed.gcd"
    p.write_text(emit_design(mixed_422()))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_valid(mixed_file, capsys):
    code, out, _ = run(capsys, "verify", mixed_file)
    assert code == 0
    assert "valid: yes" in out


def test_jobs_variable_is_ignored(mixed_file, capsys, monkeypatch):
    monkeypatch.delenv("GENCOV_JOBS", raising=False)
    want = verify(mixed_422()), run(capsys, "verify", mixed_file)
    monkeypatch.setenv("GENCOV_JOBS", "x")
    assert (verify(mixed_422()), run(capsys, "verify", mixed_file)) == want
    assert want[1][0] == 0


def test_verify_invalid(tmp_path, capsys):
    d = mixed_422()
    bad = Design(d.structure, d.t, d.blocks[:-1])
    p = tmp_path / "bad.gcd"
    p.write_text(emit_design(bad))
    code, out, _ = run(capsys, "verify", str(p))
    assert code == 1
    assert "valid: no" in out
    assert "first uncovered: 3 4 |  |" in out


def test_verify_universe_too_large(tmp_path, capsys):
    p = tmp_path / "huge.gcd"
    p.write_text("gcd 1\nt: 5\nlambda: 1\nv: 10000\nk: 5\nblocks:\n1 2 3 4 5\n")
    code, out, err = run(capsys, "verify", str(p))
    assert code == 2
    assert err.startswith("error:") and "above cap" in err
    assert "Traceback" not in err
    assert out == ""


def test_verify_labels_beyond_int64(tmp_path, capsys):
    """Labels too large for int64 are refused by the tuple cap, with one
    error line, as is a part of 10^20 points that every pattern takes
    whole; and at t = 0 the design is valid."""
    p = tmp_path / "huge.gcd"
    text = "gcd 1\nt: 1\nlambda: 1\nv: 100000000000000000000\nk: 1\nblocks:\n99999999999999999999\n"
    whole = ("gcd 1\nt: 100000000000000000000\nlambda: 1\nv: 100000000000000000000\n"
             "k: 100000000000000000000\nblocks:\n")
    for doc in (text, whole):
        p.write_text(doc)
        code, out, err = run(capsys, "verify", str(p))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "above cap" in err and err.count("\n") == 1
    p.write_text(text.replace("t: 1", "t: 0"))
    assert run(capsys, "verify", str(p))[:2] == (0, "valid: yes\nchecked patterns: 0\nchecked tuples: 0\n")


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "does-not-exist.gcd")
    assert code == 2
    assert "error:" in err


def test_bounds_report(capsys):
    code, out, _ = run(capsys, "bounds", "--v", "4,2,2", "--k", "2,1,1", "--t", "2")
    assert code == 0
    assert "lower.restriction_single=6" in out
    assert "best_lower=6" in out
    assert "upper.greedy=7" in out
    assert "infeasible=false" in out


def test_bounds_generalized_schonheim(capsys):
    code, out, _ = run(capsys, "bounds", "--v", "9", "--k", "4", "--t", "3")
    assert code == 0
    assert "lower.schonheim=25" in out.splitlines()
    assert "best_lower=25" in out.splitlines()


def test_bounds_infeasible(capsys):
    code, out, _ = run(capsys, "bounds", "--v", "3", "--k", "2", "--t", "4")
    assert code == 0
    assert "infeasible=true" in out


def test_bounds_negative_strength(capsys):
    code, out, err = run(capsys, "bounds", "--v", "4,2,2", "--k", "2,1,1", "--t", "-1")
    assert (code, out) == (2, "")
    assert err == "error: strength must be non-negative, got -1\n"


def test_bounds_many_equal_parts(capsys):
    """200 parts of (5)/(2) at t = 200 are bounded; on 400, the nested
    ceiling, past the interpreter's depth, exits 2 with one error line."""
    fives, twos = ",".join(["5"] * 200), ",".join(["2"] * 200)
    code, out, err = run(capsys, "bounds", "--v", fives, "--k", twos, "--t", "200")
    assert (code, err) == (0, "")
    assert f"best_lower={10 ** 100}" in out.splitlines()
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", "--v", f"{fives},{fives}", "--k", f"{twos},{twos}",
                         "--t", "400")
    assert (code, out) == (2, "")
    assert err.startswith("error: the nested-ceiling recursion on 400 parts")
    assert err.count("\n") == 1
    assert time.perf_counter() - start < 20.0


def test_bounds_single_part_past_the_recursion_depth(capsys):
    """One part is the nested ceiling in a loop, whatever t; two parts
    that recurse deeper than the interpreter allows exit 2 with one
    error line."""
    code, out, err = run(capsys, "bounds", "--v", "2000", "--k", "2000", "--t", "1500")
    assert (code, err) == (0, "")
    assert "best_lower=1" in out.splitlines()
    code, out, err = run(capsys, "bounds", "--v", "3000", "--k", "1500", "--t", "1200")
    assert code == 0 and "best_upper=" in out.splitlines()
    code, out, err = run(capsys, "bounds", "--v", "3000,3000", "--k", "1500,1500", "--t", "1200")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_construct_default_base(capsys):
    # the internally searched base need not match any published labeling,
    # but the lift must be a valid 7-block design
    from gencov import verify
    code, out, _ = run(capsys, "construct", "--v", "5,6,7", "--k", "3,4,3")
    assert code == 0
    d = parse_design(out)
    assert len(d.blocks) == 7
    assert verify(d).valid


def test_construct_with_base_file(tmp_path, capsys):
    from fixture_designs import fano
    base = tmp_path / "fano.gcd"
    base.write_text(emit_design(fano()))
    code, out, _ = run(capsys, "construct", "--v", "5,6,7", "--k", "3,4,3",
                       "--base", str(base))
    assert code == 0
    assert out == emit_design(minimax_567())


def test_construct_keep_placeholders(capsys):
    code, out, _ = run(capsys, "construct", "--v", "5,6,7", "--k", "3,4,3",
                       "--keep-placeholders")
    assert code == 0
    assert "*" in out
    assert isinstance(parse_design(out).fill(), Design)


def test_verify_refuses_placeholders(tmp_path, capsys):
    f = tmp_path / "stars.gcd"
    f.write_text(emit_design(construct_minimax(PartStructure((5, 6, 7), (3, 4, 3)), fano(),
                                               keep_placeholders=True)))
    code, out, err = run(capsys, "verify", str(f))
    assert code == 2
    assert out == ""
    assert "placeholder" in err


def test_construct_unit_profile_needs_base(capsys):
    code, _, err = run(capsys, "construct", "--v", "4,2", "--k", "2,1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("v, k", [((5, 6, 7), (3, 4, 3)), ((9, 5), (7, 2))])
def test_construct_without_base_is_the_minimax_bound(v, k, capsys):
    # one lift: the library call, the bound's certificate and the command
    s = PartStructure(v, k)
    d = construct_minimax(s)
    assert upper_minimax(s)[1] == d
    code, out, _ = run(capsys, "construct", "--v", ",".join(map(str, v)),
                       "--k", ",".join(map(str, k)))
    assert code == 0
    assert out == emit_design(d)


def test_construct_unit_profile_same_error_with_base(tmp_path, capsys):
    base = tmp_path / "fano.gcd"
    base.write_text(emit_design(fano()))
    argv = ["construct", "--v", "4,2", "--k", "2,1"]
    without = run(capsys, *argv)
    assert without == (2, "", "error: lift needs every k_i >= 2, got (2, 1)\n")
    assert run(capsys, *argv, "--base", str(base)) == without


def test_search_proven(tmp_path, capsys):
    out_file = tmp_path / "cert.gcd"
    code, _, err = run(capsys, "search", "--v", "4,2,2", "--k", "2,1,1",
                       "--t", "2", "-o", str(out_file))
    assert code == 0
    assert "optimum=6" in err
    assert "status=proven" in err
    cert = parse_design(out_file.read_text())
    assert len(cert.blocks) == 6


def test_search_budget_exhausted(capsys):
    code, out, err = run(capsys, "search", "--v", "11", "--k", "3",
                         "--t", "2", "--max-nodes", "5")
    assert code == 3
    assert "status=budget-exhausted" in err
    assert parse_design(out).structure.v == (11,)


def test_search_nan_timeout_is_refused(capsys):
    code, out, err = run(capsys, "search", "--v", "5", "--k", "2", "--t", "2", "--timeout", "nan")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "search"])
def test_jobs_flag_has_no_effect(command, mixed_file, capsys):
    argv = {"verify": ["verify", mixed_file],
            "search": ["search", "--v", "5,5", "--k", "2,2", "--t", "2"]}[command]
    assert run(capsys, *argv, "--jobs", "2") == run(capsys, *argv, "--jobs", "1")


def test_search_timeout_covers_the_whole_call(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "search", "--v", "5,5", "--k", "2,2", "--t", "3",
                         "--timeout", "1", "--jobs", "2")
    assert time.monotonic() - start < 3.0
    assert code == 3
    assert "status=budget-exhausted" in err
    assert verify(parse_design(out)).valid


@pytest.mark.parametrize("argv", [
    # the tables of (10,10)/(5,5) t=3 build in about 0.05 s
    ["search", "--v", "10,10", "--k", "5,5", "--t", "3", "--timeout", "0.005"],
    # base search on (18)/(9) t=2, whose tables build in about 0.05 s
    ["construct", "--v", "18,18", "--k", "9,9", "--timeout", "0.01"],
])
def test_timeout_during_table_build_exits_three(argv, capsys):
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 0.5
    assert code == 3
    assert out == ""
    assert "error:" in err


def test_product_improved_and_prune(tmp_path, capsys):
    b = tmp_path / "b.gcd"
    c = tmp_path / "c.gcd"
    b.write_text(emit_design(prod_b()))
    c.write_text(emit_design(prod_c()))
    code, out, _ = run(capsys, "product", "concat-improved", str(b), str(c))
    assert code == 0
    assert len(parse_design(out).blocks) == 16
    prod = tmp_path / "prod.gcd"
    prod.write_text(out)
    code, out, _ = run(capsys, "transform", "prune", str(prod))
    assert code == 0
    assert len(parse_design(out).blocks) == 15


def test_product_concat(tmp_path, capsys):
    b = tmp_path / "b.gcd"
    c = tmp_path / "c.gcd"
    b.write_text(emit_design(prod_b()))
    c.write_text(emit_design(prod_c()))
    code, out, _ = run(capsys, "product", "concat", str(b), str(c))
    assert code == 0
    assert out == emit_design(product_concat(prod_b(), prod_c()))


def test_product_hadamard(tmp_path, capsys):
    f = tmp_path / "h.gcd"
    f.write_text(emit_design(hadamard_base()))
    code, out, _ = run(capsys, "product", "hadamard", str(f), str(f))
    assert code == 0
    d = parse_design(out)
    assert tuple(tuple(tuple(p) for p in blk) for blk in d.blocks) == HADAMARD_9_16_RAW


def test_transform_restrict(mixed_file, capsys):
    code, out, _ = run(capsys, "transform", "restrict", mixed_file,
                       "--parts", "1")
    assert code == 0
    assert parse_design(out).structure.v == (4,)


def test_transform_amalgamate_requires_profiles(mixed_file, capsys):
    code, _, err = run(capsys, "transform", "amalgamate", mixed_file,
                       "--parts", "2,3")
    assert code == 2
    assert "error:" in err


def test_transform_amalgamate_needs_two_parts(mixed_file, capsys):
    code, out, err = run(capsys, "transform", "amalgamate", mixed_file, "--parts", "1")
    assert code == 2
    assert out == ""
    assert "two part indices" in err


def test_transform_delete_and_expand(tmp_path, capsys):
    from fixture_designs import fano
    f = tmp_path / "fano.gcd"
    f.write_text(emit_design(fano()))
    code, out, _ = run(capsys, "transform", "delete-points", str(f),
                       "--target", "6")
    assert code == 0
    assert parse_design(out).structure.v == (6,)
    code, out, _ = run(capsys, "transform", "expand-blocks", str(f),
                       "--target", "4")
    assert code == 0
    assert parse_design(out).structure.k == (4,)
    code, out, _ = run(capsys, "transform", "expand-equivalent", str(f),
                       "--part", "1")
    assert code == 0
    assert parse_design(out).structure.v == (7, 7)


def test_transform_refuses_strength_it_breaks(tmp_path, capsys):
    # every block of (4,3)/(2,1) at t=3: a copy of part 1 would leave
    # tuples meeting the twin parts in three labels uncovered
    blocks = tuple((a, (b,)) for a in combinations(range(1, 5), 2) for b in range(1, 4))
    f = tmp_path / "t3.gcd"
    f.write_text(emit_design(Design(PartStructure((4, 3), (2, 1)), 3, blocks)))
    code, out, err = run(capsys, "transform", "expand-equivalent", str(f), "--part", "1")
    assert code == 2
    assert out == ""
    assert "strength 3" in err


def test_transform_drop_full(tmp_path, capsys):
    from fixture_designs import build
    pairs = tuple(((a, b), (1, 2, 3)) for a in range(1, 5) for b in range(a + 1, 5))
    d = build((4, 3), (2, 3), 2, pairs)
    f = tmp_path / "full.gcd"
    f.write_text(emit_design(d))
    code, out, _ = run(capsys, "transform", "drop-full", str(f))
    assert code == 0
    assert parse_design(out).structure.v == (4,)


def test_convert_round_trip(tmp_path, capsys):
    rows = tmp_path / "rows.txt"
    rows.write_text("0 0 0\n1 1 0\n1 0 1\n0 1 1\n")
    code, out, _ = run(capsys, "convert", "ca2gc", str(rows), "--t", "2")
    assert code == 0
    gc = tmp_path / "ca.gcd"
    gc.write_text(out)
    code, out, _ = run(capsys, "convert", "gc2ca", str(gc))
    assert code == 0
    assert out.splitlines() == ["1 1 1", "2 2 1", "2 1 2", "1 2 2"]


def test_convert_non_integer_entry_exits_two(tmp_path, capsys):
    rows = tmp_path / "rows.txt"
    rows.write_text("# header\n0 0 0\n1 x 0\n")
    code, out, err = run(capsys, "convert", "ca2gc", str(rows))
    assert code == 2
    assert out == ""
    assert "(line 3, column 3)" in err


@pytest.mark.parametrize("argv", [("verify",), ("convert", "ca2gc"), ("convert", "gc2ca")])
def test_non_utf8_file_exits_two(argv, tmp_path, capsys):
    f = tmp_path / "latin1.txt"
    f.write_bytes("gcd 1\n# caf\u00e9\n".encode("latin-1"))
    code, out, err = run(capsys, *argv, str(f))
    assert code == 2
    assert out == ""
    assert "error:" in err and "utf-8" in err


def test_convert_gc2ca_rejects_wide_profile(mixed_file, capsys):
    code, _, err = run(capsys, "convert", "gc2ca", mixed_file)
    assert code == 2
    assert "error:" in err


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "dot", "--v", "2,2", "--k", "1,1")
    assert code == 0
    assert out.startswith("graph G {")
    assert "v1 -- v3;" in out


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as e:
        main(["bounds", "--v", "4,2,2"])  # missing --k and --t
    assert e.value.code == 2


def test_bad_vector_is_usage_error(capsys):
    """A non-integer or empty entry, trailing ones too, is refused."""
    for vec in ("4,x", "4,,2", "4,2,"):
        with pytest.raises(SystemExit) as e:
            main(["bounds", "--v", vec, "--k", "2,1", "--t", "2"])
        assert e.value.code == 2
        assert "comma-separated integers" in capsys.readouterr().err, vec


def run_python(*args):
    """A fresh interpreter that imports gencov from the same source tree."""
    src = str(Path(gencov.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_console_script_entry_point(mixed_file):
    proc = run_python("-m", "gencov.cli", "verify", mixed_file)
    assert proc.returncode == 0
    assert "valid: yes" in proc.stdout


def test_module_entry_point_runs_bounds():
    proc = run_python("-m", "gencov.cli", "bounds", "--v", "4,2,2", "--k", "2,1,1", "--t", "2")
    assert proc.returncode == 0, proc.stderr
    assert "best_lower=6" in proc.stdout.splitlines()


def loaded_by_import(module):
    """Whether `import gencov, gencov.cli` loads module in a fresh interpreter."""
    code = f"import sys, gencov, gencov.cli; print({module!r} in sys.modules)"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_import_does_not_load_multiprocessing():
    assert not loaded_by_import("multiprocessing")


def test_import_does_not_load_numpy():
    """numpy is imported by the first count, not by the package."""
    assert not loaded_by_import("numpy")
    assert not loaded_by_import("concurrent.futures")


FILE_COMMANDS = {
    "product": ("product", "concat", "b.gcd", "c.gcd"),
    "convert-gc2ca": ("convert", "gc2ca", "unit.gcd"),
    "convert-ca2gc": ("convert", "ca2gc", "rows.txt"),
    "transform-restrict": ("transform", "restrict", "b.gcd", "--parts", "1"),
    "transform-expand-equivalent": ("transform", "expand-equivalent", "c.gcd", "--part", "1"),
    "construct-base": ("construct", "--v", "5,6,7", "--k", "3,4,3", "--base", "fano.gcd"),
    "search": ("search", "--v", "4,2,2", "--k", "2,1,1", "--t", "2"),
}


@pytest.mark.parametrize("argv", FILE_COMMANDS.values(), ids=FILE_COMMANDS)
def test_file_commands_do_not_load_numpy(argv, tmp_path):
    """Only counting coverage loads numpy: these commands, each run in a
    fresh interpreter, leave it out of sys.modules."""
    for name, text in [("b.gcd", emit_design(prod_b())), ("c.gcd", emit_design(prod_c())),
                       ("fano.gcd", emit_design(fano())),
                       ("unit.gcd", "gcd 1\nt: 2\nlambda: 1\nv: 2 2 2\nk: 1 1 1\nblocks:\n"
                                    "1 | 1 | 1\n2 | 2 | 1\n2 | 1 | 2\n1 | 2 | 2\n"),
                       ("rows.txt", "0 0 0\n1 1 0\n1 0 1\n0 1 1\n")]:
        (tmp_path / name).write_text(text)
    code = ("import sys; from gencov.cli import main; rc = main(sys.argv[1:]); "
            "print('numpy' in sys.modules, file=sys.stderr); sys.exit(rc)")
    args = [str(tmp_path / a) if a.endswith((".gcd", ".txt")) else a for a in argv]
    proc = run_python("-c", code, *args, "-o", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False"
    assert (tmp_path / "out").read_text()


def test_strength_zero_prune_first_in_a_fresh_interpreter(tmp_path):
    """A prune builds its label arrays at every strength, so it binds numpy
    even at t = 0, where no count follows; every block goes."""
    src = tmp_path / "zero.gcd"
    src.write_text("gcd 1\nt: 0\nlambda: 1\nv: 3\nk: 2\nblocks:\n1 2\n2 3\n")
    proc = run_python("-m", "gencov.cli", "transform", "prune", str(src), "--greedy-drop")
    assert proc.returncode == 0, proc.stderr
    assert parse_design(proc.stdout).blocks == ()
