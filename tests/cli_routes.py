"""`gencov verify` run in process, by its label-array load and by the
parse_design route that the load falls back to."""

import contextlib
import io

import gencov.cli as cli


def run_verify(path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `gencov verify path`, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", str(path)])
    return code, out.getvalue(), err.getvalue()


def verify_routes(path, monkeypatch):
    """(run_verify(path), the same with the label-array load declining
    every document), the second being what verify(parse_design(text))
    prints."""
    loaded = run_verify(path)
    with monkeypatch.context() as m:
        m.setattr(cli, "parse_label_arrays", lambda text: None)
        fallback = run_verify(path)
    return loaded, fallback
