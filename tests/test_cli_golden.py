"""Golden bytes: every recorded CLI request replays to the same output.

``tests/data/cli_golden.json`` holds requests with their exact stdout,
stderr and exit status.  A request with a ``file`` entry writes that
string, encoded as Latin-1 so that any byte can be stored, to a temporary
file whose path replaces the ``{file}`` argument.  After an intended
output change, re-record with ``PYTHONPATH=src python
tests/test_cli_golden.py`` and review the diff of the data file.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from idmbounds.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
REQUESTS = json.loads(GOLDEN.read_text(encoding="utf-8"))["requests"]


def replay(request: dict, directory: Path) -> dict:
    argv = list(request["argv"])
    if "file" in request:
        path = directory / "input.txt"
        path.write_bytes(request["file"].encode("latin-1"))
        argv = [str(path) if a == "{file}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "status": status}


@pytest.mark.parametrize("request_", REQUESTS, ids=[r["id"] for r in REQUESTS])
def test_replay_is_byte_identical(request_, tmp_path, monkeypatch):
    # argparse wraps usage and help text to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    expected = {k: request_[k] for k in ("stdout", "stderr", "status")}
    assert replay(request_, tmp_path) == expected


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        for request in REQUESTS:
            request.update(replay(request, Path(tmp)))
    GOLDEN.write_text(json.dumps({"requests": REQUESTS}, indent=1) + "\n", encoding="utf-8")
