import io
import json

import pytest

from symfreq.cli import main


@pytest.fixture
def run_cli():
    """Invoke the CLI in-process; returns (exit_code, stdout_text)."""

    def run(*argv):
        buf = io.StringIO()
        code = main(list(argv), stream=buf)
        return code, buf.getvalue()

    return run


@pytest.fixture
def run_cli_json(run_cli):
    def run(*argv):
        code, out = run_cli(*argv)
        return code, json.loads(out)

    return run
