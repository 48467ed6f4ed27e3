import io
import json

import numpy as np
import pytest

from symfreq import cyclotomic
from symfreq.cli import main


@pytest.fixture
def no_span(monkeypatch):
    """A check matrix that accepts only u = 0 and a character table with no roots,
    so that `verify_u_relation` decides every claim at split primes."""

    def identity(m):
        return np.eye(m // 2 - 1, dtype=np.int64), 1

    def no_roots(m):
        return np.zeros((m // 2 - 1, 0), dtype=np.int64)

    monkeypatch.setattr(cyclotomic, "check_matrix", identity)
    monkeypatch.setattr(cyclotomic, "character_matrix", no_roots)


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
