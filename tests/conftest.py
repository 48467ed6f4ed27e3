import io
import json

import numpy as np
import pytest

from symfreq import cyclotomic
from symfreq.cli import main
from symfreq.relations import IdentitySpan


@pytest.fixture
def no_span(monkeypatch):
    """An empty identity span, so that `verify_u_relation` decides every claim at split primes."""

    def empty(m):
        return IdentitySpan(np.zeros(0, np.int64), np.zeros((0, m // 2), np.int64), 1, 0)

    monkeypatch.setattr(cyclotomic, "identity_span", empty)


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
