"""A check that holds in every test."""

import functools

import pytest

from operadic import freeconstr


@pytest.fixture(autouse=True)
def builder_results_pass_the_constructors(monkeypatch):
    """The builders (`ib_point`, `b_point` and the relabelling of a free
    point) freeze the engine's result without the constructors' checks.
    Every result a test builds is rebuilt through those checks and must come
    out equal."""
    build = freeconstr._build

    @functools.wraps(build)
    def checked(*args):
        pt = build(*args)
        _, fields = freeconstr._free_fields(pt)
        assert type(pt)(*fields) == pt
        return pt

    monkeypatch.setattr(freeconstr, "_build", checked)
