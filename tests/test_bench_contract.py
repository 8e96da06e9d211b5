import importlib
import importlib.util
import sys
from functools import reduce
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans   # its dataclasses look their module up
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return sorted(spans.TRACED)


@pytest.mark.parametrize("name", _traced())
def test_traced_name_resolves(name):
    # the benchmark's traced pass wraps each of these names; a name that
    # stops resolving is reported absent and drops out of its metrics
    package, module, *attrs = name.split(".")
    assert package == "lillab" and 1 <= len(attrs) <= 2
    owner = importlib.import_module(f"{package}.{module}")
    assert callable(reduce(getattr, attrs, owner))
