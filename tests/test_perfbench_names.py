"""The benchmark tracer wraps dtvertex functions looked up by name.

perfbench/tracer.py lists them in TRACED as (module, attribute) pairs;
a rename in the package would break `perfbench/run.py --trace 1`
without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, attr, _, _ in tracer.TRACED:
        owner = importlib.import_module("dtvertex." + mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(mod_name + "." + attr)
    assert len(tracer.TRACED) > 0
    assert missing == []
