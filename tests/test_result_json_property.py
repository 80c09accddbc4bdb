"""result.json is the text of the standard JSON encoder: ResultBundle renders
its report directly, and the text must equal ``json.dumps(data,
sort_keys=True, indent=2, allow_nan=False)`` byte for byte. Drawn over
nested reports with string keys, empty containers, tuples, strings with
non-ASCII and control characters, big integers, booleans, None and finite
floats (signed zero, the smallest subnormal, the largest magnitudes and
numpy float64 among them); and checked on every committed config."""

import json
from pathlib import Path

import numpy as np
import pytest

from holesim.cli import ResultBundle, execute, load_config

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=120, derandomize=True, database=None, deadline=None)

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 1e16, 1e-7, 0.1]
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
texts = st.one_of(st.text(), st.sampled_from(["", "\x00\x1f\x7f", "tab\tnew\nline", "é ∂ 😀",
                                              " \ud800", '"quoted\\"']))
leaves = st.one_of(st.none(), st.booleans(), st.integers(-2**200, 2**200), finite_floats, texts)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(finite_floats, max_size=8),  # the one-join path of a list of floats
        st.dictionaries(texts, children, max_size=5),
    )


reports = st.dictionaries(texts, st.recursive(leaves, containers, max_leaves=40), max_size=6)


def encoded(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


@PROPERTY
@given(reports)
def test_result_json_is_the_text_of_the_json_encoder(data):
    assert ResultBundle("baseline", data).json_text == encoded(data)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_committed_result_json_is_the_text_of_the_json_encoder(path):
    bundle = execute(load_config(path))
    assert bundle.json_text == encoded(bundle.data)
