"""Random polytope files: the reader raises only InvalidPolytope, and
`analyze` exits with 0, or with 2 and a one-line message."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latpoly.cli import main
from latpoly.errors import InvalidPolytope
from latpoly.fileio import parse_polytope

SMALL = st.integers(-3, 3)
HUGE = st.integers(-(10**30), 10**30)
JUNK = st.sampled_from([None, True, 1.5, "x", "", [], {}, "1/0", "2/4", "-7/3"])
RATIONAL = st.builds("{}/{}".format, SMALL, st.integers(1, 4))
ENTRY = st.one_of(SMALL, SMALL, SMALL, HUGE, HUGE.map(str), RATIONAL, JUNK)


@st.composite
def payloads(draw):
    """Mostly well-formed files of dimension 0-3: hrep, vrep or both, with
    bad types, wrong lengths, huge and rational entries here and there.
    An hrep often starts from a dilated simplex, and a vrep from its
    vertices, so valid files come up next to unbounded, empty, flat,
    singular and mismatched ones."""
    n = draw(st.integers(0, 3))
    d = draw(st.integers(1, 3))
    rare = lambda value, other: draw(st.sampled_from([value] * 9 + [draw(other)]))

    def row(entry):
        length = rare(n, st.sampled_from([n + 1, max(n - 1, 0)]))
        return draw(st.lists(entry, min_size=length, max_size=length))

    payload = {"format": rare("latpoly/1", JUNK), "dim": rare(n, ENTRY)}
    blocks = draw(st.sampled_from([("hrep",), ("vrep",), ("hrep", "vrep")]))
    simplex = n > 0 and draw(st.sampled_from([True, True, False]))
    entry = draw(st.sampled_from([SMALL, SMALL, SMALL, ENTRY]))
    if "hrep" in blocks:
        normals, offsets = [], []
        if simplex:
            normals = [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]
            offsets = [0] * n + [d]
        for _ in range(draw(st.integers(0 if simplex else 1, 3))):
            normals.append(row(entry))
            offsets.append(draw(entry))
        offsets = offsets[: len(offsets) - rare(0, st.just(1))]
        block = {"normals": normals, "offsets": offsets}
        payload["hrep"] = rare(block, st.sampled_from([{"normals": normals}, normals, 5]))
    if "vrep" in blocks:
        points = [row(entry) for _ in range(draw(st.integers(0, 5)))]
        if simplex:
            points += [[d * int(i == j) for j in range(n)] for i in range(-1, n)]
        payload["vrep"] = rare({"vertices": points}, st.sampled_from([{"points": points}, points, None]))
    return payload


@pytest.fixture(scope="module")
def polytope_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "p.json"


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(payload=payloads())
def test_reader_and_analyze_on_random_files(payload, polytope_file):
    try:
        loaded = parse_polytope(payload)
    except InvalidPolytope:
        loaded = None
    polytope_file.write_text(json.dumps(payload))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["analyze", str(polytope_file)])
    message = err.getvalue()
    assert code in (0, 2), message
    if code == 2:
        assert message.startswith("invalid polytope: ") and message.count("\n") == 1, message
    else:
        assert loaded is not None and message == ""
