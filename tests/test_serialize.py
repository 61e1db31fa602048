"""``serialize.dumps`` against the standard library's indenting encoder,
which it replaces: on any tree of strings, ints, floats, booleans, None,
lists, tuples and string-keyed dicts the bytes must be the same."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from orbicover import serialize
from orbicover.covers import compose, verify_covering


def _reference(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


_text = st.text(max_size=8) | st.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f", "é", " ", "😀", ""])
_scalars = (
    _text
    | st.integers()
    | st.integers(max_value=-(2**70))
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=False, allow_infinity=False)
)
_trees = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_text, children, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_trees)
def test_dumps_matches_the_indenting_encoder(data):
    assert serialize.dumps(data) == _reference(data)


def test_dumps_matches_on_every_tower_output(chain, covering_maps, demo_report):
    complexes = [chain.base, chain.cover1, chain.cover2, chain.y, chain.z, chain.y_hat, chain.z_hat]
    complexes += [c for _phi, c, _f in chain.family1 + chain.family2]
    maps = [f for _name, f in covering_maps] + [chain.y_map, chain.z_map]
    docs = [serialize.orbicomplex_to_json(c) for c in complexes]
    docs += [serialize.covering_map_to_json(f) for f in maps]
    docs += [serialize.cover_report_to_json(verify_covering(f)) for f in maps]
    docs.append(dict(demo_report))  # with its float timings
    for data in docs:
        assert serialize.dumps(data) == _reference(data)


def test_dumps_refuses_a_key_that_is_not_a_string():
    with pytest.raises(TypeError, match="^keys must be str, not int$"):
        serialize.dumps({1: "one"})


def test_dumps_peaks_at_about_twice_the_text(chain):
    # each list or dict is joined once as it is written, so no document is
    # held as one string per token; sizes are fixed, so the peak is too
    maps = [chain.y_hat_map, chain.map2, compose(chain.y_hat_map, chain.y_map)]
    for doc in map(serialize.covering_map_to_json, maps):
        text = serialize.dumps(doc)
        tracemalloc.start()
        try:
            serialize.dumps(doc)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text), (peak, len(text))


def test_parsed_map_holds_each_id_and_step_once(chain):
    # the reader interns every string and keeps one tuple per distinct step
    # and path
    f = compose(chain.y_hat_map, chain.y_map)
    text = serialize.dumps(serialize.covering_map_to_json(f))
    parsed = serialize.covering_map_from_json(json.loads(text))
    for c in (parsed.source, parsed.target):
        ids = {pid: pid for pid in c.pieces_by_id}
        assert all(pid is ids[pid] for pid, _ci, _si in c.attachments)
    steps: dict[tuple, tuple] = {}
    for path in parsed.segment_map.values():
        for step in path:
            assert steps.setdefault(step, step) is step
    assert len(steps) < sum(map(len, parsed.segment_map.values()))
    # each segment_map key is the source's attachment key, and equal paths
    # are one tuple
    keys = {ref: ref for ref in parsed.source.attachments}
    assert all(keys[ref] is ref for ref in parsed.segment_map)
    paths: dict[tuple, tuple] = {}
    for path in parsed.segment_map.values():
        assert paths.setdefault(path, path) is path
    assert len(paths) < len(parsed.segment_map)
