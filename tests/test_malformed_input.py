"""Seeded structural mutations of the tower's JSON, run through the CLI.

Each example takes the JSON of one tower complex or covering map, changes
one node (a value of another type, a deleted key or entry, a duplicated
list entry, a copy of another node's value, or an int or id nudged by one
step), and runs a command on it in-process.  Whatever the change, the
command must exit 0, 2, 3 or 4 without raising, and a refusal (2 or 3)
must leave stdout empty."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from orbicover import cli, serialize

COMPLEXES = ("base", "cover1", "y", "z")
MAPS = ("map1", "map2", "y_map")
# the other complex of each compare call, unmutated
PARTNER = {"base": "cover1", "cover1": "base", "y": "z", "z": "y"}
COMMANDS = (["euler"], ["singular"], ["pi1", "--ab"], ["compare"], ["covers"])
OTHER_TYPES = (0, -1, 7, "x", None, True, 1.5, [], {}, [0, 1, 1], {"a": 1})


def _paths(node, prefix=()):
    """Every node below the root, as a key path."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def documents(chain, tmp_path_factory):
    """name -> (JSON text, node paths), plus a directory for mutated files."""
    out = {}
    for name in COMPLEXES:
        out[name] = serialize.dumps(serialize.orbicomplex_to_json(getattr(chain, name)))
    for name in MAPS:
        out[name] = serialize.dumps(serialize.covering_map_to_json(getattr(chain, name)))
    docs = {name: (text, list(_paths(json.loads(text)))) for name, text in out.items()}
    return docs, tmp_path_factory.mktemp("malformed")


def _mutate(data, path, other, kind: str, value):
    """Change the node at ``path`` in place; a duplicate inside an object,
    or a nudge of a node that is neither an int nor a string, retypes it."""
    *parent_path, key = path
    parent = data
    for k in parent_path:
        parent = parent[k]
    node = parent[key]
    if kind == "retype":
        parent[key] = value
    elif kind == "delete":
        del parent[key]
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(node)))
    elif kind == "copy":
        source = data
        for k in other:
            source = source[k]
        parent[key] = json.loads(json.dumps(source))
    elif kind != "nudge":
        parent[key] = value
    elif type(node) is int:
        parent[key] = node + (1 if value else -1)
    elif type(node) is str:
        parent[key] = node + "'" if value else node[:-1]
    else:
        parent[key] = value


@settings(max_examples=160, derandomize=True, deadline=None, database=None)
@given(
    doc=st.sampled_from(COMPLEXES + MAPS),
    command=st.integers(0, len(COMMANDS) - 1),
    node=st.integers(0, 10**6),
    other=st.integers(0, 10**6),
    kind=st.sampled_from(["retype", "delete", "duplicate", "copy", "nudge"]),
    value=st.sampled_from(OTHER_TYPES),
)
def test_malformed_json_exits_cleanly(documents, doc, command, node, other, kind, value):
    docs, tmp = documents
    text, paths = docs[doc]
    data = json.loads(text)
    _mutate(data, paths[node % len(paths)], paths[other % len(paths)], kind, value)
    path = tmp / f"{doc}.json"
    path.write_text(json.dumps(data))
    if doc in MAPS:
        argv = ["verify", str(path)]
    else:
        argv = [*COMMANDS[command], str(path)]
        if argv[0] == "compare":
            partner = tmp / f"{PARTNER[doc]}.partner.json"
            partner.write_text(docs[PARTNER[doc]][0])
            argv.append(str(partner))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), (argv, code, stderr.getvalue())
    if code in (2, 3):
        assert stdout.getvalue() == "", (argv, code, stderr.getvalue())
