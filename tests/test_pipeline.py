import gc
import json

import pytest

from orbicover import cli, covers, orbicore, pipeline, serialize, towers, verify
from orbicover.graphs import marked_graph_isomorphism, topological_form


def test_report_stage_order_and_values(demo_report):
    assert list(demo_report["stages"]) == [
        "base",
        "first_cover",
        "second_cover",
        "pair_search",
        "torsion_free",
    ]
    stages = demo_report["stages"]
    assert stages["base"]["euler"] == "-9/2"
    assert stages["first_cover"]["euler"] == "-9"
    assert stages["second_cover"]["euler"] == "-18"
    assert stages["pair_search"]["euler"] == ["-36", "-36"]
    assert stages["torsion_free"]["euler"] == "-144"
    assert stages["pair_search"]["pairs_found"] >= 1
    assert stages["torsion_free"]["towers"] == {"D2(6)": 3, "D2(10)": 7}


def test_impossible_second_cover_census_fails_stage_three(monkeypatch):
    monkeypatch.setattr(pipeline, "SECOND_COVER_CENSUS", {4: 8})
    with pytest.raises(pipeline.DemoFailure) as err:
        pipeline.run_demo()
    assert err.value.stage == "second_cover"


def test_inverted_pair_predicate_fails_stage_four(monkeypatch):
    from orbicover import invariants

    def inverted(sing_a, sing_b, nf_a, nf_b):
        # isomorphic singular graphs AND unequal normal forms: no such pair
        if marked_graph_isomorphism(sing_a, sing_b) is None:
            return False
        if nf_a is None or nf_b is None:
            return False
        return invariants.normal_forms_isomorphic(nf_a, nf_b) is None

    monkeypatch.setattr(pipeline, "default_pair_predicate", inverted)
    with pytest.raises(pipeline.DemoFailure) as err:
        pipeline.run_demo()
    assert err.value.stage == "pair_search"


def test_cmd_demo_exits_four_on_forced_failure(monkeypatch):
    monkeypatch.setattr(pipeline, "SECOND_COVER_CENSUS", {4: 8})
    assert cli.main(["paper-demo"]) == 4


def test_topological_form_iff_on_demo_singular_corpus(chain):
    graphs = [
        orbicore.singular_subspace(c)
        for c in (chain.base, chain.cover1, chain.cover2, chain.y, chain.z,
                  chain.y_hat, chain.z_hat)
    ]
    for g in graphs:
        for h in graphs:
            lhs = marked_graph_isomorphism(g, h) is not None
            rhs = (
                marked_graph_isomorphism(
                    topological_form(g), topological_form(h)
                )
                is not None
            )
            assert lhs == rhs


def _cyclic_garbage(run) -> list:
    """What the cyclic collector finds after ``run()`` returns, with the
    collector off while it runs."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_run_demo_leaves_no_cyclic_garbage():
    # every object the demo builds is freed by reference counting, so none
    # waits for the cyclic collector
    assert _cyclic_garbage(pipeline.run_demo) == []


def test_cover_chain_leaves_no_cyclic_garbage(chain):
    # nor do the covers' sharing tables, or the closures that fill them,
    # along the chain that a ladder-covers operation runs
    def run():
        cover, f_cover = covers.davis_double_cover(chain.base)
        _hat, f_hat = towers.torsion_free_cover(cover)
        text = serialize.dumps(serialize.covering_map_to_json(towers.compose(f_hat, f_cover)))
        assert verify.verify_covering(serialize.covering_map_from_json(json.loads(text))).passed

    assert _cyclic_garbage(run) == []
