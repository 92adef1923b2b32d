"""The benchmark-pair tool ``tools/bench.py`` on a stub runner: the order of
the runs, the statistics and the keys of a BENCH record."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench

    return bench


def stub(calls):
    """A runner whose change halves ``solve_s`` and leaves the rest; each
    result carries the number of the call."""
    def runner(checkout, workload, seed, traced):
        calls.append((checkout.name, workload, seed, traced))
        n = len(calls)
        scale = 0.5 if checkout.name == "change" else 1.0
        if traced:
            metrics = {"pgenls.iterations": {"value": 100 * scale, "unit": "count"}}
        else:
            metrics = {"setup_s": {"value": 0.3, "unit": "s"},
                       "solve_s": {"value": scale * (0.6 + 0.01 * n), "unit": "s"},
                       "cli_s": {"value": 1.4, "unit": "s"},
                       "peak_rss_mb": {"value": 120.0 - n, "unit": "MB"}}
        return {"correct": True, "attempted": 6, "failed": 0, "metrics": metrics}, 20 + n
    return runner


def test_record_alternates_pairs_and_compares_medians(bench, tmp_path):
    checkouts = {side: tmp_path / side for side in ("parent", "change")}
    for path in checkouts.values():
        path.mkdir()
    (checkouts["parent"] / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    calls = []
    out = bench.record(stub(calls), checkouts,
                       [("lasso-large", 0, 3), ("lasso-large", 0, 2), ("catalog-sweep", 1, 1)],
                       commits={"parent": "p", "change": "c"}, notes=("hand",))
    assert set(out) == {"machine", "commits", "method", "end_to_end",
                        "per_layer_traced_seed0", "notes"}
    # even pairs run the parent first; numbering goes on across blocks
    untraced = [(name, workload) for name, workload, _, traced in calls if not traced]
    assert untraced[:10] == [("parent", "lasso-large"), ("change", "lasso-large"),
                             ("change", "lasso-large"), ("parent", "lasso-large"),
                             ("parent", "lasso-large"), ("change", "lasso-large"),
                             ("change", "lasso-large"), ("parent", "lasso-large"),
                             ("parent", "lasso-large"), ("change", "lasso-large")]
    assert list(out["end_to_end"]) == ["lasso-large/seed0/pairs0-2", "lasso-large/seed0/pairs3-4",
                                       "catalog-sweep/seed1/pairs0-0"]
    block = out["end_to_end"]["lasso-large/seed0/pairs0-2"]
    assert block["first_in_pair"] == {"0": "parent", "1": "change", "2": "parent"}
    assert out["end_to_end"]["lasso-large/seed0/pairs3-4"]["first_in_pair"] == {
        "3": "change", "4": "parent"}
    parent, change = block["parent"], block["change"]
    assert parent["solve_s"]["runs"] == pytest.approx([0.61, 0.64, 0.65])
    assert parent["solve_s"]["median"] == pytest.approx(0.64)
    assert parent["solve_s"]["q1"] == pytest.approx(0.625)
    assert parent["solve_s"]["q3"] == pytest.approx(0.645)
    assert block["parent_iqr"]["solve_s"] == pytest.approx(0.02)
    assert block["median_ratio"]["solve_s"] == pytest.approx(0.5 * 0.63 / 0.64)
    assert parent["rounds"] == [21, 24, 25] and parent["failed"] == [0, 0, 0]
    # lower is better for each of the four: the halved solve wins every pair,
    # the equal times none, and the later run's smaller peak wins when the
    # change runs second
    assert block["change_wins"] == {"setup_s": 0, "solve_s": 3, "cli_s": 0, "peak_rss_mb": 2}
    # one traced run per side and workload, at seed 0, after the pairs
    traced = [call for call in calls if call[3]]
    assert traced == [("parent", "lasso-large", 0, True), ("change", "lasso-large", 0, True),
                      ("parent", "catalog-sweep", 0, True),
                      ("change", "catalog-sweep", 0, True)]
    layers = out["per_layer_traced_seed0"]["lasso-large"]
    assert layers["parent"] == {"pgenls.iterations": 100.0}
    assert layers["change"] == {"pgenls.iterations": 50.0}
    assert layers["rounds"] == {"parent": "33 rounds", "change": "34 rounds"}
    assert out["method"]["run_seconds"] == json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert out["notes"][-1] == "hand"
    assert out["notes"][1].startswith("lasso-large/seed0/pairs0-2: solve_s median 0.64 -> 0.315")
    json.dumps(out)  # the record is plain JSON


def test_run_specs_are_checked(bench):
    assert bench._run_spec("lasso-large:1:5") == ("lasso-large", 1, 5)
    for bad in ("lasso-large:1", "lasso-large:x:5", "lasso-large:0:0"):
        with pytest.raises(Exception, match="PAIRS"):
            bench._run_spec(bad)
