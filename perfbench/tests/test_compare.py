import json

from compare import compare, load_runs


def write_run(directory, index, workload, value):
    env = {"env": {"workload": workload, "trace": 0}}
    result = {
        "correct": True,
        "attempted": 1,
        "failed": 0,
        "metrics": {"op_time_ms": {"value": value, "unit": "ms"}},
    }
    (directory / f"run{index}.out").write_text(
        "op_time_ms 1 ms\n" + json.dumps(env) + "\n" + json.dumps(result) + "\n"
    )


def test_flags_only_moves_beyond_the_parent_iqr(tmp_path):
    parent, steady, slower = (tmp_path / n for n in ("p", "s", "w"))
    for d in (parent, steady, slower):
        d.mkdir()
    for i, v in enumerate([100, 101, 102, 103, 104]):
        write_run(parent, i, "sim-512n", v)
        write_run(steady, i, "sim-512n", v + 0.5)
        write_run(slower, i, "sim-512n", v + 20)
    base = load_runs(parent)
    assert base[("sim-512n", 0, "op_time_ms")] == [100, 101, 102, 103, 104]
    (row,) = compare(base, load_runs(steady))
    assert row[-1] == ""
    (row,) = compare(base, load_runs(slower))
    assert row[-1] == "WORSE"
    (row,) = compare(load_runs(slower), base)
    assert row[-1] == "better"
