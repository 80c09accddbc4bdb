"""tools/deviation.py names, per data file that differs between two output
trees, the largest difference between numbers at the same position."""

import json
from pathlib import Path

from oracles import load_module

TOOL = Path(__file__).resolve().parents[1] / "tools" / "deviation.py"


def load_tool():
    return load_module("deviation", TOOL)


def write_tree(root, theta_im, sweep_rows, label):
    case = root / "bump_2d"
    case.mkdir(parents=True)
    data = {"theta_hole": {"im": [0.5, theta_im], "re": [1.0, 0.25]}, "label": label}
    (case / "result.json").write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    (case / "theta_hole.csv").write_text("t,re_theta,im_theta\n0.0,1.0,0.5\n0.2,0.25,%r\n" % theta_im)
    (case / "sweep.csv").write_text("value,contrast\n" + "".join(f"{v},{c}\n" for v, c in sweep_rows))
    (case / "run_meta.json").write_text(json.dumps({"seconds": theta_im}))


def test_deviation_names_each_differing_file(tmp_path, capsys):
    write_tree(tmp_path / "a", -0.023326663351673403, [(1.0, 0.5)], "x")
    write_tree(tmp_path / "b", -0.0233266633516734, [(1.0, 0.5), (2.0, 0.1)], "y")
    (tmp_path / "a" / "bump_2d" / "extra.txt").write_text("1 2\n")
    assert load_tool().main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "bump_2d/extra.txt: only in " + str(tmp_path / "a"),
        "bump_2d/result.json: text differs at $.label",
        "bump_2d/sweep.csv: numbers differ in count: 2 vs 4",
        "bump_2d/theta_hole.csv: 3.47e-18 at im_theta"
        " (-0.023326663351673403 vs -0.0233266633516734)",
    ]


def test_deviation_is_silent_on_identical_trees_and_names_json_paths(tmp_path, capsys):
    tool = load_tool()
    write_tree(tmp_path / "a", 0.125, [(1.0, 0.5)], "x")
    write_tree(tmp_path / "b", 0.125, [(1.0, 0.5)], "x")
    assert tool.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == ""
    result = tmp_path / "b" / "bump_2d" / "result.json"
    result.write_text(result.read_text().replace("0.125", "0.12500000000000003"))
    tool.main([str(tmp_path / "a"), str(tmp_path / "b")])
    assert capsys.readouterr().out == (
        "bump_2d/result.json: 2.78e-17 at $.theta_hole.im[1] (0.125 vs 0.12500000000000003)\n")
