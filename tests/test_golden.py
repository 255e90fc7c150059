"""The output contract: every figure output and evolve trace, and the bits
of the pole search, against the golden record (tests/golden.py)."""

import json
import math

import golden


def _record():
    return json.loads(golden.RECORD.read_text())


def test_outputs_match_the_golden_record(generated_outputs):
    out_dir, _ = generated_outputs
    record = _record()
    problems = golden.compare(record, golden.summarize(out_dir))
    assert not problems, (
        f"outputs moved against the golden record (made with {record['versions']}; "
        f"this run has {golden.versions()}):\n" + "\n".join(problems)
    )


def test_one_moved_cell_is_named(generated_outputs, tmp_path):
    out_dir, _ = generated_outputs
    name = "fig2b/fig2b_exact-N.csv"
    lines = (out_dir / name).read_text().splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[2] = cells[2][:-1] + ("1" if cells[2][-1] != "1" else "2")
    lines[2] = ",".join(cells)
    (tmp_path / "fig2b").mkdir()
    (tmp_path / name).write_text("".join(lines))
    record = {"files": {name: _record()["files"][name]}}
    (problem,) = golden.compare(record, golden.summarize(tmp_path))
    assert problem.startswith(f"{name}: bytes moved")
    assert problem.count("\n  line ") == 1 and "\n  line 3: " in problem


def test_pole_search_matches_the_bit_record():
    record = _record()
    problems = golden.compare_poles(record["poles"], golden.pole_record())
    assert not problems, (
        f"pole search bits moved against the golden record (made with "
        f"{record['versions']}; this run has {golden.versions()}):\n" + "\n".join(problems)
    )


def test_one_moved_pole_bit_is_named():
    record = _record()["poles"]
    current = json.loads(json.dumps(record))
    # one ulp on the imaginary part of a pole, one character of the error
    re, im = current["s09"]["k"][2].split(",")
    current["s09"]["k"][2] = f"{re},{math.nextafter(float.fromhex(im), 0.0).hex()}"
    current["guard_seed"]["error"][1] += "."
    problems = golden.compare_poles(record, current)
    assert len(problems) == 2
    assert problems[0].startswith("s09: k[2] moved: ")
    assert problems[1].startswith("guard_seed: error[1] moved: ")


def test_selftest_prints_the_golden_lines(selftest_run):
    want, got = _record()["selftest"], golden.selftest_lines(selftest_run[1])
    moved = [f"line {n}: {a!r} -> {b!r}" for n, (a, b) in enumerate(zip(want, got), 1) if a != b]
    assert len(got) == len(want) and not moved, (
        f"{len(want)} lines in the record, {len(got)} printed:\n" + "\n".join(moved)
    )


def test_one_moved_cell_between_two_trees_is_counted(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for tree, cell in ((old, "0.25"), (new, "0.2500001")):
        (tree / "fig").mkdir(parents=True)
        csv = f"t_ps,density,method\n0.1,{cell},exact-N\n0.2,0.5,exact-N\n"
        (tree / "fig" / "a.csv").write_text(csv)
        (tree / "b.txt").write_text("info: T = 0.5\n")
    report, differ = golden.diff_trees(old, new)
    assert differ == 1 and report == [
        "fig/a.csv: 1 numeric cells moved (worst rel 4e-07, abs 1e-07), 0 other cells moved",
        "  line 2: '0.1,0.25,exact-N' -> '0.1,0.2500001,exact-N'",
        "outputs: 1 of 5 numeric cells moved, 1 of 2 files differ",
    ]
