"""The output contract: every figure output and evolve trace against the
golden record (tests/golden.py)."""

import json

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
