import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "outputs.py"
_SPEC = importlib.util.spec_from_file_location("outputs", _PATH)
outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs)


def _record(path, *runs):
    path.write_text("".join(json.dumps(run) + "\n" for run in runs))
    return path


def test_compare_reports_every_changed_leaf_by_key_path(tmp_path, capsys):
    old = {"key": "fuzz x", "exit": 0,
           "stdout": {"checks": 4, "flags": [True, True], "r": [0.5, 0.25], "gone": 1}}
    new = {"key": "fuzz x", "exit": 1,
           "stdout": {"checks": 3, "flags": [True, False], "r": [0.5, 0.5], "added": 2}}
    same = {"key": "classify y", "exit": 0, "stdout": {"r": 1.0}}
    code = outputs.compare(
        _record(tmp_path / "a.jsonl", old, same), _record(tmp_path / "b.jsonl", new, same)
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "float .stdout.r[]: 1 in 1 runs, max |d| 0.25" in out
    assert "non-float changes: 5" in out
    for change in (".exit=0 vs 1", ".stdout.checks=4 vs 3",
                   ".stdout.flags[1]=True vs False", ".stdout.gone=1 vs <absent>",
                   ".stdout.added=<absent> vs 2"):
        assert f"    fuzz x: {change}" in out
    assert outputs.compare(tmp_path / "a.jsonl", tmp_path / "a.jsonl") == 0


_DIGEST = Path(__file__).resolve().parent / "outputs_digest.json"


def test_the_outputs_match_the_committed_digest(tmp_path, monkeypatch, capsys):
    # every classify, product, decompose and truncate run and each fuzz suite
    # at a few trials, replayed here: flags, counts and text exactly, floats
    # within outputs.DIGEST_TOL; a change that moves an output rewrites it
    monkeypatch.chdir(tmp_path)
    code = outputs.check_digest(_DIGEST)
    assert code == 0, capsys.readouterr().out


def test_the_digest_fuzz_runs_do_not_depend_on_jobs():
    runs = {key: (paths, leaves) for key, paths, leaves in json.loads(_DIGEST.read_text())}
    parallel = [key for key in runs if key.endswith("--jobs 2")]
    assert len(parallel) == 2 * len(outputs.SUITES) + 3
    for key in parallel:
        assert runs[key] == runs[key.replace("--jobs 2", "--jobs 1")]
