import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(path: Path) -> Path:
    shutil.copytree(ROOT / "src", path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return path


def test_pairs_runs_two_copies_of_a_tiny_job(tmp_path, capsys):
    a, b = _checkout(tmp_path / "a"), _checkout(tmp_path / "b")
    jobs = ["estimate --random 6:1 --m 100 --seed 3", "influence --random 5:2 --format csv"]
    # a child's ru_maxrss starts at its spawner's high-water RSS: grown to
    # 192 MiB here, this process must not set the tiny jobs' peaks
    grown = b"\x01" * (192 << 20)
    assert _pairs().main([str(a), str(b), "--pairs", "2", *(f"--job={job}" for job in jobs)]) == 0
    del grown
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["errors"] == [] and report["pairs"] == 2
    assert [entry["job"] for entry in report["jobs"]] == jobs
    for entry in report["jobs"]:
        assert entry["same_results"]
        for metric in ("wall_s", "peak_rss_mib"):
            assert 0 <= entry[metric]["change_lower"] <= 2
            for side in ("parent", "change"):
                low, median, high = (entry[metric][side][k] for k in ("low", "median", "high"))
                assert 0 < low <= median <= high
        assert all(entry["peak_rss_mib"][side]["high"] < 128 for side in ("parent", "change"))


def test_pairs_refuses_paths_of_different_length_and_reports_a_failed_run(tmp_path):
    pairs = _pairs()
    a, b = _checkout(tmp_path / "a"), _checkout(tmp_path / "bb")
    with pytest.raises(ValueError, match="differ in length"):
        pairs.compare(a, b, ["influence --random 4:1"], 1)
    c = _checkout(tmp_path / "c")
    report = pairs.compare(a, c, ["influence --random 4:1 --i 9"], 1)
    assert report["jobs"] == [] and "exit status 2" in report["errors"][0]
