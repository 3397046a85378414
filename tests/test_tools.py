import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  REPO / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# two quick commands: a short simulate and the criterion of the 2D config
SHORT_MATRIX = (
    ("simulate_short", "simulate", "soliton.ini", {"time": {"T": "0.01"}}, []),
    ("criterion", "criterion", "collapse_2d.ini", {}, ["--tbar", "1.0"]),
)


class TestSameOutputs:
    def test_checkout_against_itself_is_identical(self, tmp_path, capsys):
        tool = _same_outputs()
        assert tool.compare(REPO, REPO, SHORT_MATRIX, work=tmp_path) == 0
        report = capsys.readouterr().out
        assert "2 commands, 5 files: all identical" in report
        assert "same     simulate_short/trajectory.csv" in report
        assert (tmp_path / "change" / "criterion" / "criterion.json").is_file()

    def test_a_different_tree_is_reported(self, tmp_path, capsys):
        # a tree whose scnls prints one line and exits 3 on every command; a
        # regular package, so it comes before an installed scnls on sys.path
        other = tmp_path / "other"
        (other / "src" / "scnls").mkdir(parents=True)
        (other / "src" / "scnls" / "__init__.py").write_text("")
        (other / "src" / "scnls" / "__main__.py").write_text(
            "import sys\nprint('other')\nsys.exit(3)\n")
        tool = _same_outputs()
        assert tool.compare(REPO, other, SHORT_MATRIX, work=tmp_path / "work") == 1
        report = capsys.readouterr().out
        assert "DIFFERS  exit codes of simulate_short: 0 / 3" in report
        assert "DIFFERS  simulate_short.stdout" in report
        assert "only in parent simulate_short/trajectory.csv" in report
        assert "NOT identical" in report
