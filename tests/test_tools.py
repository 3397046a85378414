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

    @staticmethod
    def _writing_tree(root, files):
        """A tree whose scnls writes ``files`` (name -> text) where it runs and exits 0."""
        package = root / "src" / "scnls"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "__main__.py").write_text(
            f"from pathlib import Path\nfor name, text in {files!r}.items():\n"
            "    Path(name).write_text(text)\n")
        return root

    def test_differing_csv_and_json_files_are_described(self, tmp_path, capsys):
        # per column or key path: the largest absolute and relative
        # difference of its numbers, a count of other differing values, and
        # the names only one side has; equal columns and keys are not listed
        parent = self._writing_tree(tmp_path / "parent", {
            "run.csv": "t,M,label,gone\n0,1.0,a,5\n0.5,2.0,b,6\n",
            "run.json": '{"orders": {"V": 2.0, "G": null}, "paths": [{"t": 1.0}, {"t": 2.0}],'
                        ' "flag": true, "old": 1}',
            "same.csv": "t\n1\n"})
        change = self._writing_tree(tmp_path / "change", {
            "run.csv": "t,M,label,added\n0,1.0,a,5\n0.5,2.5,c,6\n",
            "run.json": '{"orders": {"V": 1.5, "G": 1.9}, "paths": [{"t": 1.0}, {"t": NaN}],'
                        ' "flag": false, "new": 1}',
            "same.csv": "t\n1\n"})
        tool = _same_outputs()
        matrix = (("fake", "simulate", "soliton.ini", {}, []),)
        assert tool.compare(parent, change, matrix, work=tmp_path / "work") == 1
        report = capsys.readouterr().out.splitlines()
        at = report.index("DIFFERS  fake/run.csv")
        assert report[at + 1:at + 5] == [
            "         only in parent: gone",
            "         only in change: added",
            "         M: max abs 0.5, max rel 0.2",
            "         label: 1 other values differ"]
        at = report.index("DIFFERS  fake/run.json")
        assert report[at + 1:at + 7] == [
            "         only in parent: old",
            "         only in change: new",
            "         orders.V: max abs 0.5, max rel 0.25",
            "         orders.G: 1 other values differ",
            "         paths[].t: max abs inf, max rel inf",
            "         flag: 1 other values differ"]
        assert report[at + 7] == "same     fake/same.csv"
        assert report[-1] == "1 commands, 4 files: NOT identical"
