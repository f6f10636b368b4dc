import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_census_compares_trees(tmp_path, capsys):
    # the tree against itself (as a checkout and as its src directory)
    # is identical; a tree whose command line prints something else
    # differs on every command
    spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    commands = [("volume",), ("figure", "V", "--step", "0.5", "--out", "V.csv")]
    assert census.main([str(ROOT), str(ROOT / "src")], commands) == 0
    assert capsys.readouterr().out == "2 commands, 0 differ\n"
    (tmp_path / "fig8jones").mkdir()
    (tmp_path / "fig8jones" / "__init__.py").write_text("")
    (tmp_path / "fig8jones" / "cli.py").write_text("print('other')\n")
    assert census.main([str(ROOT), str(tmp_path)], commands) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "DIFF volume: stdout (exit 0 / 0)"
    assert out[1] == "DIFF figure V --step 0.5 --out V.csv: stdout, files (exit 0 / 0)"
    assert out[2] == "2 commands, 2 differ"
    # a warning names its calling line in stderr; the census masks the
    # line, so trees that differ only in where the call sits are the same
    for tree, head in (("a", ""), ("b", "# one line down\n")):
        (tmp_path / tree / "fig8jones").mkdir(parents=True)
        (tmp_path / tree / "fig8jones" / "__init__.py").write_text("")
        (tmp_path / tree / "fig8jones" / "cli.py").write_text(
            head + "import warnings\nwarnings.warn('near')\n")
    assert census.run(census.source(tmp_path / "a"), ("volume",))["stderr"].startswith(
        b"<src>/fig8jones/cli.py:<n>: UserWarning: near")
    assert census.main([str(tmp_path / "a"), str(tmp_path / "b")], commands) == 0
    assert capsys.readouterr().out == "2 commands, 0 differ\n"
