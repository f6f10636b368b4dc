import ast
import gc
import math
import os
import subprocess
import sys
import warnings

import pytest

import fig8jones
from fig8jones import _kernels, cli
from fig8jones.cli import main


def run_cli(*args):
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


class TestBasicCommands:
    def test_volume(self):
        code, out, _ = run_cli("volume")
        assert code == 0
        assert abs(float(out) - 2.029883213) < 1e-8

    def test_lobachevsky(self):
        code, out, _ = run_cli("lobachevsky", "--theta", "0.5235987755982988")
        assert code == 0
        assert abs(float(out) - 0.5074708032048268) < 1e-10

    def test_lobachevsky_zero(self):
        code, out, _ = run_cli("lobachevsky", "--theta", "0")
        assert code == 0
        assert float(out) == 0.0

    def test_eval_determinant(self):
        code, out, _ = run_cli("eval", "--N", "2", "--r", "1")
        assert code == 0
        assert "sign=+1" in out
        assert abs(float(out.split("log_abs=")[1].split()[0])
                   - math.log(5.0)) < 1e-12

    def test_eval_color_three(self):
        code, out, _ = run_cli("eval", "--N", "3", "--r", "1")
        assert code == 0
        assert abs(float(out.split("log_abs=")[1].split()[0])
                   - math.log(13.0)) < 1e-12

    def test_eval_color_one(self):
        code, out, _ = run_cli("eval", "--N", "1", "--x", "0.3")
        assert code == 0
        assert "log_abs=0" in out

    def test_eval_defaults_to_t_equals_one(self):
        code, out, _ = run_cli("eval", "--N", "1")
        assert code == 0
        assert "log_abs=0" in out and "sign=+1" in out

    def test_eval_scans_once(self, monkeypatch):
        # log_abs and normalized both come from one value of J_N
        calls = []
        scan = _kernels.jones_scan

        def spy(N, x):
            calls.append((N, x))
            return scan(N, x)

        monkeypatch.setattr(_kernels, "jones_scan", spy)
        code, _, _ = run_cli("eval", "--N", "1000", "--r", "1.05")
        assert code == 0
        assert len(calls) == 1


class TestFigureCommand:
    def test_figure_W_rows(self, tmp_path):
        path = tmp_path / "W.csv"
        code, out, _ = run_cli("figure", "W", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "r,finite,predicted,delta"
        assert len(lines) == 1002  # header + 1001 grid rows
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == ""
        assert abs(float(first[2]) - 2.029883213) < 1e-8

    def test_figure_V_right_endpoint(self, tmp_path):
        path = tmp_path / "V.csv"
        assert run_cli("figure", "V", "--out", str(path))[0] == 0
        last = path.read_text().splitlines()[-1].split(",")
        assert float(last[0]) == 1.0
        assert abs(float(last[2]) - 2.029883213) < 1e-8

    def test_figure_cable_rows(self, tmp_path):
        path = tmp_path / "cable.csv"
        code, _, _ = run_cli("figure", "cable", "--N", "20", "--r", "1",
                             "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "c,value"
        assert len(lines) == 21  # header + N rows
        assert lines[1].startswith("1,0")

    def test_figure_conv_smoke(self, tmp_path):
        path = tmp_path / "conv.csv"
        code, _, _ = run_cli("figure", "conv1", "--N", "200", "--step", "0.1",
                             "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "r,finite,predicted,delta"
        assert len(lines) == 12

    @pytest.mark.parametrize("fid,lo,hi", [
        ("conv2", 1.0, 2.0), ("conv3", 2.0, 3.0), ("conv4", 3.0, 4.0),
        ("conv5", 4.0, 5.0),
    ])
    def test_figure_conv_interval_mapping(self, tmp_path, fid, lo, hi):
        path = tmp_path / f"{fid}.csv"
        code, _, _ = run_cli("figure", fid, "--N", "100", "--step", "0.5",
                             "--out", str(path))
        assert code == 0
        rows = path.read_text().splitlines()[1:]
        rs = [float(r.split(",")[0]) for r in rows]
        assert rs[0] == lo and rs[-1] == hi and len(rs) == 3

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("figure", "W", "--step", "0.01", "--out", str(a))
        run_cli("figure", "W", "--step", "0.01", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_cable_reproducible_and_noninteger_r(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli("figure", "cable", "--N", "30", "--r", "0.95",
                                 "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 31

    def test_lobachevsky_negative_theta(self):
        code, out, _ = run_cli("lobachevsky", "--theta", "-0.5235987755982988")
        assert code == 0
        assert abs(float(out) + 0.5074708032048268) < 1e-10


# commands that warn, with their stdout and their one stderr line
WARNINGS = [
    pytest.param(("mahler", "roots", "--poly", "1,-2,1"), "0\n",
                 "fig8jones: warning: NearUnitRootWarning: 2 root(s) of 1,-2,1@0 within "
                 "1e-09 of the unit circle; contributions clamped at max(log|root|, 0)\n",
                 id="roots"),
    pytest.param(("mahler", "homology", "--N", "5", "--poly", "2,1"), "11\n",
                 "fig8jones: warning: UserWarning: f(1) = 3; Alexander polynomials have "
                 "f(1) = +-1, results may not be homology orders\n",
                 id="homology"),
]


class TestMahlerCommands:
    def test_homology(self):
        code, out, _ = run_cli("mahler", "homology", "--N", "3")
        assert code == 0 and out.strip() == "16"

    def test_roots(self):
        code, out, _ = run_cli("mahler", "roots", "--poly", "-1,3,-1@-1")
        assert code == 0
        assert abs(float(out) - 0.9624236501192069) < 1e-10

    def test_quad_poly_matches_roots(self):
        # the midpoint rule on log|f| of the fig8 Alexander polynomial
        # converges geometrically: 64 samples give all 15 printed digits
        _, roots, _ = run_cli("mahler", "roots", "--poly", "-1,3,-1@-1")
        code, out, _ = run_cli("mahler", "quad", "--poly", "-1,3,-1@-1", "--n", "64")
        assert code == 0 and out == roots == "0.962423650119207\n"

    def test_homology_float(self):
        # the exact integer walk is the only route; there is no selector
        code, out, _ = run_cli("mahler", "homology", "--N", "4", "--method", "float")
        assert code == 64 and out == ""

    def test_quad_const(self):
        code, out, _ = run_cli("mahler", "quad", "--const", "1")
        assert code == 0 and float(out) == 0.0

    def test_sw_csv(self):
        code, out, _ = run_cli("mahler", "sw", "--N-list", "2,10", "--out", "-")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,finite,predicted,delta"
        assert len(lines) == 3

    def test_jones_growth_csv(self):
        code, out, _ = run_cli("mahler", "jones-growth", "--N-list", "2,4",
                               "--n-quad", "512", "--out", "-")
        assert code == 0
        assert out.splitlines()[0] == "N,mahler,ratio"

    @pytest.mark.parametrize("sub, header", [("sw", "N,finite,predicted,delta"),
                                             ("jones-growth", "N,mahler,ratio")])
    def test_empty_table_is_its_header(self, sub, header):
        code, out, err = run_cli("mahler", sub, "--N-list", "", "--out", "-")
        assert (code, out, err) == (0, header + "\n", "")

    @pytest.mark.parametrize("argv, out, err", WARNINGS)
    def test_warning_is_one_line(self, argv, out, err):
        shown, filters = warnings.showwarning, list(warnings.filters)
        assert run_cli(*argv) == (0, out, err)
        # the caller's warning state comes back
        assert warnings.showwarning is shown and warnings.filters == filters


class TestChecksAndExitCodes:
    @pytest.mark.parametrize("cmd", [
        ("lobachevsky", "--check"),
        ("volume", "--check"),
        ("eval", "--check"),
        ("figure", "--check"),
        ("mahler", "--check"),
        ("cable", "--check"),
    ])
    def test_check_passes(self, cmd):
        code, out, _ = run_cli(*cmd)
        assert code == 0
        assert "FAIL" not in out

    def test_usage_error_is_64(self):
        code, _, _ = run_cli("figure", "nonsense")
        assert code == 64

    def test_missing_subcommand_is_64(self):
        code, _, _ = run_cli("mahler")
        assert code == 64

    @pytest.mark.parametrize("cmd", [
        ("mahler", "quad"),
        ("mahler", "quad", "--const", "1", "--jones", "5"),
        ("eval", "--N", "5", "--r", "1", "--x", "0.2"),
        ("mahler", "roots", "--poly=-1,3,-1@-1", "--check"),
        ("mahler", "roots", "--poly", "1,-2,1", "--tol", "1e-3"),
    ])
    def test_grammar_error_is_64_with_usage(self, cmd):
        code, out, err = run_cli(*cmd)
        assert code == 64 and out == ""
        assert err.startswith("usage: fig8jones ")
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("cmd", [
        ("figure", "conv1", "--N", "0"),
        ("figure", "cable", "--N", "0"),
        ("figure", "V", "--step", "0"),
        ("figure", "V", "--step", "-0.5"),
        # a step that is not 1/n for a whole n: n = 0 (an empty grid
        # that divided by zero) or a grid that misses the interval's end
        ("figure", "V", "--step", "2"),
        ("figure", "V", "--step", "0.3"),
        ("figure", "conv1", "--N", "100", "--step", "3"),
        ("figure", "conv1", "--N", "100", "--step", "0.3"),
        ("figure", "cable", "--N", "20", "--step", "0.3"),
        ("figure", "W", "--step", "nan"),
        ("figure", "W", "--step", "1e-320"),
        # options that do not shape the chosen figure are refused, not
        # silently ignored
        ("figure", "V", "--r", "3"),
        ("figure", "V", "--N", "7"),
        ("figure", "W", "--N", "7", "--r", "3"),
        ("figure", "cable", "--step", "0.5"),
        ("figure", "cable", "--N", "20", "--r", "1", "--step", "0.01"),
        ("figure", "conv1", "--r", "1"),
        ("figure", "conv8000", "--N", "100", "--r", "2"),
    ])
    def test_figure_bad_size_is_2_and_writes_nothing(self, tmp_path, cmd):
        path = tmp_path / "out.csv"
        code, out, err = run_cli(*cmd, "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("fig8jones: domain error:")
        assert not path.exists()

    def test_domain_error_is_2(self):
        code, _, err = run_cli("lobachevsky", "--theta", "nan")
        assert code == 2
        assert "domain error" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_quad_non_finite_const_is_2(self, value):
        # "--const=" keeps argparse from reading -inf as an option
        code, out, err = run_cli("mahler", "quad", f"--const={value}")
        assert (code, out) == (2, "")
        assert err == f"fig8jones: domain error: value must be finite, got {value}\n"

    def test_eval_bad_x_is_2(self):
        code, _, _ = run_cli("eval", "--N", "3", "--x", "1.5")
        assert code == 2

    def test_numeric_error_is_70(self):
        code, _, err = run_cli("mahler", "quad", "--const", "0")
        assert code == 70
        assert "numeric error" in err

    def test_out_of_memory_is_70_in_one_line(self, monkeypatch):
        # an allocation that fails; raised by a stub, so no test
        # allocates a huge array
        import fig8jones.cli

        def no_memory(p):
            raise MemoryError("Unable to allocate 838. GiB")

        monkeypatch.setattr(fig8jones.cli, "colored_jones", no_memory)
        code, out, err = run_cli("eval", "--N", "100000000000", "--r", "1")
        assert code == 70
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith("fig8jones: numeric error: not enough memory")
        assert "a scan holds one block of about 2^15 terms whatever N is" in err
        assert "grow with N or the sample count" in err and "Traceback" not in err

    def test_vanished_eval_is_70_in_one_line(self, monkeypatch):
        # J_N = 0 has no normalized log; a stub gives the zero value
        from fig8jones.jones_fig8 import SignedLogValue

        monkeypatch.setattr(cli, "colored_jones", lambda p: SignedLogValue.zero())
        code, out, err = run_cli("eval", "--N", "5", "--x", "0.25")
        assert (code, out) == (70, "")
        assert err == ("fig8jones: numeric error: J_N vanishes at N=5, x=0.25; "
                       "normalized log undefined\n")

    def test_precision_error_is_70(self, monkeypatch):
        # no input makes the exact homology walk refuse; a stub raises
        from fig8jones.errors import PrecisionError

        def uncertified(f, N):
            raise PrecisionError("not certified")

        monkeypatch.setattr(cli, "homology_order", uncertified)
        code, out, err = run_cli("mahler", "homology", "--N", "4")
        assert (code, out) == (70, "")
        assert err == "fig8jones: numeric error: not certified\n"

    @pytest.mark.parametrize("cmd", [("figure", "V"), ("mahler", "sw", "--N-list", "2,5")])
    def test_unwritable_out_is_73_in_one_line(self, tmp_path, cmd):
        path = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(*cmd, "--out", str(path))
        assert code == 73 and out == ""
        assert err == f"fig8jones: cannot write {path}: No such file or directory\n"
        code, _, err = run_cli(*cmd, "--out", str(tmp_path))
        assert code == 73
        assert err == f"fig8jones: cannot write {tmp_path}: Is a directory\n"


def run_python(*args, env=None):
    """A fresh interpreter with this source tree first on its path, in
    the environment env (default: this process's)."""
    src = os.path.dirname(os.path.dirname(fig8jones.__file__))
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


class TestProcessExit:
    def test_in_process_main_keeps_the_collector(self):
        assert run_cli("volume")[0] == 0
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_run_disables_the_collector_and_freezes_the_heap(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["fig8jones", "volume"])
        try:
            assert cli.run() == 0
            assert not gc.isenabled()
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
            gc.enable()

    @pytest.mark.parametrize("argv", [
        ("figure", "conv1", "--step", "0.1"),
        ("figure", "cable", "--N", "40", "--r", "1"),
    ])
    def test_module_run_writes_the_same_bytes(self, tmp_path, argv):
        sub, inproc = tmp_path / "sub.csv", tmp_path / "inproc.csv"
        proc = run_python("-m", "fig8jones.cli", *argv, "--out", str(sub))
        code, out, err = run_cli(*argv, "--out", str(inproc))
        assert proc.returncode == code == 0
        assert (proc.stdout, proc.stderr) == (out.replace(str(inproc), str(sub)), err)
        assert sub.read_bytes() == inproc.read_bytes()

    @pytest.mark.parametrize("argv, expected", [
        (("figure", "V", "--N", "5"), 2),
        (("eval", "--bogus"), 64),
    ])
    def test_module_run_exit_codes(self, argv, expected):
        assert run_python("-m", "fig8jones.cli", *argv).returncode == expected

    @pytest.mark.parametrize("argv, out, err", WARNINGS)
    def test_module_run_warning_is_one_line(self, argv, out, err):
        proc = run_python("-m", "fig8jones.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, err)

    @pytest.mark.parametrize("argv", [("figure", "V"), ("mahler", "sw", "--N-list", "2,5")])
    def test_module_run_unwritable_out_is_73(self, tmp_path, argv):
        path = tmp_path / "missing" / "out.csv"
        proc = run_python("-m", "fig8jones.cli", *argv, "--out", str(path))
        assert proc.returncode == 73 and proc.stdout == ""
        assert proc.stderr == f"fig8jones: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("preset", [None, "2"])
def test_module_run_starts_no_blas_thread(preset):
    # run as under python -m, the cli sets OPENBLAS_NUM_THREADS=1 before
    # numpy loads, unless the caller set it, so on Linux the process runs
    # one thread once numpy is loaded; a library import sets nothing
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = run_python("-c", (
        "import os, runpy, sys\n"
        "sys.argv = ['fig8jones', 'volume']\n"
        "try:\n"
        "    runpy.run_module('fig8jones.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as e:\n"
        "    assert e.code == 0, e.code\n"
        "assert 'numpy' in sys.modules\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'),\n"
        "      len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1)\n"), env=env)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.splitlines()[-1].split()
    assert value == (preset or "1")
    if preset is None:
        assert threads == "1"
    proc = run_python("-c", "import os, fig8jones.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))",
                      env=env)
    assert (proc.returncode, proc.stdout) == (0, f"{preset}\n"), proc.stderr


def loaded_modules(*argv) -> list[str]:
    """The fig8jones modules a fresh process holds when it exits: argv
    run as under python -m, or no command (the import of fig8jones.cli)."""
    run = (f"sys.argv = ['fig8jones', *{list(argv)!r}]\n"
           "runpy.run_module('fig8jones.cli', run_name='__main__', alter_sys=True)"
           if argv else "import fig8jones.cli")
    proc = run_python("-c", (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(sorted(m for m in sys.modules\n"
        "                                     if m.split('.')[0] == 'fig8jones')))\n"
        + run))
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, modules", [
    ((), "cli"),
    (("volume",), "special_functions"),
    (("figure", "V", "--step", "0.5", "--out", "-"), "limits special_functions"),
    (("figure", "conv1", "--step", "0.5", "--out", "-"),
     "_kernels limits special_functions"),
    (("figure", "cable", "--N", "40", "--r", "1", "--out", "-"), "_kernels satellite"),
    (("mahler", "sw", "--N-list", "2,5", "--out", "-"), "limits mahler special_functions"),
    (("eval", "--N", "100", "--r", "1"), "_kernels jones_fig8"),
    (("mahler", "jones-growth", "--N-list", "2", "--n-quad", "64", "--out", "-"),
     "_kernels mahler"),
])
def test_each_command_imports_only_its_modules(argv, modules):
    # under python -m the cli module runs as __main__, not as fig8jones.cli
    expected = sorted(["fig8jones", "fig8jones.errors",
                       *(f"fig8jones.{m}" for m in modules.split())])
    assert loaded_modules(*argv) == expected


def test_package_resolves_names_on_first_access():
    script = """
import importlib, sys
import fig8jones
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "numpy" or m.startswith("fig8jones.")))
star = {}
exec("from fig8jones import *", star)
for name in fig8jones.__all__:
    home = importlib.import_module("fig8jones." + fig8jones._HOME[name])
    assert getattr(fig8jones, name) is getattr(home, name) is star[name], name
try:
    fig8jones.no_such_name
except AttributeError:
    print("AttributeError")
print("__all__" in dir(fig8jones))
"""
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "AttributeError", "True", ""]


def test_default_poly_spells_the_fig8_alexander_polynomial():
    # the parser's --poly default is a literal, so building it imports no mahler
    from fig8jones.mahler import FIG8_ALEXANDER

    assert cli.FIG8_POLY == str(FIG8_ALEXANDER)
