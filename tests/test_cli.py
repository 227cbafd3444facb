import json
import os
import subprocess
import sys

import pytest

import rackhom

# the CLI runs in a child process: hand it the package this session imported
SRC = os.path.dirname(os.path.dirname(rackhom.__file__))


def run_cli(*argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "rackhom", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    return proc


def report_of(proc):
    return json.loads(proc.stdout)


def strip_timing(doc):
    doc = dict(doc)
    doc.pop("timing", None)
    return doc


def test_rack_homology_s3():
    proc = run_cli("rack-homology", "--preset", "conj:symmetric:3",
                   "--field", "q", "--max-degree", "3")
    assert proc.returncode == 0
    doc = report_of(proc)
    assert doc["dims"] == [1, 2, 4, 8]
    assert len(doc["generators"][1]) == 2


def test_lset_iso_verification():
    proc = run_cli("verify", "lset-iso", "--group", "cyclic:2", "--max-degree", "3")
    assert proc.returncode == 0
    assert report_of(proc)["ok"] is True


def test_suite_gl_passes():
    proc = run_cli("suite", "gl", "--seed", "0")
    assert proc.returncode == 0
    doc = report_of(proc)
    assert doc["ok"] is True
    assert set(doc["criteria"]) == {"criterion_11"}


@pytest.mark.parametrize("name", ["nonsense:9", "trivial_rack:0", "trivial_rack:-2",
                                  "cyclic:2x0", "conj:cyclic:0x3"])
def test_unknown_preset_exit_2(name):
    proc = run_cli("rack-homology", "--preset", name)
    assert proc.returncode == 2
    # one error: line and no traceback
    [line] = proc.stderr.splitlines()
    assert line.startswith("error:")


def test_group_preset_for_rack_homology_exit_2():
    proc = run_cli("rack-homology", "--preset", "cyclic:2")
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ("nerve", "export", "--preset", "symmetric:3", "--max-degree", "4", "--budget", "1000"),
    # the streamed top boundary exhausts 16384 cells without saturating
    ("les", "--preset", "cyclic:4", "--field", "f2", "--max-degree", "2", "--budget", "1000"),
    ("map", "s", "--mode", "rack", "--preset", "symmetric:3", "--max-degree", "4",
     "--budget", "10"),
    ("map", "s", "--mode", "cubical", "--preset", "cyclic:2", "--max-degree", "3",
     "--budget", "10"),
    # --budget is the only cap on the gamma nerve (216 cells at degree 2)
    ("les", "--kind", "gamma", "--preset", "symmetric:3", "--max-degree", "1",
     "--budget", "200"),
    # and it caps the lrel subcomplex's rack nerve (225 cells at degree 2)
    ("les", "--kind", "lrel", "--preset", "cyclic:15", "--max-degree", "1", "--budget", "100"),
])
def test_budget_exceeded_exit_3(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "(cell budget %s)" % argv[-1] in proc.stderr


def test_stream_budget_stop_counts_whole_tracker_batches():
    """The stream reads whole tracker batches of live cells, across block
    boundaries, and reports the cells read up to the last one it handed the
    tracker: 5027, not the 5000 of the budget nor the end of a block."""
    proc = run_cli("les", "--kind", "lrel", "--preset", "cyclic:3", "--field", "f3",
                   "--max-degree", "3", "--budget", "5000")
    assert proc.returncode == 3
    assert proc.stderr == ("error: top boundary stream read 5027 of 14348907 degree-4 cells"
                           " without saturating (cell budget 5000)\n")


@pytest.mark.parametrize("name", ["symmetric:3", "dihedral:4", "quaternion:8"])
def test_gamma_les_nerve_fits_the_default_budget(name):
    """Gamma of a group nerve is a point, so the gamma side builds the nerve
    through max_n + 1 only: its degree-2 top (|G|^3 cells) is far within
    the default budget, where degree 3 of dihedral:4 and quaternion:8
    (8^7 cells) is not."""
    proc = run_cli("les", "--kind", "gamma", "--preset", name, "--max-degree", "1")
    assert proc.returncode == 0
    doc = report_of(proc)
    assert doc["dims"] == {"sub": [0, 0], "total": [1, 0], "quotient": [1, 0]}
    assert doc["nodes"] and all(node["exact"] for node in doc["nodes"])


@pytest.mark.parametrize("argv", [
    ("nerve", "export", "--preset", "conj:cyclic:2"),
    ("nerve", "export", "--preset", "cyclic:2"),
    ("verify", "lset-iso", "--group", "cyclic:2"),
    ("rack-homology", "--preset", "conj:cyclic:2"),
    ("group-homology", "--preset", "cyclic:2"),
    ("les", "--preset", "cyclic:2"),
])
def test_negative_max_degree_exit_2(argv):
    proc = run_cli(*argv, "--max-degree", "-1")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_les_prime_too_large_for_certificate_exit_2():
    proc = run_cli("les", "--preset", "quaternion:8", "--field", "f2147483647",
                   "--max-degree", "2")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_bad_rack_file_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("rack", "check", str(bad))
    assert proc.returncode == 2


def test_rack_check_valid_and_invalid(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"elements": [0, 1], "op": [[0, 0], [1, 1]],
                                "basepoint": 0}))
    proc = run_cli("rack", "check", str(good))
    assert proc.returncode == 0
    bad = tmp_path / "bad.json"
    # dihedral quandle: no neutral element
    op = [[(2 * y - x) % 3 for y in range(3)] for x in range(3)]
    bad.write_text(json.dumps({"elements": [0, 1, 2], "op": op, "basepoint": 0}))
    proc = run_cli("rack", "check", str(bad))
    assert proc.returncode == 1
    assert report_of(proc)["violations"]


def test_les_cli():
    proc = run_cli("les", "--preset", "cyclic:2", "--kind", "lrel", "--max-degree", "2")
    assert proc.returncode == 0
    doc = report_of(proc)
    assert doc["all_exact"] is True
    assert doc["dims"]["sub"] == [1, 1, 1]


def test_reports_byte_stable_modulo_timing():
    a = run_cli("gl", "verify", "--ring", "zmod:4", "--nmax", "2",
                "--trials", "10", "--seed", "5")
    b = run_cli("gl", "verify", "--ring", "zmod:4", "--nmax", "2",
                "--trials", "10", "--seed", "5")
    assert strip_timing(report_of(a)) == strip_timing(report_of(b))
    c = run_cli("les", "--preset", "cyclic:2", "--max-degree", "2")
    d = run_cli("les", "--preset", "cyclic:2", "--max-degree", "2")
    assert strip_timing(report_of(c)) == strip_timing(report_of(d))


def test_csv_output():
    proc = run_cli("group-homology", "--preset", "cyclic:2", "--max-degree", "3", "--csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "degree,dim"
    assert lines[1:] == ["0,1", "1,0", "2,0", "3,0"]


def test_out_flag(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("map", "s", "--preset", "cyclic:2", "--max-degree", "2",
                   "--out", str(out))
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["chain_map"] is True


def test_map_s_cubical_mode():
    proc = run_cli("map", "s", "--mode", "cubical", "--preset", "symmetric:3",
                   "--max-degree", "2")
    assert proc.returncode == 0
    doc = report_of(proc)
    assert doc["chain_map"] is True and doc["mode"] == "cubical"


def test_coalgebra_verify_rack_target():
    proc = run_cli("coalgebra", "verify", "--target", "conj:cyclic:3",
                   "--max-degree", "3")
    assert proc.returncode == 0
    doc = report_of(proc)
    assert doc["connected"] is True and doc["cofree_dims_match"] is True


def test_suite_all_runs_every_criterion_and_exits_zero():
    proc = run_cli("suite", "all")
    assert proc.returncode == 0
    doc = report_of(proc)
    assert doc["ok"] is True
    assert set(doc["criteria"]) == {"criterion_%d" % n for n in range(1, 12)}


@pytest.mark.parametrize("argv", [
    ("les", "--preset", "cyclic:2", "--max-degree", "1", "--csv"),
    ("nerve", "export", "--preset", "cyclic:2", "--max-degree", "1", "--seed", "1"),
])
def test_flag_the_command_does_not_take_exit_2(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "unrecognized arguments" in proc.stderr


def test_internal_invariant_violation_exit_4(monkeypatch, capsys):
    from rackhom import chains, cli

    def broken(*args, **kwargs):
        raise chains.ConstructionBug("snake lift failed at degree 1")

    monkeypatch.setattr(cli, "les_for_group", broken)  # the name cmd_les calls
    code = cli.main(["les", "--preset", "cyclic:2", "--max-degree", "1"])
    assert code == 4
    err = capsys.readouterr().err
    assert err == "error: internal invariant violated: snake lift failed at degree 1\n"


def test_ill_defined_gamma_quotient_of_a_standard_model_exit_4(monkeypatch, capsys):
    """The collapsed cube models are Gamma of a standard cube, which is
    well defined, so an ill-defined quotient there is a construction fault:
    exit 4 with one line, not a traceback."""
    from rackhom import cli, cubical
    from rackhom.cubical import QuotientIllDefined

    def broken(x):
        raise QuotientIllDefined("induced face d_1,0 not constant on a class", witnesses=[])

    monkeypatch.setattr(cubical, "gamma_functor_with_projection", broken)
    code = cli.main(["suite", "nerves"])
    assert code == 4
    err = capsys.readouterr().err
    assert err == ("error: internal invariant violated: induced face d_1,0 not constant"
                   " on a class\n")


@pytest.mark.parametrize("argv", [
    ("coalgebra", "verify", "--target", "tensor:2", "--laws", "foo"),
    ("coalgebra", "verify", "--target", "tensor:x"),
    ("coalgebra", "verify", "--target", "tensor:-1"),
    # rack targets supply no product for the Hopf law, at any degree
    ("coalgebra", "verify", "--target", "conj:cyclic:3", "--laws", "Hopf"),
    ("coalgebra", "verify", "--target", "conj:cyclic:3", "--max-degree", "1", "--laws", "Hopf"),
    ("coalgebra", "verify", "--target", "conj:cyclic:3", "--max-degree", "1",
     "--laws", "semiHopf"),
    ("coalgebra", "verify", "--target", "conj:cyclic:3", "--max-degree", "0",
     "--laws", "commutativeProduct"),
    ("coalgebra", "verify", "--target", "conj:cyclic:3", "--max-degree", "2",
     "--laws", "associativeProduct"),
    # --field is parsed for tensor targets too, and the tensor model is over Q
    ("coalgebra", "verify", "--target", "tensor:1", "--field", "fx"),
    ("coalgebra", "verify", "--target", "tensor:1", "--field", "f4"),
    ("coalgebra", "verify", "--target", "tensor:1", "--field", "f5"),
])
def test_coalgebra_bad_input_exit_2_with_one_line(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_gl_verify_f_needs_a_prime_and_zmod_takes_any_modulus():
    proc = run_cli("gl", "verify", "--ring", "f:4", "--nmax", "1", "--trials", "2")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    proc = run_cli("gl", "verify", "--ring", "zmod:4", "--nmax", "1", "--trials", "2")
    assert proc.returncode == 0
    assert report_of(proc)["ring"] == "Z/4"


@pytest.mark.parametrize("argv", [
    ("--nmax", "-1"), ("--nmax", "0"), ("--trials", "0"), ("--trials", "-3"),
    ("--budget", "0"),
])
def test_gl_verify_counts_below_one_exit_2(argv):
    proc = run_cli("gl", "verify", *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("rack-homology", "--preset", "conj:cyclic:2", "--budget", "0"),
    ("les", "--preset", "cyclic:2", "--budget", "-1"),
])
def test_budget_below_one_exit_2(argv, capsys):
    """A cell budget below 1 is bad input, not an exhausted budget (exit 3)."""
    from rackhom import cli

    assert cli.main(list(argv)) == 2
    out = capsys.readouterr()
    assert out.out == "" and "--budget" in out.err


SWEEP = [
    ("rack-homology", "--preset", "conj:symmetric:3", "--field", "f3"),
    ("rack-homology", "--preset", "trivial_rack:4", "--field", "f2"),
    ("group-homology", "--preset", "dihedral:4", "--field", "q"),
    ("les", "--preset", "cyclic:2x2", "--field", "f5"),
    ("les", "--kind", "gamma", "--preset", "cyclic:3", "--field", "q"),
    ("les", "--kind", "gamma", "--preset", "symmetric:3"),
    ("coalgebra", "verify", "--target", "conj:quaternion:8", "--field", "f2"),
    ("coalgebra", "verify", "--target", "tensor:0"),
    ("coalgebra", "verify", "--target", "tensor:1", "--field", "fx"),
    ("coalgebra", "verify", "--target", "tensor:1", "--field", "f5"),
    ("map", "s", "--mode", "cubical", "--preset", "symmetric:3", "--field", "f3"),
    ("verify", "lset-iso", "--group", "quaternion:8"),
    ("nerve", "export", "--preset", "conj:dihedral:4"),
    ("gl", "verify", "--ring", "zmod:2147483659", "--nmax", "3", "--trials", "5", "--seed", "2"),
    ("gl", "verify", "--ring", "zmod:18446744073709551629", "--nmax", "2", "--trials", "5",
     "--seed", "2"),
]
EDGES = [("--max-degree", "0"), ("--max-degree", "1"), ("--max-degree", "1", "--budget", "5")]
# gl verify has no --max-degree: its edges are the smallest size and trial count
GL_EDGES = [("--nmax", "1"), ("--trials", "1"), ("--nmax", "1", "--budget", "5")]
SWEEP_CASES = [(argv, edge) for argv in SWEEP
               for edge in (GL_EDGES if argv[0] == "gl" else EDGES)]


@pytest.mark.parametrize("argv, edge", SWEEP_CASES, ids=" ".join)
def test_cli_sweep_ends_with_a_documented_exit_code(argv, edge, capsys):
    """In process: an uncaught exception fails the test outright, and every
    edge reaches its command rather than argparse's rejection."""
    from rackhom import cli

    code = cli.main([*argv, *edge])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert "unrecognized arguments" not in err
