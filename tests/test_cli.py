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


def test_unknown_preset_exit_2():
    proc = run_cli("rack-homology", "--preset", "nonsense:9")
    assert proc.returncode == 2


def test_group_preset_for_rack_homology_exit_2():
    proc = run_cli("rack-homology", "--preset", "cyclic:2")
    assert proc.returncode == 2


def test_budget_exceeded_exit_3():
    proc = run_cli("nerve", "export", "--preset", "symmetric:3",
                   "--max-degree", "4", "--budget", "1000")
    assert proc.returncode == 3


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

    monkeypatch.setattr(chains, "les_for_group", broken)
    code = cli.main(["les", "--preset", "cyclic:2", "--max-degree", "1"])
    assert code == 4
    err = capsys.readouterr().err
    assert err == "error: internal invariant violated: snake lift failed at degree 1\n"
