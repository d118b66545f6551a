import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinhom
from spinhom import verify
from spinhom.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_reg(capsys):
    code, out = run(capsys, "reg", "12,7,2", "--p", "3")
    assert code == 0 and out.strip() == "8,6,4,2,1"


def test_classify_json(capsys):
    code, out = run(capsys, "classify", "8,5,3,2,1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"status": "ProvenHomogeneous", "reason": "H3_exceptional"}


def test_classify_text_and_contexts(capsys):
    code, out = run(capsys, "classify", "4,3,2", "--context", "an", "--format", "text")
    assert code == 0
    assert "irreducible: True" in out
    code, out = run(capsys, "classify", "4,3,2", "--context", "sn")
    assert json.loads(out)["irreducible"] is False


def test_core(capsys):
    code, out = run(capsys, "core", "12,7,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["weight"] * 3 + sum(payload["core"]) == 21


def test_block(capsys):
    code, out = run(capsys, "block", "--core", "4,1", "--weight", "1", "--p", "3")
    assert code == 0
    # exact members of the weight-1 block over the core (4,1)
    assert set(out.split()) == {"7,1", "4,3,1"}


def test_branch(capsys):
    code, out = run(capsys, "branch", "9,5,4,2", "--i", "0", "--op", "up")
    assert code == 0
    assert json.loads(out) == {"result": [10, 7, 4, 3, 1], "count": 5}
    code, out = run(capsys, "branch", "5,4,3,2,1", "--i", "0", "--op", "tilde-e")
    assert json.loads(out) == {"result": [5, 4, 3, 2]}
    code, out = run(capsys, "branch", "6", "--i", "0", "--op", "multiset", "--direction", "up")
    assert json.loads(out) == {"coeffs": [[[7], 2], [[6, 1], 1]]}


def test_dim_ddeg_witness(capsys):
    code, out = run(capsys, "dim", "3,2,1")
    assert json.loads(out) == {"dim": 8, "g": 2, "two_exp": 2}
    code, out = run(capsys, "ddeg", "4,2")
    assert json.loads(out) == {"ddeg": 20}
    code, out = run(capsys, "witness", "9,6,3")
    assert json.loads(out) == {"witness": [8, 7, 3]}
    code, out = run(capsys, "witness", "2,1")
    assert json.loads(out) == {"witness": None}


def test_sst(capsys):
    code, out = run(capsys, "sst", "3,2,1", "--count-only")
    assert json.loads(out) == {"count": 2}
    code, out = run(capsys, "sst", "2,1", "--residue-words")
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines == [{"rows": [[1, 2], [3]], "residues": [0, 1, 0]}]


@pytest.mark.parametrize(
    "argv, lam",
    [(["sst", "3,3"], "(3, 3)"), (["sst", "3,3", "--count-only"], "(3, 3)"), (["sst", "1,1", "--count-only"], "(1, 1)")],
)
def test_sst_rejects_non_strict_shape(capsys, argv, lam):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {lam} is not strict\n"


@pytest.mark.parametrize("op", ["multiset", "down", "up", "tilde-e", "tilde-f", "normal-down", "normal-up"])
@pytest.mark.parametrize("i", ["9", "-1"])
def test_branch_residue_out_of_range(capsys, op, i):
    lam = "5,4" if op in ("multiset", "down", "up") else "4,2,1"  # the tilde ops need a restricted lam
    assert main(["branch", lam, "--i", i, "--op", op]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: residue {i} out of range for p=3\n"


def test_lr_and_cartan(capsys):
    code, out = run(capsys, "lr", "--alpha", "1", "--beta", "1", "--gamma", "1", "--nu", "2,1")
    assert json.loads(out) == {"coefficient": 2}
    code, out = run(capsys, "cartan", "--d", "3")
    assert json.loads(out) == {"value": 7, "threshold": 7}
    code, out = run(capsys, "cartan", "--d", "3", "--nu", "2,1")
    assert json.loads(out) == {"value": 19, "threshold": 7}


def test_cartan_char3(tmp_path, capsys):
    path = tmp_path / "s3.txt"
    path.write_text("p=3 d=3\n3 : 3=1\n2,1 : 3=1, 2,1=1\n1,1,1 : 2,1=1\n")
    code, out = run(capsys, "cartan", "--d", "3", "--char3", "--decomp", str(path), "--mu", "3")
    assert code == 0
    assert json.loads(out) == {"value": 42, "threshold": 7}


def test_family(capsys):
    code, out = run(capsys, "family", "--id", "sigma-tau", "--l", "3")
    assert json.loads(out) == {"sigma": [7, 6, 4, 3, 1], "tau": [8, 6, 5, 3, 2]}
    code, out = run(capsys, "family", "--id", "deglem12", "--l", "2")
    payload = json.loads(out)
    assert payload["lam"] == [6, 4, 1] and payload["mu"] == [7, 4]
    assert payload["ratio"] == "11/10"


def test_enumerate(capsys):
    code, out = run(capsys, "enumerate", "--n", "6", "--filter", "homogeneous")
    assert code == 0
    assert {line.split("\t")[0] for line in out.splitlines()} == {"6", "3,2,1"}
    code, out = run(capsys, "enumerate", "--n", "7", "--special", "only")
    assert {line.split("\t")[0] for line in out.splitlines()} == {"7", "5,2"}


def test_domain_errors(capsys, tmp_path):
    assert main(["reg", "2,2"]) == 1  # not 3-strict
    assert main(["classify", "3,3"]) == 1  # not strict
    assert main(["dim", "1,x"]) == 1
    assert main(["cartan", "--d", "3", "--char3"]) == 1
    path = tmp_path / "s3.txt"
    path.write_text("p=3 d=3\n3 : 3=1\n")
    assert main(["cartan", "--d", "4", "--char3", "--decomp", str(path), "--mu", "3"]) == 1


@pytest.mark.parametrize("p", ["0", "1", "2", "4", "9"])
def test_p_must_be_an_odd_prime(capsys, p):
    for argv in (
        ["reg", "5,4"],
        ["core", "5,4"],
        ["block", "--core", "4,1", "--weight", "1"],
        ["branch", "5,4", "--i", "0", "--op", "up"],
        ["ddeg", "5,4"],
        ["witness", "5,4"],
        ["sst", "2,1", "--residue-words"],
        ["verify", "--suite", "ladders", "--max-n", "3"],
    ):
        assert main(argv + ["--p", p]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: p must be an odd prime, got {p}\n"


@pytest.mark.parametrize("d", ["0", "-1"])
def test_cartan_degree_below_one(capsys, d):
    for extra in ([], ["--nu", "1"], ["--char3"]):
        assert main(["cartan", "--d", d] + extra) == 1, extra
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --d must be at least 1, got {d}\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--d", "5", "--nu", "2,1"], "--nu 2,1 has size 3, expected 5"),
        (["--d", "3", "--pi", "2,1,1"], "--pi 2,1,1 has size 4, expected 3"),
        (["--d", "3", "--nu", "2,1", "--pi", "4"], "--pi 4 has size 4, expected 3"),
    ],
)
def test_cartan_labels_must_have_size_d(capsys, extra, message):
    assert main(["cartan"] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cartan_char3_options_need_char3(capsys, tmp_path):
    path = tmp_path / "s3.txt"
    path.write_text("p=3 d=3\n3 : 3=1\n2,1 : 3=1, 2,1=1\n1,1,1 : 2,1=1\n")
    for extra in (["--decomp", str(path), "--mu", "3"], ["--decomp", str(path)], ["--mu", "3"]):
        assert main(["cartan", "--d", "3"] + extra) == 1, extra
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --decomp and --mu need --char3\n"
    for extra in (["--nu", "3"], ["--pi", "2,1"]):
        assert main(["cartan", "--d", "3", "--char3", "--decomp", str(path), "--mu", "3"] + extra) == 1, extra
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --nu and --pi do not apply with --char3\n"


S3_P3 = "p=3 d=3\n3 : 3=1\n2,1 : 3=1, 2,1=1\n1,1,1 : 2,1=1\n"


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("missing.txt", None, "cannot read decomposition matrix {path}: No such file or directory"),
        ("", None, "cannot read decomposition matrix {path}: Is a directory"),
        ("p4.txt", S3_P3.replace("p=3", "p=4"), "p must be an odd prime, got 4"),
        ("p5.txt", "p=5 d=3\n3 : 3=1\n2,1 : 2,1=1\n1,1,1 : 1,1,1=1\n", "--char3 needs a p=3 matrix, got p=5"),
        ("neg.txt", S3_P3.replace("3=1, 2,1=1", "3=-2, 2,1=1"), "negative multiplicity -2 in line '2,1 : 3=-2, 2,1=1'"),
    ],
    ids=["missing", "directory", "p4", "p5", "negative"],
)
def test_cartan_char3_rejects_bad_matrix_files(capsys, tmp_path, name, text, message):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    assert main(["cartan", "--d", "3", "--char3", "--decomp", str(path), "--mu", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(path=path)}\n"


def test_enumerate_negative_n(capsys):
    assert main(["enumerate", "--n", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n must be non-negative, got -3\n"
    code, out = run(capsys, "enumerate", "--n", "0")
    assert code == 0 and len(out.splitlines()) == 1  # the empty partition


def test_family_index_below_declared_range(capsys):
    assert main(["family", "--id", "deglem9", "--l", "-3"]) == 1
    assert main(["family", "--id", "deglem1", "--l", "0"]) == 1
    assert main(["family", "--id", "deglem1", "--l", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: family deglem9 starts at l=1, got l=-3",
        "error: family deglem1 starts at l=3, got l=0",
        "error: family deglem1 starts at l=3, got l=2",
    ]
    # the smallest declared index may come from extra_greater alone
    code, out = run(capsys, "family", "--id", "deglem6", "--l", "4")
    assert code == 0 and json.loads(out)["lam"] == [13, 9, 5, 4]


def test_verify_exit_code_on_empty_run(capsys):
    assert main(["verify", "--suite", "ladders", "--max-n", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "# suite ladders: 0 checks\n"
    assert captured.err == "# failures: 0\nerror: suite ladders checked nothing\n"


@pytest.mark.parametrize("suite", ["degrees", "wreath", "classification"])
def test_verify_refuses_p3_only_suite_at_other_p(capsys, suite):
    assert main(["verify", "--suite", suite, "--p", "5", "--max-n", "3", "--max-l", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: suite {suite} is defined at p=3 only, got p=5\n"


def test_verify_all_runs_the_suites_defined_at_p(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--p", "5", "--max-n", "4", "--max-l", "3")
    assert code == 0
    headers = [line.split(":")[0] for line in out.splitlines() if line.startswith("#")]
    assert headers == ["# suite ladders", "# suite branching", "# suite blocks", "# suite tableaux"]
    code, out = run(capsys, "verify", "--suite", "all", "--max-n", "4", "--max-l", "3")
    assert code == 0
    headers = [line.split(":")[0] for line in out.splitlines() if line.startswith("#")]
    assert headers == [f"# suite {name}" for name in verify.SUITES]


def test_verify_tableaux_patterned_rows_at_p3_only(capsys):
    def rows(*argv):
        code, out = run(capsys, "verify", "--suite", "tableaux", "--max-n", "3", *argv)
        assert code == 0
        return [line for line in out.splitlines() if not line.startswith("#")]

    at5, at3 = rows("--p", "5"), rows()
    patterned = [line for line in at3 if line.split("\t")[1] == "patterned_tableau"]
    assert patterned == [
        f"{lam}\tpatterned_tableau\t{detail}\tTrue\tTrue\tok"
        for lam, detail in [
            ("10,4,1", "l=3,d=1"), ("10,7,1", "l=3,d=2"), ("10,7,4", "l=3,d=3"),
            ("13,7,4,1", "l=4,d=1"), ("13,10,4,1", "l=4,d=2"), ("13,10,7,1", "l=4,d=3"),
        ]
    ]
    assert at5 and at5 == [line for line in at3 if line not in patterned]


def test_verify_output_guards_hold_under_python_O():
    # the output checks are raises, not asserts, so -O runs them and prints the same rows
    env = dict(os.environ, PYTHONPATH=str(Path(spinhom.__file__).resolve().parents[1]))
    cases = (
        ("branching", "--max-n", "8"),
        ("blocks", "--max-n", "8"),
        ("wreath", "--max-n", "5"),
        ("ladders", "--max-n", "8"),
        ("degrees", "--max-l", "5"),
        ("branching", "--max-n", "8", "--threads", "2"),
    )
    for suite, *flags in cases:
        argv = ["-m", "spinhom.cli", "verify", "--suite", suite, *flags]
        plain = subprocess.run([sys.executable, *argv], capture_output=True, env=env, timeout=120)
        optimised = subprocess.run([sys.executable, "-O", *argv], capture_output=True, env=env, timeout=120)
        assert plain.returncode == 0 and optimised.returncode == 0, suite
        assert plain.stdout and optimised.stdout == plain.stdout, suite


@pytest.mark.parametrize("threads", ["0", "-1", "cpus+1", "100000"])
def test_verify_threads_out_of_range(capsys, monkeypatch, threads):
    # nothing may fork, so an out-of-range value starts no process
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cpus = os.cpu_count() or 1
    threads = str(cpus + 1) if threads == "cpus+1" else threads
    message = f"threads must be between 1 and {cpus}, got {threads}"
    # the value is refused before a suite builds its tasks
    for suite in ("ladders", "tableaux"):
        assert main(["verify", "--suite", suite, "--max-n", "6", "--threads", threads]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    # a library call that skips run_suite meets the bound where the workers are forked
    with pytest.raises(ValueError) as exc:
        verify.run_tasks(verify.suite_ladders(3, 6), int(threads))
    assert str(exc.value) == message
    code, out = run(capsys, "verify", "--suite", "tableaux", "--max-n", "3", "--threads", "1")
    assert code == 0 and out


def test_verify_threads_above_one_need_fork(capsys, monkeypatch):
    monkeypatch.delattr(os, "fork")
    message = "threads above 1 need os.fork, which this platform lacks"
    for suite in ("ladders", "all"):
        assert main(["verify", "--suite", suite, "--max-n", "6", "--threads", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    code, out = run(capsys, "verify", "--suite", "tableaux", "--max-n", "3", "--threads", "1")
    assert code == 0 and out


@pytest.mark.parametrize("argv, message", [
    (["classify", "4,3,2", "--context", "bogus"],
     "argument --context: invalid choice: 'bogus' (choose from 'homogeneity', 'super', 'sn', 'an')"),
    (["block", "--core", "4,1", "--weight", "2", "--filter", "bogus"],
     "argument --filter: invalid choice: 'bogus' (choose from 'strict', 'pstrict', 'restricted')"),
    ([], "the following arguments are required: command"),
    (["reg", "3,2", "--bogus"], "unrecognized arguments: --bogus"),
    (["dim"], "the following arguments are required: partition"),
], ids=["bad-context", "bad-filter", "no-command", "unknown-argument", "missing-partition"])
def test_argparse_rejections_exit_1_with_one_line(capsys, argv, message):
    # exit 2 stays reserved for a failed or empty verification
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: spinhom")


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    from spinhom import cli

    def fake_run_suite(name, **kwargs):
        return [("x", "check", "", "0", "1", "FAIL")]

    monkeypatch.setattr(cli.verify, "run_suite", fake_run_suite)
    assert main(["verify", "--suite", "tableaux"]) == 2


def test_verify_small(capsys):
    code, out = run(capsys, "verify", "--suite", "tableaux", "--max-n", "6")
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert rows and all(line.split("\t")[-1] == "ok" for line in rows)
    # six TSV columns: subject, check, detail, lhs, rhs, verdict
    assert all(len(line.split("\t")) == 6 for line in rows)


def test_json_round_trip(capsys):
    for argv in (
        ["core", "9,5,4,2"],
        ["dim", "9,5,4,2"],
        ["branch", "9,5,4,2", "--i", "1", "--op", "down"],
        ["classify", "9,5,4,2"],
    ):
        code, out = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload
