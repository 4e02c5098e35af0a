"""Command line behavior: outputs, schema stability, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from faircover import cli
from faircover.cli import ALGORITHMS, REPORT_SCHEMA, main
from faircover.io_generators import save_instance
from faircover.model import SetSystem


@pytest.fixture()
def inst_path(tmp_path):
    system = SetSystem(
        6, [[0, 1, 2], [3, 4], [3, 4, 5], [0, 5]], [0, 0, 1, 1]
    )
    path = tmp_path / "inst.json"
    save_instance(system, path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------- solve


def test_solve_text_output(capsys, inst_path):
    code, out, _ = run(capsys, "solve", "--algo", "sc", "--instance", str(inst_path))
    assert code == 0
    assert "algorithm:        sc" in out
    assert "cover size:" in out


def test_solve_json_record(capsys, inst_path):
    code, out, _ = run(
        capsys, "solve", "--algo", "allpick", "--instance", str(inst_path),
        "--output", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == REPORT_SCHEMA
    assert record["algorithm"] == "allpick"
    assert record["cover_size"] == 2
    assert record["fairness_ratio"] == 1.0
    assert record["per_group_counts"] == [1, 1]
    assert record["selected"] == [0, 2]


def test_deterministic_algorithms_build_no_generator(capsys, inst_path, monkeypatch):
    # The CLI hands each algorithm the seed, and only a path that draws
    # turns it into a Generator.
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("built a Generator"))
    for algo in ("eff-greedy", "multicover", "gfsc"):
        code, _, _ = run(capsys, "solve", "--algo", algo, "--instance", str(inst_path),
                         "--seed", "3")
        assert code == 0, algo


def test_solve_csv_shape(capsys, inst_path):
    code, out, _ = run(
        capsys, "solve", "--algo", "naive", "--instance", str(inst_path),
        "--output", "csv",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[:3] == ["algorithm", "cover_size", "total_weight"]
    assert row.split(",")[0] == "naive"


def test_solve_seed_reproducibility(capsys):
    args = (
        "solve", "--algo", "eff-lp", "--generator", "synthetic",
        "--n", "16", "--m", "6", "--seed", "5", "--output", "json",
    )
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["selected"] == b["selected"]
    assert a["fairness_ratio"] == 1.0


def test_solve_out_writes_file(capsys, inst_path, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "solve", "--algo", "sc", "--instance", str(inst_path),
        "--output", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["schema"] == REPORT_SCHEMA


def test_solve_generalized_fractions(capsys):
    code, out, _ = run(
        capsys, "solve", "--algo", "gfsc", "--generator", "synthetic",
        "--n", "15", "--m", "8", "--fractions", "1/3,2/3", "--seed", "3",
        "--output", "json",
    )
    assert code == 0
    record = json.loads(out)
    red, blue = record["per_group_counts"]
    assert blue == 2 * red
    assert record["fairness_ratio"] == 1.0


def test_solve_gfsc_with_epsilon_band(capsys):
    code, out, _ = run(
        capsys, "solve", "--algo", "gfsc", "--generator", "synthetic",
        "--n", "12", "--m", "5", "--epsilon", "1/10", "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["fairness_ratio"] == 1.0


def test_solve_multicover_constant_requirements(capsys):
    code, out, _ = run(
        capsys, "solve", "--algo", "multicover", "--generator", "synthetic",
        "--n", "10", "--m", "6", "--requirements", "1", "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["fairness_ratio"] == 1.0


def test_solve_multicover_requirements_file(capsys, tmp_path):
    reqs = tmp_path / "reqs.json"
    reqs.write_text(json.dumps([1] * 10))
    code, out, _ = run(
        capsys, "solve", "--algo", "multicover", "--generator", "synthetic",
        "--n", "10", "--m", "6", "--requirements", str(reqs), "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["cover_size"] > 0


def test_requirements_file_with_non_integers_exits_2(capsys, tmp_path):
    reqs = tmp_path / "reqs.json"
    reqs.write_text(json.dumps([None] + [1] * 9))
    code, out, err = run(
        capsys, "solve", "--algo", "multicover", "--generator", "synthetic",
        "--n", "10", "--m", "6", "--requirements", str(reqs),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


@pytest.mark.parametrize("first", [1.9, True], ids=["fraction", "bool"])
def test_requirements_file_with_non_integer_demand_exits_2(capsys, tmp_path, first):
    reqs = tmp_path / "reqs.json"
    reqs.write_text(json.dumps([first] + [1] * 9))
    code, out, err = run(
        capsys, "solve", "--algo", "multicover", "--generator", "synthetic",
        "--n", "10", "--m", "6", "--requirements", str(reqs),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


def test_solve_weighted_algorithms(capsys):
    for algo in ("wfsc-naive", "wfsc-allpick", "wfsc-eff"):
        code, out, _ = run(
            capsys, "solve", "--algo", algo, "--generator", "synthetic",
            "--n", "12", "--m", "5", "--weights", "uniform", "--output", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["total_weight"] > 0
        assert record["fairness_ratio"] == 1.0


def test_solve_oracles(capsys, inst_path):
    code, out, _ = run(
        capsys, "solve", "--algo", "opt-fair", "--instance", str(inst_path),
        "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["cover_size"] == 2


# ----------------------------------------------------------------- exit codes


def test_missing_instance_file_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "solve", "--algo", "sc", "--instance", str(tmp_path / "nope.json")
    )
    assert code == 2
    assert "input error" in err


def test_broken_instance_file_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run(capsys, "solve", "--algo", "sc", "--instance", str(path))
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("payload", [
    '{"n": 1, "sets": [[0]], "colors": [1000000000]}',
    '{"n": 1000000000, "sets": [[0]], "colors": [0]}',
])
def test_instance_with_an_unusable_color_or_n_exits_2(capsys, tmp_path, payload):
    path = tmp_path / "huge.json"
    path.write_text(payload)
    code, out, err = run(capsys, "solve", "--algo", "sc", "--instance", str(path))
    assert code == 2 and out == ""
    assert "input error" in err


def test_both_sources_exit_2(capsys, inst_path):
    code, _, _ = run(
        capsys, "solve", "--algo", "sc", "--instance", str(inst_path),
        "--generator", "synthetic",
    )
    assert code == 2


def test_no_source_exits_2(capsys):
    assert run(capsys, "solve", "--algo", "sc")[0] == 2


def test_fraction_count_mismatch_exits_2(capsys, tmp_path):
    path = tmp_path / "onegroup.json"
    save_instance(SetSystem(3, [[0, 1, 2], [0, 1]], [0, 0]), path)
    code, _, err = run(
        capsys, "solve", "--algo", "naive", "--instance", str(path),
        "--fractions", "1/2,1/2",
    )
    assert code == 2
    assert "input error" in err
    assert "names 2 groups but the instance has 1" in err


@pytest.mark.parametrize("command, flag, value", [
    ("solve", "--fractions", "1/0,1"),
    ("solve", "--epsilon", "1/0"),
    ("compare", "--fractions", "1/0,1"),
    ("compare", "--epsilon", "1/0"),
    # An empty value is read, and refused, rather than taken as no flag.
    ("solve", "--fractions", ""),
    ("solve", "--epsilon", ""),
    ("compare", "--fractions", ""),
    ("compare", "--epsilon", ""),
])
def test_zero_denominator_exits_2(capsys, command, flag, value):
    algo = ["--algo", "gfsc"] if command == "solve" else ["--algos", "gfsc", "--trials", "1"]
    code, _, err = run(
        capsys, command, *algo, "--generator", "synthetic", "--n", "8", "--m", "3",
        flag, value,
    )
    assert code == 2
    assert f"input error: {flag}: '{value.split(',')[0]}' is not a fraction" in err


def test_oversized_exhaustive_request_exits_2(capsys):
    code, _, err = run(
        capsys, "solve", "--algo", "allpick", "--generator", "synthetic",
        "--n", "10", "--m", "4000", "--coverage-p", "0.4",
    )
    assert code == 2
    assert "refused" in err
    assert "eff-greedy" in err


def test_subroutine_engines_are_not_refused_on_wide_instances(capsys):
    # The same 16M-tuple instance: --subroutine greedy never enumerates tuples.
    code, out, err = run(
        capsys, "solve", "--algo", "gfsc", "--subroutine", "greedy",
        "--generator", "synthetic", "--n", "10", "--m", "4000", "--coverage-p", "0.4",
    )
    assert code == 0, err
    assert "fairness ratio:   1" in out


def test_multicover_has_no_greedy_subroutine(capsys):
    # Multicover runs lp or exhaustive; a greedy request is refused as input
    # rather than run as the exhaustive engine.
    code, out, err = run(
        capsys, "solve", "--algo", "multicover", "--subroutine", "greedy",
        "--generator", "synthetic", "--n", "8", "--m", "3",
    )
    assert code == 2 and out == ""
    assert err.startswith("input error: --subroutine greedy:")


@pytest.mark.parametrize("algo", [a for a in ALGORITHMS if a not in ("gfsc", "multicover")])
def test_subroutine_is_refused_where_no_engine_reads_it(capsys, algo):
    # Only gfsc and multicover read --subroutine; any other algorithm would
    # run its own engine and drop the request silently.
    synthetic = ("--generator", "synthetic", "--n", "8", "--m", "3")
    code, out, err = run(capsys, "solve", "--algo", algo, "--subroutine", "lp", *synthetic)
    assert code == 2 and out == ""
    assert err.startswith(f"input error: --subroutine lp: {algo} accepts none")
    code, out, err = run(
        capsys, "compare", "--algos", algo, "--subroutine", "greedy", *synthetic, "--trials", "1"
    )
    assert code == 2 and out == ""
    assert err.startswith(f"input error: --subroutine greedy: {algo} accepts none")
    # Beside gfsc, the flag sets gfsc's engine and the other algorithm runs
    # its own.
    code, out, err = run(
        capsys, "compare", "--algos", f"gfsc,{algo}", "--subroutine", "greedy", *synthetic,
        "--trials", "1",
    )
    assert code == 0 and err == ""


@pytest.mark.parametrize("flag, value, reader", [
    ("--epsilon", "1/10", "gfsc"),
    ("--requirements", "2", "multicover"),
])
def test_a_flag_is_refused_where_no_algorithm_reads_it(capsys, flag, value, reader):
    # --epsilon is read by gfsc alone and --requirements by multicover alone;
    # any other algorithm would run without it and drop it silently.
    synthetic = ("--generator", "synthetic", "--n", "8", "--m", "3")
    for algo in ALGORITHMS:
        if algo == reader:
            continue
        code, out, err = run(capsys, "solve", "--algo", algo, flag, value, *synthetic)
        assert code == 2 and out == "", algo
        assert err.startswith(f"input error: {flag} {value}: {algo} accepts none"), algo
    code, out, err = run(
        capsys, "compare", "--algos", "sc,allpick", flag, value, *synthetic, "--trials", "1"
    )
    assert code == 2 and out == ""
    assert err.startswith(f"input error: {flag} {value}: sc accepts none")
    # Beside its reader, the flag reaches the reader and the others run as
    # they would without it.
    code, out, err = run(
        capsys, "compare", "--algos", f"{reader},sc", flag, value, *synthetic, "--trials", "1"
    )
    assert code == 0 and err == ""


def test_compare_refuses_an_engine_a_listed_reader_lacks(capsys):
    code, out, err = run(
        capsys, "compare", "--algos", "gfsc,multicover,sc", "--subroutine", "greedy",
        "--generator", "synthetic", "--n", "8", "--m", "3", "--trials", "1",
    )
    assert code == 2 and out == ""
    assert err.startswith("input error: --subroutine greedy: multicover accepts lp")


def test_unwritable_out_is_an_output_error(capsys, inst_path, tmp_path):
    code, out, err = run(
        capsys, "solve", "--algo", "sc", "--instance", str(inst_path),
        "--out", str(tmp_path / "no-such-dir" / "report.txt"),
    )
    assert code == 1 and out == ""
    assert err.startswith("output error:") and "input error" not in err


def test_closed_stdout_is_an_output_error(inst_path):
    # The reader is gone before the report is written, as with `| head -0`.
    proc = subprocess.Popen(
        [sys.executable, "-m", "faircover.cli", "solve", "--algo", "sc",
         "--instance", str(inst_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == "output error: [Errno 32] Broken pipe\n"


def test_unreadable_requirements_file_is_an_input_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "solve", "--algo", "multicover", "--generator", "synthetic",
        "--n", "8", "--m", "3", "--requirements", str(tmp_path / "missing.json"),
    )
    assert code == 2
    assert err.startswith("input error: --requirements: [Errno 2]")


def test_infeasible_fair_cover_exits_3(capsys, tmp_path):
    path = tmp_path / "thin.json"
    save_instance(SetSystem(3, [[0], [1], [2]], [0, 0, 1]), path)
    code, _, err = run(capsys, "solve", "--algo", "opt-fair", "--instance", str(path))
    assert code == 3
    assert "no quota-respecting cover" in err

    code, _, err = run(capsys, "solve", "--algo", "naive", "--instance", str(path))
    assert code == 3
    assert "InsufficientColor" in err


# -------------------------------------------------------------------- compare


def test_compare_csv_shape(capsys):
    code, out, _ = run(
        capsys, "compare", "--algos", "sc,allpick", "--generator", "synthetic",
        "--n", "14", "--m", "5", "--trials", "5", "--output", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == [
        "algorithm", "trials", "failures", "size_mean", "size_std",
        "weight_mean", "fairness_mean", "fairness_std", "time_mean_ms",
    ]
    assert len(lines) == 3
    sc_row = lines[1].split(",")
    allpick_row = lines[2].split(",")
    assert sc_row[0] == "sc" and allpick_row[0] == "allpick"
    assert sc_row[1] == allpick_row[1] == "5"
    assert float(allpick_row[6]) == 1.0


def test_compare_is_deterministic_up_to_timing(capsys):
    args = (
        "compare", "--algos", "sc,eff-greedy", "--generator", "biased",
        "--n", "30", "--m", "6", "--trials", "4", "--seed", "9",
        "--output", "csv",
    )
    _, out_a, _ = run(capsys, *args)
    _, out_b, _ = run(capsys, *args)
    strip_time = lambda text: [
        line.split(",")[:-1] for line in text.strip().splitlines()
    ]
    assert strip_time(out_a) == strip_time(out_b)


def test_compare_json_schema(capsys):
    code, out, _ = run(
        capsys, "compare", "--algos", "naive", "--generator", "synthetic",
        "--n", "12", "--m", "5", "--trials", "3", "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "faircover.compare/1"
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    assert row["algorithm"] == "naive"
    assert row["trials"] == 3
    assert row["failures"] == 0


def test_compare_counts_failures_without_dying(capsys):
    # opt-fair is infeasible on some thin biased draws; failures must be
    # counted, not fatal. With n elements and only sparse color-1 sets this
    # stays fast.
    code, out, _ = run(
        capsys, "compare", "--algos", "sc", "--generator", "biased",
        "--n", "25", "--m", "4", "--trials", "3", "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["rows"][0]["failures"] == 0


def test_compare_builds_each_trial_instance_once(capsys, monkeypatch):
    seeds = []
    real = cli.gen_synthetic
    monkeypatch.setattr(
        cli, "gen_synthetic", lambda *a, **kw: seeds.append(kw["seed"]) or real(*a, **kw)
    )
    code, out, _ = run(
        capsys, "compare", "--algos", "sc,naive,sc", "--generator", "synthetic",
        "--n", "12", "--m", "5", "--trials", "3", "--seed", "4", "--output", "json",
    )
    assert code == 0
    assert seeds == [4, 5, 6]
    rows = json.loads(out)["rows"]
    assert [r["algorithm"] for r in rows] == ["sc", "naive", "sc"]
    assert {k: v for k, v in rows[0].items() if k != "time_mean_ms"} == {
        k: v for k, v in rows[2].items() if k != "time_mean_ms"
    }


def test_compare_requires_generator(capsys, inst_path):
    code, _, _ = run(
        capsys, "compare", "--algos", "sc", "--instance", str(inst_path)
    )
    assert code == 2


def test_compare_rejects_unknown_algos_and_trials(capsys):
    assert run(
        capsys, "compare", "--algos", "sc,magic", "--generator", "synthetic"
    )[0] == 2
    assert run(
        capsys, "compare", "--algos", "sc", "--generator", "synthetic",
        "--trials", "0",
    )[0] == 2


# ------------------------------------------------------------------- plumbing


def test_algorithm_list_is_stable():
    assert ALGORITHMS == (
        "sc", "naive", "allpick", "eff-greedy", "eff-lp", "wfsc-naive",
        "wfsc-allpick", "wfsc-eff", "gfsc", "multicover", "opt-sc", "opt-fair",
    )


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_console_entry_point(inst_path):
    proc = subprocess.run(
        [sys.executable, "-m", "faircover.cli", "solve", "--algo", "sc",
         "--instance", str(inst_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "cover size:" in proc.stdout
