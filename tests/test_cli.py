import contextlib
import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hellcorr import cli, inference, reproduce
from hellcorr.datasets import seabirds
from hellcorr.errors import DiagnosticsError
from hellcorr.estimator import estimate
from hellcorr.generators import gen_gaussian
from hellcorr.inference import significance


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_sample(path, n=60, rho=0.5, seed=0, header=None):
    arr = gen_gaussian(n, rho, seed=seed)
    lines = [] if header is None else [header]
    lines += [f"{a},{b}" for a, b in arr]
    path.write_text("\n".join(lines) + "\n")
    return arr


class TestEstimateCommand:
    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--generator", "gaussian:rho=0.6", "--n", "200", "--seed", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "hellcorr/estimate@1"
        assert doc["n"] == 200
        assert 0.0 <= doc["eta"] <= 1.0
        assert doc["cutoffs_policy"] == "cv"
        assert len(doc["cutoffs"]) == 2
        assert doc["seed"] == 3

    def test_reruns_byte_identical(self, capsys):
        args = ("estimate", "--generator", "circle", "--n", "150", "--seed", "9")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_file_input_matches_library(self, capsys, tmp_path):
        f = tmp_path / "data.csv"
        arr = write_sample(f, header="x,y")
        code, out, _ = run_cli(capsys, "estimate", "--input", str(f))
        assert code == 0
        doc = json.loads(out)
        assert doc["eta"] == pytest.approx(estimate(arr).eta, abs=1e-9)
        assert doc["source"] == str(f)

    def test_comments_and_blank_lines(self, capsys, tmp_path):
        f = tmp_path / "data.csv"
        arr = gen_gaussian(60, 0.5, seed=0)
        rows = [f"{a},{b}" for a, b in arr.tolist()]
        rows[0] += "  # first row"
        f.write_text("\n# sample of 60\nx,y  # names\n\n" + "\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "estimate", "--input", str(f))
        assert code == 0, err
        doc = json.loads(out)
        assert doc["n"] == 60
        assert doc["eta"] == estimate(arr).eta

    def test_whitespace_file_no_header(self, capsys, tmp_path):
        f = tmp_path / "data.txt"
        arr = gen_gaussian(40, 0.3, seed=1)
        f.write_text("\n".join(f"{a} {b}" for a, b in arr))
        code, out, _ = run_cli(capsys, "estimate", "--input", str(f))
        assert code == 0
        assert json.loads(out)["n"] == 40

    def test_fixed_cutoffs(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--generator", "gaussian:rho=0.5", "--n", "100",
            "--k", "1", "--l", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["cutoffs"] == [1, 2]
        assert doc["cutoffs_policy"] == "fixed"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--generator", "sine", "--n", "100", "--format", "csv"
        )
        assert code == 0
        keys = [line.split(",", 1)[0] for line in out.strip().splitlines()]
        assert keys == sorted(keys)
        assert "eta" in keys

    @pytest.mark.parametrize("command", [("estimate",), ("pvalue", "--m", "100")])
    def test_csv_rows_are_two_fields(self, capsys, tmp_path, command):
        f = tmp_path / "a,b.csv"  # the source row carries a comma too
        write_sample(f, n=40)
        code, out, _ = run_cli(
            capsys, *command, "--input", str(f), "--k", "1", "--l", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        rows = list(csv.reader(lines))
        assert all(len(r) == 2 for r in rows)
        fields = dict(rows)
        assert fields["cutoffs"] == "[1, 1]"
        assert fields["source"] == str(f)
        for line, (key, value) in zip(lines, rows):
            if "," not in value and '"' not in value:  # only such fields are quoted
                assert line == f"{key},{value}"

    @pytest.mark.filterwarnings("error")
    def test_huge_values_give_valid_json(self, capsys, tmp_path):
        f = tmp_path / "huge.csv"
        rows = (gen_gaussian(30, 0.5, seed=4) * 1e200).tolist()
        f.write_text("".join(f"{a!r},{b!r}\n" for a, b in rows))
        code, out, err = run_cli(capsys, "estimate", "--input", str(f))
        assert code == 0, err

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(out, parse_constant=refuse)
        assert -1.0 <= doc["pearson"] <= 1.0


class TestBadInputs:
    def test_too_few_rows(self, capsys, tmp_path):
        f = tmp_path / "tiny.csv"
        f.write_text("1,2\n3,4\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(f))
        assert code == 2
        assert "error:" in err

    def test_both_sources(self, capsys, tmp_path):
        f = tmp_path / "d.csv"
        write_sample(f)
        code, _, _ = run_cli(capsys, "estimate", "--input", str(f), "--generator", "circle")
        assert code == 2

    def test_neither_source(self, capsys):
        assert run_cli(capsys, "estimate")[0] == 2

    def test_k_without_l(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", "--generator", "circle", "--k", "1")
        assert code == 2

    def test_unknown_generator(self, capsys):
        assert run_cli(capsys, "estimate", "--generator", "hexagon")[0] == 2

    def test_missing_file(self, capsys):
        assert run_cli(capsys, "estimate", "--input", "/nonexistent/x.csv")[0] == 2

    def test_file_not_utf8(self, capsys, tmp_path):
        f = tmp_path / "bin.csv"
        f.write_bytes(b"\xff\xfe1,2\n3,4\n5,6\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(f))
        assert code == 2
        assert "Traceback" not in err and "UTF-8" in err

    @pytest.mark.parametrize("spec, n", [("circle", "-5"), ("peano:d=3", "-1")])
    def test_negative_generator_size(self, capsys, spec, n):
        code, _, err = run_cli(capsys, "estimate", "--generator", spec, "--n", n)
        assert code == 2
        assert "Traceback" not in err and "at least 3 observations" in err

    def test_parameter_the_family_does_not_take(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--generator", "block:a=0.5,nm=4", "--n", "30")
        assert code == 2 and out == ""
        assert "error:" in err and "block takes a, m" in err and "Traceback" not in err

    # 10**18 points lie past the address space, so numpy refuses them before allocating
    @pytest.mark.parametrize("spec", ["gaussian:rho=0.5", "peano:d=3", "circle"])
    def test_generator_size_too_large_to_allocate(self, capsys, spec):
        code, out, err = run_cli(capsys, "estimate", "--generator", spec, "--n", str(10**18))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot draw") and "Traceback" not in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("gaussian:rho=2", "rho must lie strictly inside (-1, 1)"),
            ("block:a=0.5,m=0", "m must be a positive integer"),
            ("peano:d=9", "depth must be an integer in [1, 8] or inf"),
        ],
    )
    def test_family_refuses_a_parameter_value(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "estimate", "--generator", spec, "--n", "30")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    # 10**18 estimates lie past the address space, so their table is refused before any draw
    @pytest.mark.parametrize(
        "argv",
        [
            ["ci", "--b1", str(10**18), "--b2", "5"],
            ["ci", "--b1", "10", "--b2", str(10**18)],
            ["pvalue", "--m", str(10**18)],
        ],
        ids=["ci-b1", "ci-b2", "pvalue-m"],
    )
    def test_resampling_count_too_large_to_hold(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--generator", "circle", "--n", "30")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot hold") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_constant_column(self, capsys, tmp_path):
        f = tmp_path / "flat.csv"
        f.write_text("".join(f"1.5,{v}\n" for v in gen_gaussian(30, 0.0, seed=2)[:, 1]))
        code, _, err = run_cli(capsys, "estimate", "--input", str(f))
        assert code == 2
        assert "constant" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["x,y\n", "x,y\n# rows to come\n\n"])
    def test_header_only_file(self, capsys, tmp_path, text):
        f = tmp_path / "head.csv"
        f.write_text(text)
        code, _, err = run_cli(capsys, "estimate", "--input", str(f))
        assert code == 2
        assert "no data rows" in err
        assert "UserWarning" not in err and "Traceback" not in err

    def test_three_column_file(self, capsys, tmp_path):
        f = tmp_path / "wide.csv"
        f.write_text("1,2,3\n4,5,6\n7,8,9\n")
        assert run_cli(capsys, "estimate", "--input", str(f))[0] == 2

    def test_ci_bad_level(self, capsys):
        code, _, _ = run_cli(
            capsys, "ci", "--generator", "circle", "--n", "50", "--level", "1.5",
            "--b1", "10", "--b2", "5",
        )
        assert code == 2

    def test_pvalue_small_m_needs_cache(self, capsys):
        code, _, _ = run_cli(capsys, "pvalue", "--generator", "circle", "--n", "50", "--m", "50")
        assert code == 2


_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-5, 5),
    st.sampled_from(["", "x", "1e999", "-0", "nan"]),
).map(str)
_TABLE = st.lists(
    st.tuples(_NUMBER, _NUMBER, st.sampled_from([",", " ", "\t", ", ", ",,"])), max_size=40
).map(lambda rows: "\n".join(f"{a}{sep}{b}" for a, b, sep in rows).encode())


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=300),
        st.text(alphabet="0123456789.,-+eE \n\t#nai", max_size=300).map(str.encode),
        _TABLE,
    )
)
def test_fuzzed_input_file_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "in.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["estimate", "--input", path])
    assert code in (0, 2, 3)


class TestPvalueCommand:
    def test_cache_write_then_reuse(self, capsys, tmp_path):
        cache = tmp_path / "null.json"
        args = (
            "pvalue", "--generator", "gaussian:rho=0.7", "--n", "80",
            "--m", "100", "--seed", "4", "--null-cache", str(cache),
        )
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        first = json.loads(out)
        assert not first["cache_used"]
        assert cache.exists()
        code, out, _ = run_cli(capsys, *args)
        second = json.loads(out)
        assert second["cache_used"]
        assert second["p"] == first["p"]
        assert second["critical"] == first["critical"]

    def test_cache_size_mismatch(self, capsys, tmp_path):
        cache = tmp_path / "null.json"
        base = (
            "pvalue", "--generator", "gaussian:rho=0.7", "--m", "100",
            "--seed", "4", "--null-cache", str(cache),
        )
        assert run_cli(capsys, *base, "--n", "80")[0] == 0
        assert run_cli(capsys, *base, "--n", "81")[0] == 2

    @pytest.mark.parametrize(
        "kind", ["truncated", "header_only", "n_inf", "n_minus_inf", "seed_inf"]
    )
    def test_corrupt_cache_maps_to_2(self, capsys, tmp_path, kind):
        cache = tmp_path / "null.json"
        args = (
            "pvalue", "--generator", "gaussian:rho=0.7", "--n", "80",
            "--m", "100", "--seed", "4", "--null-cache", str(cache),
        )
        assert run_cli(capsys, *args)[0] == 0
        text = cache.read_text()
        if kind == "truncated":
            cache.write_text(text[: len(text) // 2])
        elif kind == "header_only":
            doc = json.loads(text)
            cache.write_text(json.dumps({k: doc[k] for k in ("magic", "format_version")}))
        else:  # JSON reads 1e999 as inf, which int() refuses with OverflowError
            field, value = {
                "n_inf": ("n", "1e999"),
                "n_minus_inf": ("n", "-1e999"),
                "seed_inf": ("seed", "1e999"),
            }[kind]
            cache.write_text(re.sub(rf'"{field}": \d+', f'"{field}": {value}', text, count=1))
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["string", "two_d", "descending", "nan", "above_one", "empty"])
    def test_malformed_draws_map_to_2(self, capsys, tmp_path, kind):
        cache = tmp_path / "null.json"
        args = (
            "pvalue", "--generator", "gaussian:rho=0.7", "--n", "80",
            "--m", "100", "--seed", "4", "--null-cache", str(cache),
        )
        assert run_cli(capsys, *args)[0] == 0
        doc = json.loads(cache.read_text())
        draws = doc["draws"]
        doc["draws"] = {
            "string": "abc",
            "two_d": [draws[:50], draws[50:]],
            "descending": draws[::-1],
            "nan": [float("nan")] * len(draws),
            "above_one": [5.0] * len(draws),
            "empty": [],
        }[kind]
        cache.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_cache_path_is_a_directory(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "pvalue", "--generator", "circle", "--n", "30", "--m", "100",
            "--null-cache", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_cache_in_missing_directory(self, capsys, tmp_path, monkeypatch):
        def must_not_build(*args, **kwargs):
            raise AssertionError("null table built for an unwritable cache path")

        monkeypatch.setattr(inference, "null_table", must_not_build)
        code, out, err = run_cli(
            capsys, "pvalue", "--generator", "circle", "--n", "30", "--m", "100",
            "--null-cache", str(tmp_path / "nodir" / "c.json"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_bad_level_builds_no_table(self, capsys, tmp_path):
        cache = tmp_path / "lvl.json"
        code, out, err = run_cli(
            capsys, "pvalue", "--generator", "circle", "--n", "30", "--m", "100",
            "--level", "1.5", "--null-cache", str(cache),
        )
        assert code == 2
        assert out == ""
        assert "level must lie in (0, 1)" in err
        assert not cache.exists()

    @pytest.mark.parametrize("cached", [False, True])
    def test_matches_significance(self, capsys, tmp_path, cached):
        arr = seabirds()
        f = tmp_path / "seabirds.csv"
        f.write_text("seabirds,fish\n" + "".join(f"{a!r},{b!r}\n" for a, b in arr.tolist()))
        sig = significance(arr, m=200, level=0.9, seed=3)
        want = [sig.estimate.eta, list(sig.estimate.cutoffs), sig.p, sig.critical, sig.table.m]
        argv = ["pvalue", "--input", str(f), "--m", "200", "--level", "0.9", "--seed", "3"]
        if cached:
            argv += ["--null-cache", str(tmp_path / "null.json")]
        for warm in [False, True] if cached else [False]:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            doc = json.loads(out)
            assert doc["cache_used"] is warm
            assert [doc[k] for k in ("eta", "cutoffs", "p", "critical", "m")] == want

    def test_small_table_for_level_writes_no_file(self, capsys, tmp_path):
        cache = tmp_path / "x.json"
        code, out, err = run_cli(
            capsys, "pvalue", "--generator", "circle", "--n", "30", "--m", "100",
            "--level", "0.995", "--null-cache", str(cache),
        )
        assert code == 2
        assert out == ""
        assert "table of 100 draws too small" in err and "Traceback" not in err
        assert not cache.exists()

    def test_table_too_large_to_hold_writes_no_file(self, capsys, tmp_path):
        cache = tmp_path / "x.json"
        code, out, err = run_cli(
            capsys, "pvalue", "--generator", "circle", "--n", "30", "--m", str(10**18),
            "--null-cache", str(cache),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: cannot hold") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_cache_must_match_m_and_seed(self, capsys, tmp_path):
        f = tmp_path / "seabirds.csv"
        f.write_text("seabirds,fish\n" + "".join(f"{a!r},{b!r}\n" for a, b in seabirds().tolist()))
        cache = tmp_path / "null.json"

        def pvalue(m, seed):
            return run_cli(
                capsys, "pvalue", "--input", str(f), "--m", str(m), "--seed", str(seed),
                "--null-cache", str(cache),
            )

        code, cold, _ = pvalue(100, 1)
        assert code == 0
        for m, seed in ((300, 1), (100, 2)):
            code, out, err = pvalue(m, seed)
            assert code == 2
            assert out == ""
            assert f"m=100, seed=1; need m={m}, seed={seed}" in err
        code, warm, _ = pvalue(100, 1)
        assert code == 0
        cold, warm = json.loads(cold), json.loads(warm)
        assert warm.pop("cache_used") is True and cold.pop("cache_used") is False
        assert warm == cold

    def test_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "pvalue", "--generator", "gaussian:rho=0.8", "--n", "100",
            "--m", "100", "--seed", "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "hellcorr/pvalue@1"
        assert doc["m"] == 100
        assert 0.0 < doc["p"] <= 1.0
        assert doc["p"] == pytest.approx(1 / 101, abs=1e-12)


class TestCiCommand:
    def test_fields_and_determinism(self, capsys):
        args = (
            "ci", "--generator", "gaussian:rho=0.6", "--n", "60",
            "--b1", "40", "--b2", "8", "--seed", "6",
        )
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "hellcorr/ci@1"
        assert 0.0 <= doc["lower"] <= doc["upper"] <= 1.0
        assert doc["b1"] == 40 and doc["b2"] == 8
        _, again, _ = run_cli(capsys, *args)
        assert json.loads(again) == doc

    def test_estimate_fields_equal_estimate_command(self, capsys):
        data = ("--generator", "gaussian:rho=0.6", "--n", "60", "--seed", "6")
        _, out, _ = run_cli(capsys, "ci", *data, "--b1", "20", "--b2", "4")
        _, est, _ = run_cli(capsys, "estimate", *data)
        ci_doc, est_doc = json.loads(out), json.loads(est)
        assert {k: ci_doc[k] for k in est_doc if k != "schema"} == {
            k: v for k, v in est_doc.items() if k != "schema"
        }

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_2(self, capsys, threads):
        code, out, err = run_cli(
            capsys, "ci", "--generator", "gaussian:rho=0.6", "--n", "60",
            "--b1", "20", "--b2", "5", "--threads", threads,
        )
        assert code == 2
        assert out == ""
        assert "threads must be an integer of at least 1" in err and "Traceback" not in err


    @pytest.mark.filterwarnings("ignore:dropped 3 of 20")
    @pytest.mark.parametrize(
        "flat, message",
        [
            ({"se0"}, "inner resampling scale of the original sample is zero"),
            ({0, 7, 19}, "3 of 20 outer replicates had zero inner scale"),
        ],
        ids=["se0", "outer"],
    )
    def test_bootstrap_refusal_exits_3(self, capsys, flat_inner_layers, flat, message):
        flat_inner_layers(5, flat)
        code, out, err = run_cli(
            capsys, "ci", "--generator", "gaussian:rho=0.6", "--n", "30",
            "--b1", "20", "--b2", "5",
        )
        assert code == 3 and out == ""
        assert err == f"error: {message}\n"


class TestReproduceCommand:
    def test_table1_desk(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "table1", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "hellcorr/reproduce@1"
        assert doc["scale"] == "desk"
        assert [r["rho"] for r in doc["rows"]] == [0.4, 0.8]
        assert all(r["replicates"] == 200 for r in doc["rows"])
        assert doc["all_pass"]

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "reproduce", "table1", "--seed", "7", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert "bias" in lines[0].split(",")


    def test_threads_reach_the_null_tables(self, capsys, monkeypatch):
        class Built(Exception):
            pass

        seen = []

        def record(*args, **kwargs):
            seen.append(kwargs.get("threads"))
            raise Built

        monkeypatch.setattr(reproduce, "null_table", record)
        for suite in ("table2", "figure2", "figure3"):
            with pytest.raises(Built):
                cli.main(["reproduce", suite, "--threads", "3"])
        assert seen == [3, 3, 3]


class TestExitCodes:
    def test_diagnostics_failure_maps_to_3(self, capsys, monkeypatch):
        def boom(args):
            raise DiagnosticsError("resampling scale collapsed")

        monkeypatch.setattr(cli, "cmd_ci", boom)
        code, _, err = run_cli(
            capsys, "ci", "--generator", "circle", "--n", "50", "--b1", "10", "--b2", "5"
        )
        assert code == 3
        assert "resampling scale collapsed" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--generator", "circle", "--n", "30"],
            ["pvalue", "--generator", "circle", "--n", "30", "--m", "100"],
            ["ci", "--generator", "circle", "--n", "30", "--b1", "10", "--b2", "5"],
            ["reproduce", "table1"],
        ],
        ids=["estimate", "pvalue", "ci", "reproduce"],
    )
    def test_threads_below_one_refused_before_any_work(self, capsys, monkeypatch, argv):
        ran = []
        for name in ("cmd_estimate", "cmd_pvalue", "cmd_ci", "cmd_reproduce"):
            monkeypatch.setattr(cli, name, ran.append)
        code, out, err = run_cli(capsys, *argv, "--threads", "0")
        assert code == 2 and out == "" and ran == []
        assert err.startswith("error:") and "--threads" in err and "Traceback" not in err

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hellcorr", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1.0.0"


class TestRepeatedCalls:
    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--generator", "circle", "--n", "30"],
            ["pvalue", "--generator", "circle", "--n", "30", "--m", "100"],
            ["ci", "--generator", "circle", "--n", "30", "--b1", "10", "--b2", "5"],
        ],
        ids=["estimate", "pvalue", "ci"],
    )
    def test_repeated_calls_leave_no_cyclic_garbage(self, capsys, argv):
        # one argparse parser is about 350 objects in reference cycles
        for _ in range(2):
            assert run_cli(capsys, *argv)[0] == 0
        gc.collect()
        gc.disable()
        try:
            assert run_cli(capsys, *argv)[0] == 0
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage < 30
