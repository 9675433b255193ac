import gc
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ocokit import cli
from ocokit.core import FeasibleSet
from ocokit.driver import run_rounds


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


RUN_CFG = """
learner = dual-averaging
stream = random-linear
bound = da-closed-form
T = 25
seed = 3
n = 3
R = 1.0
G = 1.0
"""


def write_short_data(tmp_path):
    """A two-example svmlight file with two features."""
    path = tmp_path / "short.svm"
    path.write_text("1 1:0.5 2:-1\n-1 2:0.25\n")
    return str(path)


def write_far_index_data(tmp_path):
    """An svmlight file whose second line has index 10^15, too large to densify."""
    path = tmp_path / "far.svm"
    path.write_text("1 1:0.5 2:-1\n-1 1000000000000000:1.0\n")
    return str(path)


FAR_INDEX_ERR = "ocokit: feature index 1000000000000000 exceeds dimension 2 (line 2)\n"


def write_huge_gradient_data(tmp_path):
    """Three examples; the first one's gradient, about 5e199, exceeds AdaGrad's 2^511 limit."""
    path = tmp_path / "huge.svm"
    path.write_text("1 1:1e200\n0 2:1\n1 1:3\n")
    return str(path)


def write_non_utf8_config(tmp_path, text):
    """``text`` and then a comment with a Latin-1 byte, which is not UTF-8."""
    path = tmp_path / "latin1.cfg"
    path.write_bytes(text.encode() + b"# caf\xe9\n")
    return str(path)


def assert_one_line_usage_error(code, out, err, starts="ocokit: "):
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(starts)


SQ_SUM_ERR = "ocokit: squared-gradient sums need |g_i| < 2^511"
TINY_RATE_ERR = "ocokit: constant rate requires eta >= 2^-511 (about 1.5e-154), got 1e-320\n"

# a stream and a bound each CLI learner runs with
LEARNER_RUNS = {
    "dual-averaging": ("random-linear", "da-closed-form"),
    "constant-ogd": ("random-linear", "non-adaptive"),
    "ftrl-proximal": ("random-linear", "ftrl-proximal"),
    "adagrad-ftrl-proximal": ("random-linear-sup", "adagrad-per-coord"),
    "ftrl-l1": ("random-linear", "composite"),
    "md-l1": ("random-linear", "mirror-descent"),
    "entropic": ("random-linear-sup", "entropic"),
    "ogd-strongly-convex": ("strongly-convex", "strongly-convex-log"),
}


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_emits_header_and_rows_and_succeeds(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUN_CFG)
        code, out, err = run_cli(["run", "--config", cfg], capsys)
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "round,loss,comp_loss,cum_regret,bound,decomposition"
        assert len(lines) == 26
        # regret never exceeds the bound on any row
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[3]) <= float(fields[4]) + 1e-9

    def test_output_is_byte_deterministic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUN_CFG)
        _, out1, _ = run_cli(["run", "--config", cfg], capsys)
        _, out2, _ = run_cli(["run", "--config", cfg], capsys)
        assert out1 == out2

    def test_seed_flag_changes_the_stream(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUN_CFG)
        _, out1, _ = run_cli(["run", "--config", cfg], capsys)
        _, out2, _ = run_cli(["run", "--config", cfg, "--seed", "99"], capsys)
        assert out1 != out2

    def test_zero_rounds_emits_header_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUN_CFG.replace("T = 25", "T = 0"))
        code, out, _ = run_cli(["run", "--config", cfg], capsys)
        assert code == 0
        assert out.strip() == "round,loss,comp_loss,cum_regret,bound,decomposition"

    def test_out_flag_writes_a_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUN_CFG)
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(["run", "--config", cfg, "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("round,loss")

    def test_bound_violation_names_the_first_failing_round(self, tmp_path, capsys, monkeypatch):
        real_run_rounds = cli.run_rounds

        def crossing(*args, **kwargs):
            result = real_run_rounds(*args, **kwargs)
            rec = result.record
            rec.bound = rec.cum_regret + 1.0
            rec.bound[6:] = rec.cum_regret[6:] - 0.25  # rows 7 on exceed it by 0.25
            result.bound_ok = False
            return result

        cfg = write_config(tmp_path, RUN_CFG)
        _, clean_out, clean_err = run_cli(["run", "--config", cfg], capsys)
        monkeypatch.setattr(cli, "run_rounds", crossing)
        code, out, err = run_cli(["run", "--config", cfg], capsys)
        assert clean_err == ""
        assert code == 1
        assert err.count("\n") == 1
        assert "first at round 7, by 0.25 (" in err
        # stdout is still the CSV, with only the bound column changed
        strip_bound = [line.split(",")[:4] + line.split(",")[5:] for line in out.splitlines()]
        assert strip_bound == [line.split(",")[:4] + line.split(",")[5:]
                               for line in clean_out.splitlines()]

    def test_mismatched_learner_bound_pairing_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUN_CFG.replace("da-closed-form", "prox-closed-form"))
        code, _, err = run_cli(["run", "--config", cfg], capsys)
        assert code == 2
        assert "does not certify" in err

    @pytest.mark.parametrize("key,bad", [
        ("learner = dual-averaging", "learner = nonexistent"),
        ("stream = random-linear", "stream = nonexistent"),
        ("bound = da-closed-form", "bound = nonexistent"),
    ])
    def test_unknown_names_are_usage_errors(self, tmp_path, capsys, key, bad):
        cfg = write_config(tmp_path, RUN_CFG.replace(key, bad))
        code, _, err = run_cli(["run", "--config", cfg], capsys)
        assert code == 2
        assert "unknown" in err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUN_CFG + "\nbogus = 3\n")
        code, _, err = run_cli(["run", "--config", cfg], capsys)
        assert code == 2

    def test_missing_config_file_is_usage_error(self, capsys):
        code, _, err = run_cli(["run", "--config", "/nonexistent/x.cfg"], capsys)
        assert code == 2

    @pytest.mark.parametrize("learner,bound,line", [
        ("ftrl-l1", "composite", "lambda = -0.1"),
        ("md-l1", "mirror-descent", "lambda = -0.1"),
        ("constant-ogd", "non-adaptive", "eta = -1"),
        ("dual-averaging", "da-closed-form", "R = -1"),
        # eta = 0 is a rate, not a missing one: the default schedule must not replace it
        ("dual-averaging", "da-closed-form", "eta = 0"),
        ("ftrl-proximal", "prox-closed-form", "eta = 0"),
        # the learner's own check: the simplex needs two coordinates
        ("entropic", "entropic", "n = 1"),
    ])
    def test_invalid_config_value_is_usage_error(self, tmp_path, capsys, learner, bound, line):
        cfg = write_config(tmp_path, f"learner = {learner}\nstream = random-linear\n"
                                     f"bound = {bound}\nT = 10\nn = 2\n{line}\n")
        code, out, err = run_cli(["run", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("ocokit: ")

    # 1/eta would overflow to inf, and so would every bound and decomposition row
    @pytest.mark.parametrize("learner,bound", [("constant-ogd", "non-adaptive"),
                                               ("dual-averaging", "general-ftrl")])
    def test_a_rate_below_2_minus_511_is_usage_error(self, tmp_path, capsys, learner, bound):
        cfg = write_config(tmp_path, f"learner = {learner}\nstream = random-linear\n"
                                     f"bound = {bound}\nT = 3\nn = 2\neta = 1e-320\n")
        code, out, err = run_cli(["run", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", TINY_RATE_ERR)

    # sizes that fail at once, 10^13 floats being 80 TB; n is allocated by the
    # learner, T by the run
    @pytest.mark.parametrize("lines", ["n = 10000000000000\nT = 5",
                                       "n = 2\nT = 10000000000000"])
    def test_a_size_too_large_to_allocate_is_usage_error(self, tmp_path, capsys, lines):
        cfg = write_config(tmp_path, "learner = dual-averaging\nstream = random-linear\n"
                                     f"bound = da-closed-form\n{lines}\n")
        assert_one_line_usage_error(*run_cli(["run", "--config", cfg], capsys),
                                    "ocokit: Unable to allocate")

    @pytest.mark.parametrize("learner,bound,lines", [
        ("constant-ogd", "non-adaptive", "T = 0"),
        ("ftrl-l1", "composite", "T = 0"),
        ("constant-ogd", "non-adaptive", "T = 10\nG = 0"),
        ("dual-averaging", "da-closed-form", "T = 10\nG = 0"),
        ("ftrl-proximal", "prox-closed-form", "T = 10\nG = 0"),
    ])
    def test_undefined_default_rate_is_usage_error(self, tmp_path, capsys, learner, bound, lines):
        cfg = write_config(tmp_path, f"learner = {learner}\nstream = random-linear\n"
                                     f"bound = {bound}\nn = 2\n{lines}\n")
        code, out, err = run_cli(["run", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("ocokit: ")
        assert "undefined" in err

    def test_undefined_default_rate_exits_without_traceback(self, tmp_path):
        cfg = write_config(tmp_path, "learner = dual-averaging\nstream = random-linear\n"
                                     "bound = da-closed-form\nT = 10\nn = 2\nG = 0\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "ocokit.cli", "run", "--config", cfg],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "ocokit: G = 0 leaves the default learning rate undefined (set G or eta)"]

    def test_negative_rounds_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUN_CFG.replace("T = 25", "T = -3"))
        code, out, err = run_cli(["run", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", "ocokit: T must be >= 0\n")

    def test_data_file_shorter_than_the_horizon_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "learner = adagrad-ftrl-proximal\nstream = logistic\n"
                                     "bound = ftrl-proximal\nT = 5\nn = 2\n"
                                     f"data = {write_short_data(tmp_path)}\n")
        code, out, err = run_cli(["run", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", "ocokit: data has 2 examples but T = 5\n")

    def test_data_index_past_n_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "learner = adagrad-ftrl-proximal\nstream = logistic\n"
                                     "bound = ftrl-proximal\nT = 2\nn = 2\n"
                                     f"data = {write_far_index_data(tmp_path)}\n")
        code, out, err = run_cli(["run", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", FAR_INDEX_ERR)

    @pytest.mark.parametrize("bound", ["entropic", "general-ftrl"])
    def test_entropic_on_the_strongly_convex_stream_is_usage_error(self, tmp_path, capsys, bound):
        # the stream's x* is the mean center, off the simplex: regret against it is no
        # regret of the simplex learner (at these seeds it exceeded the entropic bound)
        cfg = write_config(tmp_path, "learner = entropic\nstream = strongly-convex\n"
                                     f"bound = {bound}\nT = 30\nn = 2\n")
        for seed in ("1", "2", "3"):
            code, out, err = run_cli(["run", "--config", cfg, "--seed", seed], capsys)
            assert (code, out, err) == (
                2, "", "ocokit: learner 'entropic' cannot run on stream 'strongly-convex': "
                       "its comparator, the mean center, is not on the simplex\n")

    def test_a_rejected_gradient_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "learner = adagrad-ftrl-proximal\nstream = logistic\n"
                                     "bound = ftrl-proximal\nT = 3\nn = 2\n"
                                     f"data = {write_huge_gradient_data(tmp_path)}\n")
        assert_one_line_usage_error(*run_cli(["run", "--config", cfg], capsys), SQ_SUM_ERR)

    @pytest.mark.parametrize("radius", ["inf", "nan"])
    def test_a_strongly_convex_center_radius_that_is_not_finite_is_usage_error(
            self, tmp_path, capsys, radius):
        cfg = write_config(tmp_path, "learner = adagrad-ftrl-proximal\nstream = strongly-convex\n"
                                     f"bound = ftrl-proximal\nT = 3\nn = 2\nR = {radius}\n")
        code, out, err = run_cli(["run", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", f"ocokit: center radius must be > 0, got {radius}\n")

    def test_data_with_a_non_ascii_decimal_numeral_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "underscore.svm"
        path.write_text("1 1_0:5\n0 3:1_0\n")
        cfg = write_config(tmp_path, "learner = adagrad-ftrl-proximal\nstream = logistic\n"
                                     f"bound = ftrl-proximal\nT = 2\nn = 10\ndata = {path}\n")
        code, out, err = run_cli(["run", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", "ocokit: malformed feature token '1_0:5' "
                                           "(line 1, col 3)\n")

    def test_data_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.svm"
        path.write_bytes(b"1 1:0.5 2:-1 # caf\xe9\n-1 2:0.25\n")
        cfg = write_config(tmp_path, "learner = adagrad-ftrl-proximal\nstream = logistic\n"
                                     f"bound = ftrl-proximal\nT = 2\nn = 2\ndata = {path}\n")
        assert_one_line_usage_error(*run_cli(["run", "--config", cfg], capsys),
                                    "ocokit: cannot read data file: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("radius", ["-1", "0", "inf", "nan"])
    def test_a_comparator_radius_that_is_not_positive_and_finite_is_usage_error(
            self, tmp_path, capsys, radius):
        cfg = write_config(tmp_path, "learner = dual-averaging\nstream = random-linear\n"
                                     "bound = general-ftrl\nT = 3\nn = 2\neta = 0.5\n"
                                     f"R = {radius}\n")
        assert_one_line_usage_error(*run_cli(["run", "--config", cfg], capsys),
                                    "ocokit: l2-ball requires a strictly positive radius")

    @pytest.mark.parametrize("learner", list(LEARNER_RUNS))
    def test_a_bound_constant_at_or_past_2_511_is_usage_error(self, tmp_path, capsys, learner):
        stream, bound = LEARNER_RUNS[learner]
        for key in ("R", "R_inf", "G", "G_inf"):
            for value in ("1e100", "1e154", "1e200", "1e300"):
                cfg = write_config(tmp_path, f"learner = {learner}\nstream = {stream}\n"
                                             f"bound = {bound}\nT = 5\nn = 2\nseed = 4\n"
                                             f"lambda = 0.1\n{key} = {value}\n")
                code, out, err = run_cli(["run", "--config", cfg], capsys)
                assert "nan" not in out + err, (key, value)
                if value == "1e100":  # below the limit every such run succeeds
                    assert (code, err) == (0, ""), (key, value)
                else:
                    assert_one_line_usage_error(code, out, err)

    @pytest.mark.parametrize("learner,stream,bound,n", [
        ("ftrl-proximal", "random-linear", "ftrl-proximal", 1),  # was a nan bound, exit 1
        ("ogd-strongly-convex", "strongly-convex", "strongly-convex-log", 2),  # OverflowError
    ])
    def test_a_huge_radius_names_the_constant(self, tmp_path, capsys, learner, stream, bound, n):
        cfg = write_config(tmp_path, f"learner = {learner}\nstream = {stream}\nbound = {bound}\n"
                                     f"T = 5\nn = {n}\nseed = 4\nR = 1e200\n")
        code, out, err = run_cli(["run", "--config", cfg], capsys)
        assert (code, out, err) == (
            2, "", "ocokit: R = 1e+200 must be below 2^511 (about 6.7e153)\n")

    @pytest.mark.parametrize("learner", list(LEARNER_RUNS))
    def test_a_huge_constant_is_named_before_the_learner_builds(self, tmp_path, capsys, learner):
        # building first named what the learner derives from it: entropic's rate
        # "offset" for G_inf, a rate "scale" or "eta" below 2^-511 for G
        stream, bound = LEARNER_RUNS[learner]
        for key in ("R", "R_inf", "G", "G_inf"):
            cfg = write_config(tmp_path, f"learner = {learner}\nstream = {stream}\n"
                                         f"bound = {bound}\nT = 5\nn = 2\n{key} = 1e200\n")
            assert run_cli(["run", "--config", cfg], capsys) == (
                2, "", f"ocokit: {key} = 1e+200 must be below 2^511 (about 6.7e153)\n")

    def test_a_derived_gradient_cap_past_2_511_is_usage_error(self, tmp_path, capsys):
        # R is below the limit, but the strongly convex stream's gradient cap 2R is not
        cfg = write_config(tmp_path, "learner = ogd-strongly-convex\nstream = strongly-convex\n"
                                     "bound = strongly-convex-log\nT = 5\nn = 2\nR = 4e153\n")
        code, out, err = run_cli(["run", "--config", cfg], capsys)
        assert (code, out, err) == (
            2, "", "ocokit: G = 2R = 8e+153 must be below 2^511 (about 6.7e153)\n")

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_an_unwritable_out_is_usage_error(self, tmp_path, capsys, where):
        out = tmp_path / "no-such-dir" / "rows.csv"
        text = RUN_CFG + (f"out = {out}\n" if where == "config" else "")
        argv = ["run", "--config", write_config(tmp_path, text)]
        argv += ["--out", str(out)] if where == "flag" else []
        assert_one_line_usage_error(*run_cli(argv, capsys))

    def test_a_config_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        cfg = write_non_utf8_config(tmp_path, RUN_CFG)
        assert_one_line_usage_error(*run_cli(["run", "--config", cfg], capsys),
                                    "ocokit: cannot read config: 'utf-8' codec can't decode")

    def test_parse_config_closes_its_file(self, tmp_path):
        cfg = write_config(tmp_path, RUN_CFG)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.parse_config(cfg)["learner"] == "dual-averaging"
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_adversary_run_with_mirror_descent(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
learner = md-l1
stream = l1-adversary
bound = mirror-descent
T = 16
n = 1
G = 11
R = 22
lambda = 0.5
eta = 0.5
""")
        code, out, _ = run_cli(["run", "--config", cfg], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 17

    @pytest.mark.parametrize("learner,bound", [("constant-ogd", "non-adaptive"),
                                               ("ftrl-l1", "composite"),
                                               ("md-l1", "mirror-descent")])
    def test_one_config_dict_built_at_two_horizons_gets_each_horizon_rate(self, learner,
                                                                          bound):
        # eta = R / (G sqrt(T)): 0.25 at T = 16 and 0.125 at T = 64, the dict unchanged
        cfg = dict(cli._DEFAULTS, learner=learner, stream="random-linear", bound=bound, T=16)
        given = dict(cfg)
        built, _, _, bc, _ = cli.build_run(cfg)
        assert cfg == given
        assert bc.eta == built.schedule.eta == 0.25
        cfg["T"] = 64
        built, _, _, bc, _ = cli.build_run(cfg)
        assert bc.eta == built.schedule.eta == 0.125
        assert "eta" not in cfg


@pytest.mark.parametrize("stream", cli.STREAMS)
def test_the_builders_leave_the_config_unchanged(stream, tmp_path):
    # compare hands one config dict to every learner's builders
    data = tmp_path / "rows.svm"
    data.write_text("".join(f"{(-1) ** k} 1:0.5 2:-0.25\n" for k in range(8)))
    cfg = dict(cli._DEFAULTS, stream=stream, T=8, n=1 if stream == "l1-adversary" else 3)
    if stream == "logistic":
        cfg["data"] = str(data)
    given = dict(cfg)
    for learner in cli.LEARNERS:
        if cfg["n"] > 1 or learner != "entropic":  # the simplex needs n >= 2
            cli.build_learner(learner, cfg)
        cli.build_stream(cfg)
        assert cfg == given, learner


class TestCompare:
    def test_side_by_side_with_nonzeros(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
learners = ftrl-l1, md-l1
stream = logistic
T = 60
seed = 5
n = 12
lambda = 0.05
eta = 0.1
""")
        code, out, _ = run_cli(["compare", "--config", cfg], capsys)
        lines = out.strip().splitlines()
        assert code == 0
        header = lines[0].split(",")
        assert header == ["round",
                          "loss_ftrl-l1", "cum_loss_ftrl-l1", "nonzeros_ftrl-l1",
                          "loss_md-l1", "cum_loss_md-l1", "nonzeros_md-l1"]
        assert len(lines) == 61
        last = lines[-1].split(",")
        assert int(last[3]) <= 12 and int(last[6]) <= 12

    @pytest.mark.parametrize("stream", cli.STREAMS)
    def test_columns_are_run_rounds_losses_and_iterates_bit_for_bit(
            self, tmp_path, capsys, monkeypatch, stream):
        n, T = (1 if stream == "l1-adversary" else 3), 30
        names = [name for name in cli.LEARNERS if n >= 2 or name != "entropic"]
        cfg = write_config(tmp_path, f"learners = {', '.join(names)}\nstream = {stream}\n"
                                     f"T = {T}\nn = {n}\nseed = 4\nlambda = 0.1\nG = 2\n")
        played, losses = [], []
        real_play, real_loss_column = cli._play, cli.loss_column
        monkeypatch.setattr(cli, "_play", lambda *a: played.append(real_play(*a)) or played[-1])
        monkeypatch.setattr(cli, "loss_column",
                            lambda *a: losses.append(real_loss_column(*a)) or losses[-1])
        code, out, _ = run_cli(["compare", "--config", cfg], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        parsed = cli.parse_config(cfg)
        for k, name in enumerate(names):
            learner = cli.build_learner(name, dict(parsed))
            ball = FeasibleSet.l2_ball(parsed["R"]) \
                if learner.feasible_set.kind == FeasibleSet.UNCONSTRAINED else None
            result = run_rounds(learner, cli.build_stream(dict(parsed)), T, comparator_set=ball)
            points = played[k].points
            assert points[:T].tobytes() == result.trace.iterates.tobytes(), name
            assert points[T].tobytes() == result.x_final.tobytes(), name
            assert losses[k].tobytes() == result.record.loss.tobytes(), name
            assert [row[1 + 3 * k] for row in rows] == [cli._fmt(v) for v in result.record.loss]
            nonzeros = [*np.count_nonzero(result.trace.iterates[1:], axis=1),
                        np.count_nonzero(result.x_final)]
            assert [int(row[3 + 3 * k]) for row in rows] == nonzeros, name

    def test_a_rejected_gradient_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "learners = adagrad-ftrl-proximal, ftrl-l1\n"
                                     "stream = logistic\nT = 3\nn = 2\n"
                                     f"data = {write_huge_gradient_data(tmp_path)}\n")
        assert_one_line_usage_error(*run_cli(["compare", "--config", cfg], capsys), SQ_SUM_ERR)

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_an_unwritable_out_is_usage_error(self, tmp_path, capsys, where):
        out = tmp_path / "no-such-dir" / "rows.csv"
        text = "learners = ftrl-l1, md-l1\nstream = random-linear\nT = 3\nn = 2\n"
        text += f"out = {out}\n" if where == "config" else ""
        argv = ["compare", "--config", write_config(tmp_path, text)]
        argv += ["--out", str(out)] if where == "flag" else []
        assert_one_line_usage_error(*run_cli(argv, capsys))

    def test_a_config_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        cfg = write_non_utf8_config(tmp_path, "learners = ftrl-l1, md-l1\n"
                                              "stream = random-linear\nT = 3\nn = 2\n")
        assert_one_line_usage_error(*run_cli(["compare", "--config", cfg], capsys),
                                    "ocokit: cannot read config: 'utf-8' codec can't decode")

    def test_single_learner_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
learners = ftrl-l1
stream = logistic
T = 5
n = 4
eta = 0.1
""")
        code, _, err = run_cli(["compare", "--config", cfg], capsys)
        assert code == 2

    @pytest.mark.parametrize("learners", ["md-l1, md-l1", "ftrl-l1, md-l1 , ftrl-l1"])
    def test_a_learner_named_twice_is_usage_error(self, tmp_path, capsys, learners):
        # its three CSV columns would appear twice under one name
        cfg = write_config(tmp_path, f"learners = {learners}\nstream = random-linear\n"
                                     "T = 5\nn = 2\nlambda = 0.1\n")
        name = learners.split(",")[0]
        assert run_cli(["compare", "--config", cfg], capsys) == (
            2, "", f"ocokit: compare lists learner {name!r} more than once\n")

    def test_invalid_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "learners = ftrl-l1, md-l1\nstream = random-linear\n"
                                     "T = 10\nn = 2\nlambda = -0.1\n")
        code, out, err = run_cli(["compare", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err == "ocokit: penalty weight must be >= 0, got -0.1\n"

    def test_a_zero_rate_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "learners = dual-averaging, ftrl-proximal\n"
                                     "stream = random-linear\nT = 10\nn = 2\neta = 0\n")
        code, out, err = run_cli(["compare", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err == "ocokit: constant rate requires eta > 0, got 0.0\n"

    def test_a_rate_below_2_minus_511_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "learners = dual-averaging, constant-ogd\n"
                                     "stream = random-linear\nT = 3\nn = 2\neta = 1e-320\n")
        code, out, err = run_cli(["compare", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", TINY_RATE_ERR)

    def test_a_size_too_large_to_allocate_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "learners = dual-averaging, ftrl-l1\n"
                                     "stream = random-linear\nT = 5\nn = 10000000000000\n")
        assert_one_line_usage_error(*run_cli(["compare", "--config", cfg], capsys),
                                    "ocokit: Unable to allocate")


    @pytest.mark.parametrize("learners", ["adagrad-ftrl-proximal, dual-averaging",
                                          "ftrl-l1, md-l1"])
    def test_negative_rounds_is_usage_error(self, tmp_path, capsys, learners):
        cfg = write_config(tmp_path, f"learners = {learners}\nstream = random-linear\n"
                                     "T = -3\nn = 2\n")
        code, out, err = run_cli(["compare", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", "ocokit: T must be >= 0\n")

    def test_zero_rounds_emits_header_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "learners = ftrl-l1, md-l1\nstream = random-linear\n"
                                     "T = 0\nn = 2\neta = 0.1\n")
        code, out, _ = run_cli(["compare", "--config", cfg], capsys)
        assert code == 0
        assert out == ("round,loss_ftrl-l1,cum_loss_ftrl-l1,nonzeros_ftrl-l1,"
                       "loss_md-l1,cum_loss_md-l1,nonzeros_md-l1\n")

    def test_data_file_shorter_than_the_horizon_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "learners = ftrl-l1, md-l1\nstream = logistic\n"
                                     "T = 5\nn = 2\neta = 0.1\n"
                                     f"data = {write_short_data(tmp_path)}\n")
        code, out, err = run_cli(["compare", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", "ocokit: data has 2 examples but T = 5\n")

    def test_data_index_past_n_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "learners = ftrl-l1, md-l1\nstream = logistic\n"
                                     "T = 2\nn = 2\neta = 0.1\n"
                                     f"data = {write_far_index_data(tmp_path)}\n")
        code, out, err = run_cli(["compare", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", FAR_INDEX_ERR)

    def test_data_file_as_long_as_the_horizon_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "learners = ftrl-l1, md-l1\nstream = logistic\n"
                                     "T = 2\nn = 3\neta = 0.1\n"
                                     f"data = {write_short_data(tmp_path)}\n")
        code, out, _ = run_cli(["compare", "--config", cfg], capsys)
        assert code == 0
        assert len(out.splitlines()) == 3


class TestReproL1:
    def test_rows_and_exact_values(self, capsys):
        code, out, _ = run_cli(["repro-l1"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x_md,x_ftrl"
        assert len(lines) == 17
        rows = [line.split(",") for line in lines[1:]]
        assert rows[1] == ["2", "2.625", "2.625"]
        assert rows[2][1] == "-2.625"
        for row in rows:
            if int(row[0]) >= 13:
                assert row[2] == "0"

    def test_an_unwritable_out_is_usage_error(self, tmp_path, capsys):
        # a directory cannot be opened for writing
        assert_one_line_usage_error(*run_cli(["repro-l1", "--out", str(tmp_path)], capsys))


class TestVerify:
    def test_known_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "l1-example"], capsys)
        assert code == 0
        assert "PASS" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run_cli(["verify", "no-such-suite"], capsys)
        assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2
