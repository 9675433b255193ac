import pytest

from ocokit import cli


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
    ])
    def test_invalid_config_value_is_usage_error(self, tmp_path, capsys, learner, bound, line):
        cfg = write_config(tmp_path, f"learner = {learner}\nstream = random-linear\n"
                                     f"bound = {bound}\nT = 10\nn = 2\n{line}\n")
        code, out, err = run_cli(["run", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("ocokit: ")

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

    def test_invalid_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "learners = ftrl-l1, md-l1\nstream = random-linear\n"
                                     "T = 10\nn = 2\nlambda = -0.1\n")
        code, out, err = run_cli(["compare", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err == "ocokit: penalty weight must be >= 0, got -0.1\n"


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


class TestVerify:
    def test_known_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "l1-example"], capsys)
        assert code == 0
        assert "PASS" in out

    def test_oracle_certification_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "oracle-closed-form"], capsys)
        assert code == 0
        assert out.count("PASS") >= 8

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run_cli(["verify", "no-such-suite"], capsys)
        assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2
