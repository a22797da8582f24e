import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import planecones
from planecones import cli, cone, exceptional
from planecones.cli import main
from planecones.errors import ConsistencyError, DescentError, DomainError
from planecones.exceptional import delta_curve
from planecones.qarith import parse_rational

F = Fraction

# the most fractional digits QuadraticNumber.decimal can print: Python's
# int-to-string limit, which is absent (0) before Python 3.10.7
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(INT_DIGITS == 0, reason="no int-to-string digit limit")
TOO_MANY_DIGITS = str(INT_DIGITS + 1)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConeCommand:
    def test_golden_report(self, capsys):
        code, out, _ = run(capsys, "cone", "--rmd", "3,2/3,17/9")
        assert code == 0
        data = json.loads(out)
        assert data["dimension"] == 26
        assert data["classification"]["kind"] == "PICARD_RANK_2"
        assert data["mu0"]["plus"] == "(-13/6 + 1/6*sqrt(181))"
        assert data["mu0"]["minus"] == "(-13/6 + -1/6*sqrt(181))"
        primary = data["primary"]
        assert primary["invariants"]["mu"] == "1"
        assert primary["invariants"]["delta"] == "3"
        assert primary["invariants"]["corresponding_slope"]["slope"] == "0"
        assert primary["resolution"]["multiplicities"] == [4, 6, 1]
        assert primary["kronecker"] == {
            "N": 3,
            "dim_vector": [4, 6],
            "expected_dimension": 21,
            "fibration": "POSITIVE_DIM_FIBERS",
        }
        assert primary["wall"]["center_s"] == "-5/2"
        secondary = data["secondary"]
        assert secondary["mu"] == "-22/5"
        assert secondary["delta"] == "12/25"
        assert secondary["serre_dual_pipeline"]["resolution"]["multiplicities"] == [1, 2]
        assert secondary["serre_dual_pipeline"]["kronecker"]["N"] == 15

    def test_chern_input_agrees(self, capsys):
        _, by_rmd, _ = run(capsys, "cone", "--rmd", "3,2/3,17/9")
        _, by_chern, _ = run(capsys, "cone", "--chern", "3,2,-5")
        assert by_rmd == by_chern

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "cone", "--rmd", "3,2/3,17/9", "--approx", "6")
        _, second, _ = run(capsys, "cone", "--rmd", "3,2/3,17/9", "--approx", "6")
        assert first == second

    def test_classification_only_exit_code(self, capsys):
        code, out, _ = run(capsys, "cone", "--rmd", "1,0,1")
        assert code == 4
        assert json.loads(out)["classification"]["kind"] == "HEIGHT_ZERO"

    def test_invalid_character_exit_code(self, capsys):
        code, out, _ = run(capsys, "cone", "--chern", "1,0,1/3")
        assert code == 1
        assert json.loads(out)["classification"]["kind"] == "INVALID"

    def test_unparseable_input_exit_code(self, capsys):
        code, _, err = run(capsys, "cone", "--rmd", "3,2/3")
        assert code == 1
        assert "error" in err

    def test_approx_fields_labeled(self, capsys):
        _, out, _ = run(capsys, "cone", "--rmd", "3,2/3,17/9", "--approx", "4")
        data = json.loads(out)
        assert data["mu0"]["approx_plus"] == "0.0756"


    @needs_digit_limit
    def test_huge_exponent_is_a_quick_one_line_error(self, capsys):
        # 10^100000000 would take minutes to build: the exponent is read off first
        start = time.perf_counter()
        code, out, err = run(capsys, "cone", "--chern", "1e100000000,0,0")
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == "" and err.count("\n") == 1
        assert f"limit of {INT_DIGITS:,} for reading" in err

    def test_huge_square_radicand(self, capsys):
        # 5 + 8 delta = 5 (10^30 + 1)^2: mu0+ has a 31-digit coefficient on sqrt(5)
        ch2 = -625 * 10 ** 57 - 1250 * 10 ** 27
        start = time.perf_counter()
        code, out, err = run(capsys, "cone", "--chern", f"1,0,{ch2}")
        assert time.perf_counter() - start < 2.0
        assert code == 0 and not err
        data = json.loads(out)
        assert data["classification"]["kind"] == "PICARD_RANK_2"
        assert data["mu0"]["plus"] == f"(-3/2 + {F(10 ** 30 + 1, 2)}*sqrt(5))"
        # mu0+ = 1118033988749894848204586834365.2561..., within (3 - sqrt 5)/2 of that integer
        gamma = data["primary"]["invariants"]["corresponding_slope"]
        assert (gamma["slope"], gamma["order"]) == ("1118033988749894848204586834365", 0)


@pytest.mark.parametrize("command", ["cone", "classify"])
def test_a_character_is_required(capsys, command):
    code, out, err = run(capsys, command)
    assert code == 1 and out == ""
    assert err == "error: provide --chern r,c1,ch2 or --rmd r,mu,delta\n"


class TestClassifyCommand:
    def test_exceptional(self, capsys):
        code, out, _ = run(capsys, "classify", "--rmd", "5,2/5,12/25")
        assert code == 0
        assert json.loads(out)["classification"]["kind"] == "EXCEPTIONAL"

    def test_above_the_curve_needs_no_descent_budget(self, capsys):
        # delta = 1812/841 > 1 lies above the whole boundary curve, so no
        # descent is made and an order budget of 2 does not matter
        code, out, err = run(capsys, "classify", "--chern", "29,12,-60", "--max-order", "2")
        assert code == 0 and not err
        assert json.loads(out)["classification"]["kind"] == "PICARD_RANK_2"


class TestSlopeCommand:
    def test_dyadic_plain_fraction(self, capsys):
        code, out, _ = run(capsys, "slope", "--dyadic", "1/8")
        assert code == 0
        data = json.loads(out)
        assert data["slope"] == "5/13"
        assert data["order"] == 3
        assert data["rank"] == 13
        assert data["lr_word"] == "RLL"

    def test_dyadic_caret_form(self, capsys):
        _, out, _ = run(capsys, "slope", "--dyadic", "1/2^3")
        assert json.loads(out)["slope"] == "5/13"

    def test_rational_lookup(self, capsys):
        code, out, _ = run(capsys, "slope", "--rational", "22/5")
        assert code == 0
        data = json.loads(out)
        assert data["dyadic"] == "17/2^2"
        assert data["lr_translation"] == 4
        assert data["lr_word"] == "RL"

    def test_lr_lookup(self, capsys):
        _, out, _ = run(capsys, "slope", "--lr", "RLLLRR")
        assert json.loads(out)["slope"] == "19760/51641"

    def test_non_exceptional_rational_fails(self, capsys):
        code, _, err = run(capsys, "slope", "--rational", "1/3")
        assert code == 1 and "not an exceptional slope" in err

    def test_rational_past_the_order_budget_is_not_exceptional_there(self, capsys):
        # 13/34 has order 4: the lookup refuses it at budget 3 as it refuses
        # any rational that is not a slope of order <= 3 (an interval descent
        # ran out of budget here and said so instead), exit 1
        code, out, err = run(capsys, "slope", "--rational", "13/34", "--max-order", "3")
        assert code == 1 and out == ""
        assert err == "error: 13/34 is not an exceptional slope of order <= 3\n"
        code, out, _ = run(capsys, "slope", "--rational", "13/34", "--max-order", "4")
        assert code == 0 and json.loads(out)["order"] == 4

    def test_exactly_one_input_flag(self, capsys):
        code, _, err = run(capsys, "slope", "--dyadic", "1/8", "--rational", "2/5")
        assert code == 1 and "exactly one" in err

    def test_deep_dyadic_address(self, capsys):
        # one run of order - 1 equal address bits: the walk jumps it at once
        for order in (1500, 2000):
            code, out, err = run(capsys, "slope", "--dyadic", f"1/2^{order}",
                                 "--max-order", str(order))
            assert code == 0 and not err
            assert out.count("\n") == 1
            data = json.loads(out)
            assert data["order"] == order and data["lr_word"] == "R" + "L" * (order - 1)

    def test_zero_mantissa_reduces_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "slope", "--dyadic", "0/2^20000000")
        elapsed = time.perf_counter() - start
        assert code == 0 and not err
        data = json.loads(out)
        assert data["slope"] == "0" and data["order"] == 0
        assert elapsed < 0.5

    @pytest.mark.parametrize(
        "argv",
        [
            ("slope", "--dyadic", "1/2^x"),
            ("slope", "--dyadic", "x/2^3"),
            ("slope", "--dyadic", "1/2^300", "--max-order", "5"),
            ("slope", "--lr", "RLLLRR", "--max-order", "5"),
            ("cfrac", "--lr", "RLLLRR", "--max-order", "5"),
            # one run of 10^10 and of 10^20 equal bits: the walk reads the
            # run's length with no mask wider than the numerator and steps
            # the run to its first rank past the cap
            ("slope", "--dyadic", "1/2^10000000000", "--max-order", "10000000000"),
            ("slope", "--dyadic", f"1/2^{10 ** 20}", "--max-order", str(10 ** 20)),
            # a rational that is no exceptional slope
            ("cfrac", "--rational", "1/3"),
        ],
    )
    def test_bad_or_too_deep_address_is_a_one_line_error(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    # the slopes at these addresses have 9,324 and 47,202 digits; the last
    # has a 2,156-digit rank, so only its discriminant is past a 4,300 limit
    @pytest.mark.skipif(not 0 < INT_DIGITS < 4311, reason="needs a digit limit below 4,311")
    @pytest.mark.parametrize(
        "argv, field",
        [
            (("slope", "--dyadic", "16624043/2^24"), "slope"),
            (("cfrac", "--lr", "LR" * 12), "slope"),
            (("slope", "--lr", "RRLLRLRLRRLLRLRLRRR"), "discriminant"),
        ],
        ids=["slope_dyadic", "cfrac_lr", "slope_discriminant"],
    )
    def test_past_the_digit_limit_is_a_one_line_error(self, capsys, argv, field):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith(f"error: {field} has a ") and "-bit integer" in err
        assert err.count("\n") == 1
        assert f"limit of {INT_DIGITS:,} digits for printing" in err

    # LR x 17 names an order-34 slope with a 19-million-bit rank, which an
    # unbounded walk takes about half a minute to reach
    @pytest.mark.skipif(not 0 < INT_DIGITS <= 100_000, reason="needs a digit limit")
    @pytest.mark.parametrize("command", ["slope", "cfrac"])
    def test_walk_stops_at_the_digit_limit(self, capsys, command):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--lr", "LR" * 17)
        elapsed = time.perf_counter() - start
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("error: slope has a ") and err.count("\n") == 1
        assert f"limit of {INT_DIGITS:,} digits for printing" in err
        assert elapsed < 2

    # 1/2^N is one run of N - 1 equal bits; the walk refuses at the first
    # rank past the limit without building the run's last rank
    @pytest.mark.skipif(not 0 < INT_DIGITS <= 100_000, reason="needs a digit limit")
    def test_long_run_stops_at_the_digit_limit(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "slope", "--dyadic", "1/2^10000000", "--max-order", "10000000")
        elapsed = time.perf_counter() - start
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("error: slope has a ") and err.count("\n") == 1
        assert " of 10000000, past the limit of " in err
        assert elapsed < 0.5

    def test_below_the_digit_limit_prints(self, capsys):
        code, out, _ = run(capsys, "cfrac", "--lr", "RRLLRLRLRRLLRLRLRRR")
        assert code == 0 and len(json.loads(out)["slope"]) > 4000

    @needs_digit_limit
    def test_over_long_literal_is_truncated(self, capsys):
        code, out, err = run(capsys, "slope", "--rational", "7" * (INT_DIGITS + 700))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and len(err) < 300
        assert f"{INT_DIGITS + 700:,} digits in a row" in err
        assert f"limit of {INT_DIGITS:,} for reading" in err

    def test_interval_round_trips(self, capsys):
        from planecones.qarith import QuadraticNumber

        _, out, _ = run(capsys, "slope", "--dyadic", "1/4")
        data = json.loads(out)
        left = QuadraticNumber.parse(data["interval"]["left"])
        right = QuadraticNumber.parse(data["interval"]["right"])
        # the ends are 2/5 -+ one halfwidth
        assert (left.a + right.a) / 2 == F(2, 5) and (left.b, left.d) == (-right.b, right.d)


class TestCfracCommand:
    def test_golden_word(self, capsys):
        code, out, _ = run(capsys, "cfrac", "--lr", "RLLLRR", "--period")
        assert code == 0
        data = json.loads(out)
        assert data["slope"] == "19760/51641"
        assert data["even"] == "211112211112211112"
        assert data["odd"] == "2111122111122111111"
        assert data["palindrome"] is True
        assert data["period_block"] == "211112"
        assert data["period_exponent"] == 3
        assert data["tail"] == ""

    def test_normalization_reported(self, capsys):
        _, out, _ = run(capsys, "cfrac", "--rational", "22/5")
        data = json.loads(out)
        assert data["normalized_slope"] == "2/5"
        assert data["translation"] == 4
        assert data["even"] == "22"

    def test_negated_window(self, capsys):
        _, out, _ = run(capsys, "cfrac", "--rational", "3/5")
        data = json.loads(out)
        assert data["negated"] is True
        assert data["normalized_slope"] == "2/5"

    def test_known_address_makes_no_descent(self, capsys, monkeypatch):
        calls = []
        descend = exceptional.from_slope_value

        def counted(*args, **kwargs):
            calls.append(args)
            return descend(*args, **kwargs)

        monkeypatch.setattr(exceptional, "from_slope_value", counted)
        code, out, _ = run(capsys, "cfrac", "--dyadic", "17/2^4", "--period")
        assert code == 0 and json.loads(out)["slope"] == "47/34"
        assert calls == []

    @pytest.mark.parametrize("rational", ["22/5", "3/5", "-13/5", "-3/5"])
    def test_period_of_normalized_slope(self, capsys, rational):
        _, out, _ = run(capsys, "cfrac", "--rational", "2/5", "--period")
        reference = json.loads(out)
        _, out, _ = run(capsys, "cfrac", f"--rational={rational}", "--period")
        data = json.loads(out)
        for key in ("period_block", "period_exponent", "tail", "beta_is_half"):
            assert data[key] == reference[key]


def _no_descent(*args):
    raise AssertionError("sampled the curve before refusing the flags")


class TestCurveCommand:
    def test_samples_round_trip(self, capsys):
        code, out, _ = run(capsys, "curve", "--lo", "0", "--hi", "1/2", "--samples", "9")
        assert code == 0
        samples = json.loads(out)["samples"]
        assert len(samples) == 9
        for sample in samples:
            assert parse_rational(sample["delta"]) == delta_curve(parse_rational(sample["mu"]))

    def test_json_intervals_table(self, capsys):
        _, out, _ = run(
            capsys, "curve", "--lo", "0", "--hi", "1/2", "--samples", "3",
            "--interval-order", "4",
        )
        data = json.loads(out)
        slopes = [entry["slope"] for entry in data["intervals"]]
        assert slopes == ["0", "13/34", "5/13", "75/194", "2/5", "179/433",
                          "12/29", "70/169", "1/2"]
        orders = [entry["order"] for entry in data["intervals"]]
        assert orders == [0, 4, 3, 4, 2, 4, 3, 4, 1]

    def test_parabola_overlay(self, capsys):
        _, out, _ = run(
            capsys, "curve", "--lo", "0", "--hi", "1", "--samples", "2",
            "--rmd", "3,2/3,17/9",
        )
        data = json.loads(out)
        assert data["parabola"]["vertex_mu"] == "-13/6"
        assert data["parabola"]["vertex_delta"] == "-145/72"

    def test_rank_zero_overlay_is_the_line_mu(self, capsys):
        code, out, _ = run(
            capsys, "curve", "--lo", "0", "--hi", "1", "--samples", "2", "--chern", "0,3,2",
        )
        assert code == 0
        # chi = 3/2 * 3 + 2, and the line is mu = -chi/c1
        assert json.loads(out)["parabola"] == {"line_mu": "-13/6"}

    def test_zero_class_overlay_is_a_one_line_error(self, capsys):
        code, out, err = run(
            capsys, "curve", "--lo", "0", "--hi", "1", "--samples", "2", "--chern", "0,0,1",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (("--lo", "1", "--hi", "1"), "--lo must be smaller than --hi"),
    ], ids=["empty_range"])
    def test_bad_range_is_a_one_line_error(self, capsys, argv, message):
        code, out, err = run(capsys, "curve", *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (("--lo=-1e30", "--hi", "1e30", "--samples", "2", "--interval-order", "0"),
         "--interval-order 0 over --lo/--hi passes 65,536 rows"),
        (("--lo", "0", "--hi", "1", "--interval-order", "10" * 300),
         f"--interval-order {'10' * 300} over --lo/--hi passes 65,536 rows"),
    ], ids=["wide_range", "huge_order"])
    def test_past_a_cap_is_refused_at_once(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, "curve", *argv)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_caps_bound_the_sample_count_and_the_table_rows(self, capsys, monkeypatch):
        # [0, 1] has at most (1 - 0 + 2) * 2**order slopes of order <= order
        monkeypatch.setattr(cli, "MAX_CURVE_ROWS", 6)
        monkeypatch.setattr(cli, "MAX_CURVE_SAMPLES", 4)
        base = ("curve", "--lo", "0", "--hi", "1")
        code, out, _ = run(capsys, *base, "--samples", "4", "--interval-order", "1")
        assert code == 0 and len(json.loads(out)["intervals"]) == 3
        assert run(capsys, *base, "--samples", "4", "--interval-order", "2")[0] == 1
        with pytest.raises(SystemExit) as exc:  # the sample count is read with the flags
            main([*base, "--samples", "5", "--interval-order", "1"])
        assert exc.value.code == 2

    def test_sample_endpoints(self, capsys):
        _, out, _ = run(capsys, "curve", "--lo", "0", "--hi", "1/2", "--samples", "2")
        data = json.loads(out)
        assert data["samples"][0] == {"mu": "0", "delta": "1"}
        assert data["samples"][-1] == {"mu": "1/2", "delta": "5/8"}

    def test_flagged_sample_not_fatal(self, capsys):
        deep = str(F(19760, 51641))
        code, out, _ = run(
            capsys, "curve", "--lo", deep, "--hi", "1", "--samples", "2",
            "--max-order", "3",
        )
        assert code == 0
        data = json.loads(out)
        assert data["samples"][0]["delta"] is None
        assert "error" in data["samples"][0]
        assert data["samples"][1]["delta"] == "1"

    # the samples' denominators have about 8,600 digits: one error line, no traceback
    @pytest.mark.skipif(not 4299 <= INT_DIGITS < 8000,
                        reason="needs a digit limit in [4,299, 8,000)")
    def test_past_the_digit_limit_is_a_one_line_error(self, capsys):
        a, b = "3" * 4299, "7" * 4299
        code, out, err = run(capsys, "curve", "--lo", f"1/{b}", "--hi", f"1/{a}", "--samples", "3",
                             "--interval-order", "0")
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("error: samples.") and err.count("\n") == 1
        assert f"limit of {INT_DIGITS:,} digits for printing" in err

    def test_approx_is_a_field_of_each_sample(self, capsys):
        code, out, _ = run(capsys, "curve", "--lo", "0", "--hi", "1/2", "--samples", "3",
                           "--approx", "4")
        assert code == 0
        assert json.loads(out)["samples"] == [
            {"mu": "0", "delta": "1", "approx_delta": "1.0000"},
            {"mu": "1/4", "delta": "21/32", "approx_delta": "0.6562"},
            {"mu": "1/2", "delta": "5/8", "approx_delta": "0.6250"},
        ]
        # a sample whose descent fails has no decimal, as it has no delta
        code, out, _ = run(capsys, "curve", "--lo", str(F(19760, 51641)), "--hi", "1",
                           "--samples", "2", "--max-order", "3", "--approx", "3")
        first, last = json.loads(out)["samples"]
        assert code == 0 and list(first) == ["mu", "delta", "error"]
        assert last["approx_delta"] == "1.000"


@pytest.mark.parametrize("command", [
    ("cone",), ("classify",), ("curve", "--lo", "0", "--hi", "1", "--samples", "2"),
], ids=["cone", "classify", "curve"])
def test_chern_and_rmd_together_are_refused(capsys, monkeypatch, command):
    monkeypatch.setattr(exceptional, "delta_curve", _no_descent)
    code, out, err = run(capsys, *command, "--chern", "3,2,-5", "--rmd", "1,0,1")
    assert code == 1 and out == ""
    assert err == "error: provide one of --chern and --rmd, not both\n"


class TestBatchCommand:
    LINES = [
        {"r": "3", "mu": "2/3", "delta": "17/9"},
        {"ch0": "1", "ch1": "0", "ch2": "-4"},
        {"r": "0", "c1": "2", "chi": "1"},
        {"r": "2", "c1": "0", "chi": "-9"},
    ]

    def test_stream_reports_in_order(self, tmp_path, capsys):
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in self.LINES) + "\n")
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 4
        assert records[0]["dimension"] == 26
        assert records[1]["classification"]["kind"] == "PICARD_RANK_2"
        assert records[2] == {"line": 3, "error": "rank zero needs first Chern class d >= 3, got 2"}
        assert records[3]["input"]["ch0"] == "2"

    def test_malformed_line_continues(self, tmp_path, capsys):
        path = tmp_path / "batch.jsonl"
        path.write_text('not json\n{"ch0":"1","ch1":"0","ch2":"-4"}\n')
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert "error" in records[0] and records[0]["line"] == 1
        assert records[1]["classification"]["kind"] == "PICARD_RANK_2"

    # a line that is not UTF-8, and JSON nested past the recursion limit
    @pytest.mark.parametrize("bad, message", [(b"\xff", "can't decode byte 0xff"),
                                              (b"[" * 10 ** 5, "maximum recursion depth")],
                             ids=["invalid_utf8", "deep_nesting"])
    def test_undecodable_line_is_one_record(self, tmp_path, capsys, bad, message):
        path = tmp_path / "batch.jsonl"
        good = json.dumps(self.LINES[0]).encode()
        path.write_bytes(b"\n".join([good, bad, good]) + b"\n")
        code, out, err = run(capsys, "batch", str(path))
        assert code == 0 and err == ""
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 3
        assert records[0] == records[2] and records[0]["dimension"] == 26
        assert records[1]["line"] == 2 and message in records[1]["error"]

    def test_blank_lines_make_no_record_but_count(self, tmp_path, capsys):
        path = tmp_path / "batch.jsonl"
        good = json.dumps(self.LINES[0])
        path.write_text(f"\n{good}\n   \t\n\nnot json\n")
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 2 and records[0]["dimension"] == 26
        assert records[1]["line"] == 5 and "error" in records[1]

    def test_empty_input(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 0 and out == ""

    def test_unreadable_input(self, capsys, tmp_path):
        code, _, err = run(capsys, "batch", str(tmp_path / "missing.jsonl"))
        assert code == 1 and "error" in err

    def test_internal_error_record_continues(self, tmp_path, capsys, monkeypatch):
        """A library fault in one report of three is an internal record; batch exits 3 at the end."""
        report = cone.cone_report

        def failing(x, **budget):
            if x.ch0 == 1:  # the second line
                raise ConsistencyError("resolution rebuilds the wrong character")
            return report(x, **budget)

        monkeypatch.setattr(cone, "cone_report", failing)
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in self.LINES[:3]) + "\n")
        code, out, err = run(capsys, "batch", str(path))
        assert code == 3 and err == ""
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 3 and records[0]["dimension"] == 26
        assert records[1] == {"line": 2, "error": "internal check failed: resolution rebuilds "
                                                  "the wrong character"}
        assert records[2] == {"line": 3, "error": "rank zero needs first Chern class d >= 3, got 2"}

    @pytest.mark.parametrize("fault, error, code", [
        (ValueError("math domain error"), "internal check failed: math domain error", 3),
        (DomainError("slope past the limit"), "slope past the limit", 0),
        (DescentError("no enclosing interval"), "no enclosing interval", 0),
    ], ids=["value_error", "domain_error", "descent_error"])
    def test_only_a_library_fault_is_internal(self, tmp_path, capsys, monkeypatch, fault, error,
                                              code):
        """Bad input in the report stays an error record; any other ``ValueError`` is a fault."""
        report = cone.cone_report

        def failing(x, **budget):
            if x.ch0 == 3:  # the first line
                raise fault
            return report(x, **budget)

        monkeypatch.setattr(cone, "cone_report", failing)
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in self.LINES[:2]) + "\n")
        got, out, err = run(capsys, "batch", str(path))
        records = [json.loads(line) for line in out.splitlines()]
        assert got == code and err == ""
        assert records[0] == {"line": 1, "error": error}
        assert records[1]["classification"]["kind"] == "PICARD_RANK_2"


def _ones_character(digits: int) -> str:
    """``--chern`` for ``(r, c1, chi) = (R, 1, 0)``, ``R`` the integer of ``digits`` ones."""
    r = int("1" * digits)
    return f"{r},1,{-(2 * r + 3)}/2"  # ch2 = chi - r - (3/2) c1


# At 3,000 digits the input's discriminant, over 2 R^2, has 6,000 digits; at
# 2,100 the input fits and only mu0+, with a radicand of about 8,200 digits, does not.
@pytest.mark.skipif(not 4200 <= INT_DIGITS < 6000, reason="needs a digit limit in [4,200, 6,000)")
class TestReportPastTheDigitLimit:
    @pytest.mark.parametrize(
        "command, digits, field",
        [("cone", 3000, "delta"), ("cone", 2100, "mu0+"), ("classify", 3000, "delta")],
        ids=["cone_input", "cone_mu0", "classify_input"],
    )
    def test_one_line_error(self, capsys, command, digits, field):
        code, out, err = run(capsys, command, "--chern", _ones_character(digits))
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith(f"error: {field} has a ") and err.count("\n") == 1
        assert f"limit of {INT_DIGITS:,} digits for printing" in err

    # 5 + 8 delta = 5 (10^1500 + 1)^2 keeps mu0+ short, but the primary ray
    # (r, c1, chi) has 1,500, 3,000 and 4,500 digits
    @pytest.mark.skipif(INT_DIGITS >= 4500, reason="the ray's 4,500-digit chi fits")
    def test_derived_field_is_a_one_line_error(self, capsys, tmp_path):
        ch2 = -(625 * 10 ** 2997 + 1250 * 10 ** 1497)
        code, out, err = run(capsys, "cone", "--chern", f"1,0,{ch2}")
        assert code == 1 and out == "" and "Traceback" not in err
        assert err == (f"error: primary.extremal_character.chi has a 14,947-bit integer, past "
                       f"Python's limit of {INT_DIGITS:,} digits for printing one\n")
        path = tmp_path / "batch.jsonl"
        path.write_text(json.dumps({"ch0": 1, "ch1": 0, "ch2": str(ch2)}) + "\n")
        code, out, err = run(capsys, "batch", str(path))
        assert code == 0 and err == ""
        assert json.loads(out)["error"].startswith("primary.extremal_character.chi has a ")

    def test_batch_record_names_the_field(self, tmp_path, capsys):
        path = tmp_path / "batch.jsonl"
        lines = [{"r": int("1" * digits), "c1": 1, "chi": 0} for digits in (3000, 2100)]
        path.write_text("\n".join(map(json.dumps, lines + [TestBatchCommand.LINES[0]])) + "\n")
        code, out, err = run(capsys, "batch", str(path))
        assert code == 0 and err == ""
        records = [json.loads(line) for line in out.splitlines()]
        assert [record.get("line") for record in records] == [1, 2, None]
        assert records[0]["error"].startswith("delta has a ")
        assert records[1]["error"].startswith("mu0+ has a ")
        assert records[2]["dimension"] == 26


def _hilbert(mu: Fraction) -> Fraction:
    return (mu * mu + 3 * mu + 2) / 2


def _near(rng, gamma, rank: int) -> dict:
    """``(r, c1, chi)`` of rank ``rank`` whose ``mu0+`` lies close to ``gamma``'s slope.

    ``mu0+`` is aimed at a seeded point within 0.4 of the interval's
    halfwidth, ``1/(3 r^2)`` to first order, and the slope at a seeded
    ``(5 + 8 delta)^(1/2)``; rounding ``c1`` and ``chi`` moves it by about ``1/rank``.
    """
    t = gamma.slope + F(rng.randrange(-40, 41), 100) / (3 * gamma.r ** 2)
    s0 = F(rng.randrange(400, 1200), 100)
    c1 = round(rank * ((s0 - 3) / 2 - t))
    mu = F(c1, rank)
    s = 2 * t + 3 + 2 * mu
    return {"r": rank, "c1": c1, "chi": round(rank * (_hilbert(mu) - (s * s - 5) / 8))}


def _random_character(rng, digits: int) -> dict:
    """A character of Picard rank 2: rank of ``digits`` digits, ``1 <= delta - 1 < 10``."""
    r = rng.randrange(10 ** (digits - 1), 10 ** digits)
    c1 = rng.randrange(-5 * r, 5 * r)
    chi = (r * _hilbert(F(c1, r)) - rng.randrange(2, 11) * r).__floor__()
    return {"r": r, "c1": c1, "chi": chi}


def _limit_characters() -> list[dict]:
    """Seeded characters whose integers have 100-700 digits.

    Between them, each family of printed fields passes a 640-digit limit at
    least once: the input, ``mu0+-``, the dimension and the natural classes;
    on both sides the extremal characters, their coordinates, the
    multiplicities, the Kronecker data and the wall; and, for a gamma of
    rank 10^333 (the address LLLRLRLRLRLRLR), the corresponding slopes, their
    intervals and the triad characters, primary and (through the Serre
    dual) secondary.  Near the order-6 slope of LRLRLR the wall is the
    first field past the limit.
    """
    import random

    from planecones.cfrac import lr_to_slope
    from planecones.chern import character_from_json

    rng = random.Random(1401_1613)
    chars = [_random_character(rng, d) for d in (100, 200, 280, 330, 500, 640, 700)]
    for word, factors in (("LRLRLR", (10 ** 150,)), ("LRLRLRLRLRLR", (10, 10 ** 50, 10 ** 150)),
                          ("LLLRLRLRLRLRLR", (1,))):
        gamma = lr_to_slope(word)
        chars += [_near(rng, gamma, 100 * gamma.r ** 2 * f) for f in factors]
    deep = character_from_json(chars[-1]).dual()  # its secondary side is the deep gamma
    return chars + [{"r": deep.r, "c1": deep.c1, "chi": deep.chi}]


def _has_path(value, keys: list) -> bool:
    """Whether the rendered ``value`` has the key path ``keys``, through any list item."""
    if not keys:
        return True
    if isinstance(value, list):
        return any(_has_path(item, keys) for item in value)
    return isinstance(value, dict) and keys[0] in value and _has_path(value[keys[0]], keys[1:])


class TestNoDigitLimit:
    """With no digit limit, each guard on work keeps Python's default of 4,300 digits.

    That is Python before 3.10.7, or one run with ``PYTHONINTMAXSTRDIGITS=0``:
    a literal's exponent, ``--approx`` and a walk's ranks stay bounded, and
    each refusal is one line within a second.
    """

    @pytest.fixture(autouse=True)
    def no_digit_limit(self):
        if INT_DIGITS:
            sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            if INT_DIGITS:
                sys.set_int_max_str_digits(INT_DIGITS)

    @pytest.mark.parametrize("argv, refusal", [
        (("cone", "--chern", "1e100000000,0,0"), "has more digits with its exponent than "),
        (("classify", "--rmd", "1,0,1e-5000"), "has more digits with its exponent than "),
        (("slope", "--dyadic", "1/2^11000", "--max-order", "11000"), "at order 10289 of 11000"),
    ], ids=["exponent", "negative_exponent", "walk"])
    def test_a_guard_refuses_in_one_line(self, capsys, argv, refusal):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and refusal in err

    def test_approx_keeps_the_default_bound(self, capsys):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["cone", "--rmd", "3,2/3,17/9", "--approx", "9" * 5000])
        assert exc.value.code == 2 and time.perf_counter() - start < 1
        assert "must be <= 4300" in capsys.readouterr().err
        code, out, _ = run(capsys, "cone", "--rmd", "3,2/3,17/9", "--approx", "4300")
        assert code == 0 and len(json.loads(out)["mu0"]["approx_plus"]) > 4300


@pytest.mark.skipif(not 640 < INT_DIGITS, reason="needs a default digit limit above 640")
class TestRendererAgainstTheOracle:
    """The renderer measures as it writes; the old field-by-field check is the oracle."""

    LIMIT = 640

    def test_refuses_where_the_oracle_does(self, capsys, tmp_path):
        from conftest import printability_oracle
        from planecones import cli
        from planecones.chern import character_from_json
        from planecones.errors import DomainError

        chars = _limit_characters()
        reports = [cone.cone_report(character_from_json(c)) for c in chars]
        # characters the command line can read back at the lower limit
        readable = [i for i, c in enumerate(chars)
                    if all(len(str(abs(v))) <= self.LIMIT for v in c.values())]
        path = tmp_path / "batch.jsonl"
        path.write_text("".join(json.dumps(chars[i]) + "\n" for i in readable))
        refusals, found, cone_runs = [], [], []
        sys.set_int_max_str_digits(self.LIMIT)
        try:
            for report in reports:
                found.append(printability_oracle(report))
                try:
                    cli.report_to_dict(report)
                    refusals.append(None)
                except DomainError as exc:
                    refusals.append(str(exc))
            for i in readable:
                c = chars[i]
                cone_runs.append(run(capsys, "cone", "--chern", f"{c['r']},{c['c1']},"
                                     f"{F(2 * (c['chi'] - c['r']) - 3 * c['c1'], 2)}"))
            batch = run(capsys, "batch", str(path))
        finally:
            sys.set_int_max_str_digits(INT_DIGITS)

        families = ("delta", "mu0+", "mu0-", "dimension", "natural_classes.",
                    "primary.invariants.corresponding_slope.discriminant",
                    "primary.invariants.corresponding_slope.interval",
                    "primary.extremal_character.", "primary.extremal_ray_coordinates",
                    "primary.resolution.triad_characters.", "primary.resolution.multiplicities",
                    "primary.kronecker", "primary.wall", "secondary.corresponding_slope.",
                    "secondary.extremal_character.", "secondary.extremal_ray_coordinates",
                    "secondary.serre_dual_pipeline.")
        seen = {p for paths in found for p, _ in paths}
        assert all(any(p.startswith(family) for p in seen) for family in families)
        for report, message, paths in zip(reports, refusals, found):
            assert (message is None) == (not paths)
            if message is None:
                continue
            field, bits = message.split(" has a ")[0], message.split(" has a ")[1].split("-bit")[0]
            assert (field, int(bits.replace(",", ""))) in paths
            assert message.endswith(f"past Python's limit of {self.LIMIT} digits for printing one")
            # the input's fields are named bare, as they were
            keys = {"mu0+": "mu0.plus", "mu0-": "mu0.minus", "dimension": "dimension"}.get(
                field, field if "." in field else "input." + field).split(".")
            assert _has_path(cli.report_to_dict(report), keys)
        # past the input and mu0+-, a JSON int and a derived field are each refused first
        assert {"dimension", "primary.wall"} <= {m.split(" has a ")[0] for m in refusals if m}
        code, out, err = batch
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and err == "" and len(records) == len(readable)
        for i, (code, out, err), record in zip(readable, cone_runs, records):
            if refusals[i] is None:
                assert code == 0 and err == "" and json.loads(out) == record
            else:
                assert (code, out, err) == (1, "", f"error: {refusals[i]}\n")
                assert record == {"line": readable.index(i) + 1, "error": refusals[i]}

    def test_lowered_limit_is_not_served_from_the_render_caches(self, capsys):
        """What rendered at the default limit is refused below it, with the same message."""
        chern = "1,0," + str(-(625 * 10 ** 497 + 1250 * 10 ** 247))  # a 750-digit ray chi
        word = "LR" * 7  # a 384-digit rank: a 768-digit discriminant
        for argv in (("slope", "--lr", word), ("cone", "--chern", chern)):
            assert run(capsys, *argv)[0] == 0
        sys.set_int_max_str_digits(self.LIMIT)
        try:
            slope = run(capsys, "slope", "--lr", word)
            report = run(capsys, "cone", "--chern", chern)
        finally:
            sys.set_int_max_str_digits(INT_DIGITS)
        assert slope[:2] == (1, "") and slope[2].startswith("error: discriminant has a 2,5")
        assert report[:2] == (1, "")
        assert report[2].startswith("error: primary.extremal_character.chi has a ")
        for _, _, err in (slope, report):
            assert err.endswith(f"past Python's limit of {self.LIMIT} digits for printing one\n")

    def test_triad_character_cache_is_keyed_on_the_limit(self):
        from planecones import cli
        from planecones.cfrac import lr_to_slope
        from planecones.errors import DomainError
        from planecones.qarith import int_digit_limit

        bundle = lr_to_slope("LR" * 7).character()  # delta over 2 r^2, with 768 digits
        triad = (cli._lattice(1, 0, 1), bundle)
        fields = cli._triad_dicts(triad, "triad.", int_digit_limit())
        assert fields[1]["r"] == str(bundle.r)
        sys.set_int_max_str_digits(self.LIMIT)
        try:
            with pytest.raises(DomainError, match=r"^triad\.delta has a 2,5[0-9]{2}-bit integer"):
                cli._triad_dicts(triad, "triad.", int_digit_limit())
        finally:
            sys.set_int_max_str_digits(INT_DIGITS)

    def test_slope_cache_is_keyed_on_the_slope_not_its_path(self):
        """One slope under two paths is one render; a refusal still names the caller's path."""
        from planecones import cli
        from planecones.cfrac import lr_to_slope
        from planecones.errors import DomainError
        from planecones.qarith import int_digit_limit

        s = lr_to_slope("LR" * 7)  # a 384-digit rank: a 768-digit discriminant
        cli._slope_fields.cache_clear()
        primary = cli._slope_dict(s, "primary.invariants.corresponding_slope.")
        secondary = cli._slope_dict(s, "secondary.serre_dual_pipeline.invariants."
                                       "corresponding_slope.")
        assert primary == secondary and primary is not secondary
        assert primary["interval"] is not secondary["interval"]
        info = cli._slope_fields.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        sys.set_int_max_str_digits(self.LIMIT)
        try:
            for prefix in ("primary.invariants.corresponding_slope.",
                           "secondary.corresponding_slope.", ""):
                with pytest.raises(DomainError) as refused:
                    cli._slope_dict(s, prefix, int_digit_limit())
                assert str(refused.value).startswith(f"{prefix}discriminant has a 2,5")
        finally:
            sys.set_int_max_str_digits(INT_DIGITS)


class TestInternalError:
    def test_cone_exits_with_internal_status(self, capsys, monkeypatch):
        def failing(x, **budget):
            raise ConsistencyError("secondary ray is not orthogonal to the input")

        monkeypatch.setattr(cone, "cone_report", failing)
        code, out, err = run(capsys, "cone", "--rmd", "3,2/3,17/9")
        assert code == 3 and out == ""
        assert err == "error: internal check failed: secondary ray is not orthogonal to the input\n"


@pytest.mark.parametrize("content", [b'{"max_order": 3, "multiplier": 2}', b"\xff"],
                         ids=["flag_defaults", "unreadable"])
def test_a_config_file_changes_nothing(tmp_path, capsys, monkeypatch, content):
    """A command's output depends on its arguments alone, not on ``PLANECONES_CONFIG``."""
    argv = ("cone", "--rmd", "3,2/3,17/9")
    alone = run(capsys, *argv)
    config = tmp_path / "config.json"
    config.write_bytes(content)
    monkeypatch.setenv("PLANECONES_CONFIG", str(config))
    assert run(capsys, *argv) == alone


class TestArgumentBoundaries:
    @pytest.mark.parametrize(
        "argv",
        [
            ("cone", "--rmd", "3,2/3,17/9", "--approx", "-3"),
            ("cone", "--rmd", "3,2/3,17/9", "--max-order", "-5"),
            ("curve", "--lo", "0", "--hi", "1", "--approx", "-1"),
            pytest.param(("cone", "--rmd", "3,2/3,17/9", "--approx", TOO_MANY_DIGITS),
                         marks=needs_digit_limit),
            pytest.param(("curve", "--lo", "0", "--hi", "1", "--samples", "3",
                          "--approx", TOO_MANY_DIGITS), marks=needs_digit_limit),
            pytest.param(("batch", "-", "--approx", TOO_MANY_DIGITS), marks=needs_digit_limit),
            ("slope", "--rational", "2/5", "--max-order", "x"),
            ("cone", "--chern", "1,0,0", "--multiplier", "1"),
            ("cone", "--rmd", "3,2/3,17/9", "--multiplier", "2"),
            ("batch", "-", "--multiplier", "2"),
            ("curve", "--lo", "0", "--hi", "1", "--interval-order", "-3"),
            # each subcommand takes only the flags it reads
            ("classify", "--rmd", "3,2/3,17/9", "--approx", "3"),
            ("slope", "--dyadic", "1/2", "--approx", "3"),
            ("cfrac", "--dyadic", "1/2", "--approx", "3"),
            ("curve", "--lo", "0", "--hi", "1/2", "--samples", "3", "--text"),
            ("curve", "--lo", "0", "--hi", "1/2", "--samples", "3", "--json"),
            ("batch", "-", "--text"),
            ("batch", "-", "--json"),
            # every command writes JSON and takes no flag to choose another layout
            ("cone", "--rmd", "3,2/3,17/9", "--text"),
            ("cone", "--rmd", "3,2/3,17/9", "--json"),
            ("classify", "--rmd", "3,2/3,17/9", "--text"),
            ("classify", "--rmd", "3,2/3,17/9", "--json"),
            ("slope", "--dyadic", "1/2", "--text"),
            ("slope", "--dyadic", "1/2", "--json"),
            ("cfrac", "--dyadic", "1/2", "--text"),
            ("cfrac", "--dyadic", "1/2", "--json"),
            ("curve", "--lo", "0", "--hi", "1/2", "--samples", "3", "--format", "csv"),
            ("curve", "--lo", "0", "--hi", "1/2", "--samples", "3", "--format", "json"),
            # a sample count below 2 or past MAX_CURVE_SAMPLES
            ("curve", "--lo", "0", "--hi", "1", "--samples", "1"),
            ("curve", "--lo", "0", "--hi", "1", "--samples", "1000000", "--interval-order", "0"),
        ],
    )
    def test_rejected_by_argument_parsing(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert ("error: argument" in captured.err
                or "error: unrecognized arguments" in captured.err)

    @needs_digit_limit
    def test_approx_at_the_digit_limit_renders(self, capsys):
        limit = str(INT_DIGITS)
        code, out, _ = run(capsys, "cone", "--rmd", "3,2/3,17/9", "--approx", limit)
        assert code == 0
        assert len(json.loads(out)["mu0"]["approx_plus"].split(".")[1]) == INT_DIGITS
        code, out, _ = run(capsys, "curve", "--lo", "0", "--hi", "1", "--samples", "3",
                           "--approx", limit)
        assert code == 0
        assert len(json.loads(out)["samples"][0]["approx_delta"].split(".")[1]) == INT_DIGITS

    def test_zero_is_accepted(self, capsys):
        code, out, _ = run(capsys, "cone", "--rmd", "3,2/3,17/9", "--approx", "0")
        assert code == 0
        assert json.loads(out)["mu0"]["approx_plus"] == "0.0"
        code, out, _ = run(capsys, "slope", "--rational", "2", "--max-order", "0")
        assert code == 0 and json.loads(out)["order"] == 0


# what only a command that parses flags needs, and the dataclass machinery the
# result types no longer use
CLI_ONLY_MODULES = ["argparse", "dataclasses", "inspect"]
FOOTPRINT = f"""
import sys
import planecones.cli, planecones.cone
print(sorted(set(sys.modules) & {set(CLI_ONLY_MODULES)}))
sys.exit(planecones.cli.main(["cone", "--rmd", "3,2/3,17/9"]))
"""


def test_import_loads_no_cli_only_module():
    # -S: no site hooks, so sys.modules holds only what the import pulls in
    src = os.path.dirname(os.path.dirname(planecones.__file__))
    done = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded, report = done.stdout.split("\n", 1)
    assert loaded == "[]"
    assert json.loads(report)["dimension"] == 26


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_pipe_ends_batch_quietly(tmp_path, unbuffered):
    """A reader that stops after one record ends ``batch``: status 141, nothing on stderr."""
    path = tmp_path / "grid.jsonl"
    path.write_text("".join(json.dumps({"r": r, "c1": c1, "chi": chi}) + "\n"
                            for r in range(7) for c1 in range(-8, 9) for chi in range(-6, 7)))
    src = os.path.dirname(os.path.dirname(planecones.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    with subprocess.Popen([sys.executable, "-m", "planecones.cli", "batch", str(path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        json.loads(proc.stdout.readline())
        proc.stdout.close()
        status = proc.wait(timeout=60)
        err = proc.stderr.read()
    assert (status, err) == (cli.EXIT_BROKEN_PIPE, b"")
