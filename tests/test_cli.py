"""Command-line surface: grammar, exit codes, exact JSON output."""

import json
from fractions import Fraction

import pytest

from eudoxos.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pi_json_schema(capsys):
    code, out, _ = run(capsys, "pi", "--depth", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["depth"] == 4
    assert payload["sides"] == 96
    lo = Fraction(payload["value"]["lo"])
    hi = Fraction(payload["value"]["hi"])
    assert Fraction(3) + Fraction(10, 71) <= lo < hi <= Fraction(3) + Fraction(1, 7)
    assert "." not in payload["value"]["lo"]  # exact fraction strings only


def test_pi_nested_across_depths(capsys):
    values = []
    for depth in (2, 5, 8):
        _, out, _ = run(capsys, "pi", "--depth", str(depth), "--format", "json")
        payload = json.loads(out)
        values.append(
            (Fraction(payload["value"]["lo"]), Fraction(payload["value"]["hi"]))
        )
    for (lo1, hi1), (lo2, hi2) in zip(values, values[1:]):
        assert lo1 <= lo2 and hi2 <= hi1


def test_sin_nested_across_depths(capsys):
    values = []
    for depth in ("5", "9"):
        _, out, _ = run(capsys, "sin", "--times-pi", "1/6", "--depth", depth,
                        "--format", "json")
        payload = json.loads(out)
        values.append(
            (Fraction(payload["value"]["lo"]), Fraction(payload["value"]["hi"]))
        )
    (lo1, hi1), (lo2, hi2) = values
    assert lo1 <= lo2 and hi2 <= hi1


def test_asin_readme_example(capsys):
    code, out, _ = run(capsys, "asin", "1/2", "--square", "--depth", "14")
    assert code == 0
    assert out.startswith("0.785398")
    # pi to 50 decimals, rounded down: pi lies in [PI50, PI50 + 10^-50]
    pi50 = Fraction("3.14159265358979323846264338327950288419716939937510")
    values = []
    for depth in ("14", "15"):
        code, out, _ = run(capsys, "asin", "1/2", "--square", "--depth", depth,
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        values.append(
            (Fraction(payload["value"]["lo"]), Fraction(payload["value"]["hi"]))
        )
    (lo1, hi1), (lo2, hi2) = values
    assert lo1 <= pi50 / 4 and (pi50 + Fraction(1, 10**50)) / 4 <= hi1
    assert lo1 <= lo2 and hi2 <= hi1


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "sin", "1/2", "--depth", "8", "--format", "json")
    _, out2, _ = run(capsys, "sin", "1/2", "--depth", "8", "--format", "json")
    assert out1 == out2


def test_measure_terminating(capsys):
    code, out, _ = run(capsys, "measure", "--value", "5/4", "--unit", "1", "--base", "10")
    assert code == 0
    assert out.strip() == "1.25 (terminated)"


def test_negative_enclosures_print_their_certain_digits(capsys):
    code, out, _ = run(capsys, "sin", "--times-pi", "7/6", "--depth", "12")
    assert code == 0
    assert out.startswith("-0... [-2049/4096, -2047/4096]")
    _, out, _ = run(capsys, "cos", "3", "--depth", "10")
    assert out.startswith("-0.9... [")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_measure_negative_prefix_exits_1(capsys, fmt):
    code, out, err = run(capsys, "measure", "--value", "1", "--unit", "3",
                         "--prefix", "-1", "--format", fmt)
    assert code == 1
    assert "prefix length must be non-negative" in err
    assert out == ""


def test_measure_json(capsys):
    code, out, _ = run(
        capsys, "measure", "--value", "1/3", "--unit", "1", "--prefix", "6",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["digits"] == [3, 3, 3, 3, 3, 3]
    assert payload["terminated"] is False
    assert Fraction(payload["value"]["hi"]) - Fraction(payload["value"]["lo"]) == Fraction(1, 10**6)


def test_angle_command(capsys):
    code, out, _ = run(capsys, "angle", "1,0", "0,0", "0,1", "--depth", "10")
    assert code == 0
    assert out.startswith("1.5707")
    assert "unit=d" in out


def test_angle_unit_e(capsys):
    code, out, _ = run(capsys, "angle", "1,0", "0,0", "0,1", "--unit", "e", "--depth", "10")
    assert out.startswith("0.7853")


def test_ratio_add(capsys):
    code, out, _ = run(capsys, "ratio", "add", "1:2", "1:3")
    assert code == 0 and out.strip() == "5/6"


def test_ratio_eq_and_witness(capsys):
    code, out, _ = run(capsys, "ratio", "eq", "3:2", "6:4")
    assert code == 0 and out.strip() == "proportional"
    code, out, _ = run(capsys, "ratio", "eq", "3:2", "2:1")
    assert code == 0
    assert "not-proportional" in out and "m=2 n=1" in out


def test_ratio_cut(capsys):
    code, out, _ = run(capsys, "ratio", "cut", "3:2", "3", "2")
    assert out.strip() == "boundary"


def test_ratio_less_and_inv(capsys):
    assert run(capsys, "ratio", "less", "1:2", "2:3")[:2] == (0, "less\n")
    assert run(capsys, "ratio", "less", "2:3", "1:2")[:2] == (0, "not-less\n")
    assert run(capsys, "ratio", "inv", "3:2")[:2] == (0, "2/3\n")


@pytest.mark.parametrize("argv, message", [
    (("ratio", "cut", "3:2", "3"), "ratio cut takes <ratio> <m> <n>"),
    (("ratio", "less", "3:2"), "ratio less needs two ratio arguments"),
])
def test_ratio_missing_argument(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.strip() == f"error: {message}"


def test_xii2_text(capsys):
    code, out, _ = run(capsys, "xii2", "1", "2", "--depth", "6")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 6
    assert lines[0] == "circles r1=1, r2=2; squares-on-diameters ratio 1/4"
    assert lines[1].endswith("contains it at every refinement <= 6: True")
    assert all("witnesses=[]" in line and "undecided: []" in line for line in lines[2:])


def test_xii2(capsys):
    code, out, _ = run(capsys, "xii2", "1", "2", "--depth", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["squares_ratio"] == "1/4"


def test_check_proposition(capsys):
    code, out, _ = run(capsys, "check", "--suite", "proposition", "--bound", "30")
    assert code == 0
    assert "witness" in out and "(1, 1)" in out


def test_check_limit(capsys):
    code, out, _ = run(capsys, "check", "--suite", "limit", "--depth", "10")
    assert code == 0
    assert "monotone: True" in out


def test_check_eta_exits_undecided(capsys):
    code, out, _ = run(capsys, "check", "--suite", "eta", "--depth", "8")
    assert code == 2
    assert "undecided" in out


def test_domain_error_exit(capsys):
    code, _, err = run(capsys, "asin", "3/2")
    assert code == 1
    assert "error" in err


def test_usage_error_exit():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_polygon_file(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text("0,0\n4,0\n1,3\n")
    code, out, _ = run(capsys, "measure", "--polygon", str(path))
    assert code == 0 and out.strip() == "6"


def test_region_file(tmp_path, capsys):
    path = tmp_path / "region.txt"
    path.write_text("polygon: (0,0) (1,0) (1,1) (0,1)\nsector: 10,10,1,0,1/4\n")
    code, out, _ = run(capsys, "measure", "--region", str(path), "--depth", "8")
    assert code == 0
    assert out.strip().startswith("1.78")


def test_env_default_depth(capsys, monkeypatch):
    monkeypatch.setenv("EUDOXOS_DEPTH", "3")
    from eudoxos import cli

    parser = cli.build_parser()
    args = parser.parse_args(["pi"])
    assert args.depth == 3
