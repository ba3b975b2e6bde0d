import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tropzeta.cli import main
from tropzeta.geometry import domain_from_dict
from tropzeta.zeta import zeta_via_identity


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def write_domain(tmp_path, spec, name="dom.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


RECT = {"kind": "builtin", "tag": "rectangle", "P": "3", "Q": "2"}


def _rounded_square(corners):
    """The square [0,2]^2 with a chart g(x) = (1 - x)^2 on [0, 1] at each of
    the given corners (0..3 is a valid spec)."""
    return {"kind": "smooth",
            "minimal_model": {"vertices": [["0", "0"], ["2", "0"], ["2", "2"], ["0", "2"]]},
            "charts": [{"corner": k, "g_poly": ["1", "-2", "1"], "x_max": 1.0} for k in corners]}
LDOM = {"kind": "builtin", "tag": "domain_L"}


class TestZetaCommand:
    def test_rectangle_exact(self, tmp_path, capsys):
        dom = write_domain(tmp_path, RECT)
        code, out = run_cli(["zeta", dom, "--s", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "6"
        assert payload["route"] == "identity"

    def test_L_value(self, tmp_path, capsys):
        dom = write_domain(tmp_path, LDOM)
        code, out = run_cli(["zeta", dom, "--s", "2", "--eps", "1e-6"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["value"][0] - 10 / 3) < 1e-6

    def test_pole_is_domain_error(self, tmp_path, capsys):
        dom = write_domain(tmp_path, RECT)
        code, out = run_cli(["zeta", dom, "--s", "1"], capsys)
        assert code == 1
        assert "error" in json.loads(out)

    def test_mellin_route(self, tmp_path, capsys):
        dom = write_domain(tmp_path, RECT)
        code, out = run_cli(["zeta", dom, "--s", "3", "--route", "mellin"], capsys)
        payload = json.loads(out)
        assert abs(payload["value"][0] - 7 / 3) < 1e-8

    @pytest.mark.parametrize("args, code, message", [
        (["zeta", "L", "--s", "1/0"], 1, "undefined"),
        (["farey", "--s", "1/0"], 1, "undefined"),
        (["model", "L", "--s", "1/0"], 1, "undefined"),
        (["zeta", "L", "--s", "1e400"], 1, "not finite"),
        (["zeta", "L", "--s", "nan"], 1, "not finite"),
        (["zeta", "pentagon", "--s", "-700", "--route", "mellin"], 2, "overflow"),
        (["farey", "--s", "2", "--bound", "0"], 1, "bound"),
        (["zeta", "pentagon", "--s", "10000"], 1, "Exceeds the limit"),
        (["zeta", "L", "--s", "-700"], 2, "overflow"),
        (["farey", "--s", "-300", "--bound", "500"], 2, "overflow"),
        (["farey", "--s", "1100", "--bound", "50"], 2, "overflow"),
    ], ids=["zeta-1/0", "farey-1/0", "model-1/0", "zeta-1e400", "zeta-nan",
            "mellin-pentagon--700", "farey-bound-0", "exact-too-long-to-print",
            "identity-L--700", "farey--300", "farey-1100"])
    def test_bad_input_is_a_json_error(self, tmp_path, capsys, args, code, message):
        if args[:2] == ["zeta", "L"]:
            args = ["zeta", write_domain(tmp_path, LDOM)] + args[2:]
        if args[:2] == ["zeta", "pentagon"]:
            pentagon = Path(__file__).resolve().parent.parent / "domains" / "pentagon_model.json"
            args = ["zeta", str(pentagon)] + args[2:]
        got, out = run_cli(args, capsys)
        assert got == code
        assert message in json.loads(out)["error"]

    def test_too_long_exact_value_is_refused_before_any_power(self, capsys, monkeypatch):
        # the digits of Z(10^6) are bounded from the sizes 1/2, 1/3 alone;
        # Z(3000) (2,339 and 2,342 digits) is still summed and printed
        pentagon = Path(__file__).resolve().parent.parent / "domains" / "pentagon_model.json"
        powers = []
        fraction_pow = Fraction.__pow__

        def counting(base, exponent, *rest):
            powers.append(exponent)
            return fraction_pow(base, exponent, *rest)

        monkeypatch.setattr(Fraction, "__pow__", counting)
        code, out = run_cli(["zeta", str(pentagon), "--s", str(10**6)], capsys)
        assert code == 1
        assert "Exceeds the limit (4300 digits)" in json.loads(out)["error"]
        assert powers == []
        code, out = run_cli(["zeta", str(pentagon), "--s", "3000"], capsys)
        assert code == 0 and powers
        expected = zeta_via_identity(domain_from_dict(json.loads(pentagon.read_text())), 3000, 0)
        assert json.loads(out)["value"] == str(expected.value)

    @pytest.mark.parametrize("name", ["L", "disk"])
    def test_mellin_at_large_s(self, capsys, name):
        # t^(s - 2) is taken out at each cell's larger end: at s = 10000 the
        # smaller end's power underflows where its expm1 would overflow
        dom = str(Path(__file__).resolve().parent.parent / "domains" / f"{name}.json")
        values = []
        for route in ("mellin", "identity"):
            code, out = run_cli(["zeta", dom, "--s", "10000", "--route", route], capsys)
            assert code == 0
            values.append(complex(*json.loads(out)["value"]))
        mellin, identity = values
        assert abs(mellin - identity) <= 1e-12 * abs(identity)

    @pytest.mark.parametrize("args", [
        ["wavefront", "L", "--t", "nan"],
        ["cuts", "L", "--eps", "1e400"],
        ["zeta", "L", "--s", "2", "--eps", "nan"],
        ["residue", "L", "--at", "2/3", "--eps-min=-inf"],
        ["model", "d-alpha", "--alpha", "nan"],
    ], ids=["t-nan", "eps-1e400", "zeta-eps-nan", "eps-min--inf", "alpha-nan"])
    def test_non_finite_float_option_is_a_usage_error(self, tmp_path, capsys, args):
        if args[1:2] == ["L"]:
            args = [args[0], write_domain(tmp_path, LDOM)] + args[2:]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 1
        assert "not finite" in json.loads(capsys.readouterr().err)["error"]

    def test_determinism(self, tmp_path, capsys):
        dom = write_domain(tmp_path, LDOM)
        _, out1 = run_cli(["zeta", dom, "--s", "2.5", "--eps", "1e-4"], capsys)
        _, out2 = run_cli(["zeta", dom, "--s", "2.5", "--eps", "1e-4"], capsys)
        assert out1 == out2


class TestResidueCommand:
    def test_polygon_residues(self, tmp_path, capsys):
        dom = write_domain(tmp_path, RECT)
        code, out = run_cli(["residue", dom, "--at", "1"], capsys)
        assert json.loads(out)["value"] == "10"
        code, out = run_cli(["residue", dom, "--at", "0"], capsys)
        assert json.loads(out)["value"] == "-8"

    def test_L_residue_at_zero(self, tmp_path, capsys):
        dom = write_domain(tmp_path, LDOM)
        code, out = run_cli(["residue", dom, "--at", "0"], capsys)
        assert json.loads(out)["value"] == "-32/3"

    def test_two_thirds_regime_error_is_exit_2(self, tmp_path, capsys):
        dom = write_domain(tmp_path, RECT)
        code, out = run_cli(["residue", dom, "--at", "2/3"], capsys)
        assert code == 2
        assert "asymptotic regime" in json.loads(out)["error"]

    def test_two_thirds_L(self, tmp_path, capsys):
        dom = write_domain(tmp_path, LDOM)
        code, out = run_cli(["residue", dom, "--at", "2/3", "--eps-min", "1e-6"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["method"] == "counting_fit"
        assert abs(payload["value"] - 19.33) < 3.0


class TestGeometryCommands:
    def test_minimal_model(self, tmp_path, capsys):
        dom = write_domain(tmp_path, LDOM)
        code, out = run_cli(["minimal-model", dom], capsys)
        payload = json.loads(out)
        assert payload["m"] == "1"
        assert payload["k"] == "8"
        assert payload["type_tag"] == "reflexive_point"

    def test_wavefront_with_svg(self, tmp_path, capsys):
        dom = write_domain(tmp_path, LDOM)
        svg = str(tmp_path / "front.svg")
        code, out = run_cli(["wavefront", dom, "--t", "0.3", "--svg", svg], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["lattice_perimeter"] > 0
        assert "<svg" in open(svg).read()

    def test_cuts_csv(self, tmp_path, capsys):
        dom = write_domain(tmp_path, LDOM)
        csv_path = str(tmp_path / "cuts.csv")
        code, out = run_cli(["cuts", dom, "--eps", "0.05", "--csv", csv_path], capsys)
        payload = json.loads(out)
        # sizes >= 1/20 per chart: 1/2, 1/6 x2, 1/12 x2, 1/20 x2 minus the
        # two below threshold: 5 per chart, 4 charts
        assert payload["count"] == 20
        lines = open(csv_path).read().strip().splitlines()
        assert lines[0] == "a,b,c,d,size,depth,chart"
        assert len(lines) == 21

    def test_caustic(self, tmp_path, capsys):
        dom = write_domain(tmp_path, RECT)
        svg = str(tmp_path / "caustic.svg")
        code, out = run_cli(["caustic", dom, "--eps", "0.1", "--svg", svg], capsys)
        payload = json.loads(out)
        assert len(payload["edges"]) == 5
        assert "<svg" in open(svg).read()

    def test_equiaffine_methods(self, tmp_path, capsys):
        dom = write_domain(tmp_path, LDOM)
        vals = {}
        for method in ("graph", "parametric", "triangles"):
            code, out = run_cli(["equiaffine", dom, "--method", method], capsys)
            vals[method] = json.loads(out)["value"]
        target = 4 ** (4 / 3.0)
        assert abs(vals["graph"] - target) < 1e-6
        assert abs(vals["parametric"] - target) < 1e-4
        assert abs(vals["triangles"] - target) < 0.05


class TestAnalyticCommands:
    def test_farey(self, capsys):
        code, out = run_cli(["farey", "--weight", "quadratic", "--s", "1", "--bound", "60"],
                            capsys)
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["farey_zeta"]["value"][0] - 1.0) < 0.1

    def test_sigma_b(self, capsys):
        code, out = run_cli(["sigma-b", "--b", "7", "--s", "0.7"], capsys)
        payload = json.loads(out)
        assert payload["deviation"] >= 0

    @pytest.mark.parametrize("b", ["0", "-3"])
    def test_sigma_b_below_one_is_exit_1(self, capsys, b):
        code, out = run_cli(["sigma-b", "--b", b, "--s", "0.7"], capsys)
        assert code == 1
        assert json.loads(out) == {"error": f"b must be at least 1, got {b}"}

    def test_sigma_b_refuses_s_before_the_sum(self):
        # the kernel sum at s = 1100 would overflow numpy's exp and warn on
        # stderr; the strip 1/2 < Re s < 1 is checked before it
        proc = run_module(["sigma-b", "--s", "1100", "--b", "1000"])
        assert proc.returncode == 1
        assert json.loads(proc.stdout) == {"error": "closed form needs 1/2 < Re(s) < 1"}
        assert proc.stderr == ""

    def test_model_parabola(self, capsys):
        code, out = run_cli(["model", "parabola", "--defect", "1", "0", "0", "1"], capsys)
        assert json.loads(out)["defect"] == "1/2"
        code, out = run_cli(["model", "parabola", "--support", "2", "3"], capsys)
        assert json.loads(out)["support"] == "6/5"

    def test_model_L(self, capsys):
        code, out = run_cli(["model", "L", "--s", "2"], capsys)
        payload = json.loads(out)
        assert abs(payload["value"][0] - 10 / 3) < 1e-5

    def test_model_constants(self, capsys):
        code, out = run_cli(["model", "constants"], capsys)
        payload = json.loads(out)
        assert abs(payload["gamma_one_third"] - math.gamma(1 / 3)) < 1e-14

    def test_bad_domain_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "nonsense"}))
        code, out = run_cli(["zeta", str(path), "--s", "2"], capsys)
        assert code == 1

    @pytest.mark.parametrize("spec", [
        [RECT],
        {"kind": "polygon", "vertices": 5},
        {"kind": "polygon", "vertices": [[0, 0], [1, 0, 2], [0, 1]]},
        _rounded_square([0, 1, 2, -1]),
        _rounded_square([0, 1, 2.7, 3]),
        _rounded_square([0, 1, 2, 7]),
        dict(_rounded_square([0, 1, 2, 3]), minimal_model=5),
        dict(_rounded_square([0, 1, 2, 3]), charts=5),
        dict(_rounded_square([0, 1, 2, 3]), charts=[{"corner": 0, "g_poly": 5, "x_max": 1.0}]
             + _rounded_square([1, 2, 3])["charts"]),
        {"kind": "builtin", "tag": "d_alpha", "alpha": "x"},
        {"kind": "builtin", "tag": "d_alpha", "alpha": 0.5, "n_max": [1]},
        {"kind": "builtin", "tag": "disk", "radius": [1]},
        dict(_rounded_square([0, 1, 2, 3]), charts=[{"corner": 0, "g_poly": ["1"], "x_max": [1]}]
             + _rounded_square([1, 2, 3])["charts"]),
    ], ids=["list", "vertices-int", "vertex-triple", "corner-negative", "corner-float",
            "corner-out-of-range", "minimal-model-int", "charts-int", "g-poly-int",
            "alpha-string", "n-max-list", "radius-list", "x-max-list"])
    def test_malformed_domain_is_exit_1(self, tmp_path, capsys, spec):
        code, out = run_cli(["minimal-model", write_domain(tmp_path, spec)], capsys)
        assert code == 1 and "error" in json.loads(out)

    @pytest.mark.parametrize("spec", [
        dict(_rounded_square([1, 2]), charts=[{"corner": 0, "g_poly": ["1", "-2", "nan"], "x_max": 1.0}]
             + _rounded_square([1, 2])["charts"]),
        dict(_rounded_square([1, 2]), charts=[{"corner": 0, "g_poly": ["1", "-2", 1], "x_max": math.inf}]
             + _rounded_square([1, 2])["charts"]),
        {"kind": "builtin", "tag": "disk", "radius": math.nan},
        {"kind": "builtin", "tag": "disk", "radius": "-inf"},
    ], ids=["g-poly-nan", "x-max-inf", "radius-nan", "radius-minus-inf"])
    def test_non_finite_number_is_refused(self, tmp_path, capsys, spec):
        # json reads NaN and Infinity, float() reads "nan" and "-inf"; a NaN
        # coefficient used to load and leave its arc uncut
        code, out = run_cli(["cuts", write_domain(tmp_path, spec), "--eps", "1e-3"], capsys)
        assert code == 1 and "must be a finite number" in json.loads(out)["error"]

    @pytest.mark.parametrize("text", ['["0", "0", "nan"]', "[0, 0, 0.5, 1e400]"],
                             ids=["nan-string", "overflow"])
    @pytest.mark.parametrize("command", [["farey", "--s", "0.8", "--bound", "50"],
                                         ["sigma-b", "--s", "0.7", "--b", "50"]],
                             ids=["farey", "sigma-b"])
    def test_non_finite_weight_coefficient_is_refused(self, tmp_path, capsys, text, command):
        # such a weight used to load and fail its sums as an overflow (exit 2)
        path = tmp_path / "w.json"
        path.write_text(text)
        code, out = run_cli(command + ["--weight", str(path)], capsys)
        error = json.loads(out)["error"]
        assert code == 1 and "weight coefficient" in error and "must be a finite number" in error

    def test_well_formed_smooth_domain(self, tmp_path, capsys):
        code, out = run_cli(["minimal-model", write_domain(tmp_path, _rounded_square([0, 1, 2, 3]))],
                            capsys)
        assert code == 0 and "error" not in json.loads(out)

    def test_pretty_mode(self, tmp_path, capsys):
        dom = write_domain(tmp_path, RECT)
        code, out = run_cli(["--pretty", "residue", dom, "--at", "1"], capsys)
        assert "value" in out and ":" in out


class TestPrettyPrecedence:
    """--pretty is read from the flag, else TROPZETA_PRETTY, else tropzeta.toml."""

    @staticmethod
    def is_pretty(capsys, argv):
        code, out = run_cli(argv + ["model", "constants"], capsys)
        assert code == 0
        return not out.startswith("{")

    def test_flag_over_env_over_toml(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("TROPZETA_PRETTY", raising=False)
        assert not self.is_pretty(capsys, [])
        (tmp_path / "tropzeta.toml").write_text("# settings\npretty = true\n")
        assert self.is_pretty(capsys, [])
        monkeypatch.setenv("TROPZETA_PRETTY", "0")
        assert not self.is_pretty(capsys, [])
        assert self.is_pretty(capsys, ["--pretty"])
        monkeypatch.delenv("TROPZETA_PRETTY")
        (tmp_path / "tropzeta.toml").write_text("pretty = 'false'\n")
        assert not self.is_pretty(capsys, [])
        monkeypatch.setenv("TROPZETA_PRETTY", "1")
        assert self.is_pretty(capsys, [])

    def test_threads_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "model", "constants"])
        assert exc.value.code == 1


def run_module(args):
    """The CLI run as `python -m tropzeta.cli args` in a child process, whose
    stderr (numpy's warnings among it) pytest does not intercept; the child
    sees neither pytest's pythonpath setting nor sys.path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "tropzeta.cli", *args],
                          capture_output=True, text=True, env=env)


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = run_module(["model", "constants"])
        assert proc.returncode == 0
        assert "gamma_one_third" in proc.stdout
