import hashlib
import json
import xml.etree.ElementTree as ET

import pytest

from ztnet.cli import emit_instance, main, parse_instance, parse_instance_text
from ztnet.errors import SchemaError
from ztnet.generators import generate
from ztnet.geometry import AxisRect, Disc, Frame, Point


class TestInstanceIO:
    def test_roundtrip_all_kinds(self, tmp_path):
        fam_a = [Point(0.25, 0.5), Disc(Point(0.1, 0.9), 0.3)]
        fam_b = [AxisRect(0.0, 0.5, 0.25, 0.75), Frame(0.1, 0.9, 0.2, 0.8)]
        path = tmp_path / "inst.json"
        path.write_text(emit_instance(fam_a, fam_b))
        ra, rb = parse_instance(path)
        assert ra == fam_a and rb == fam_b

    def test_emission_is_deterministic(self):
        fam = generate("random_discs", 5, None, 1)
        assert emit_instance(fam, fam) == emit_instance(fam, fam)

    def test_minimal_instance(self):
        text = '{"a": [{"kind": "disc", "cx": 0, "cy": 0, "r": 1}], "b": [{"kind": "disc", "cx": 1, "cy": 0, "r": 1}]}'
        fa, fb = parse_instance_text(text)
        assert len(fa) == 1 and len(fb) == 1

    def test_bad_radius_names_object_index(self):
        text = emit_instance([Disc(Point(0, 0), 1)], [Disc(Point(1, 1), 1)])
        bad = text.replace('"r": 1', '"r": -2', 1)
        with pytest.raises(SchemaError, match=r"a\[0\]"):
            parse_instance_text(bad)

    def test_error_carries_line_number(self):
        text = emit_instance([Disc(Point(0, 0), 1)], [Disc(Point(1, 1), 1), Disc(Point(2, 2), 1)])
        bad = text.replace('"cx": 2', '"cx": "east"', 1)
        with pytest.raises(SchemaError, match=r"b\[1\] \(line \d+\)"):
            parse_instance_text(bad)

    def test_invalid_json_reports_line(self):
        with pytest.raises(SchemaError, match="line"):
            parse_instance_text('{"a": [,], "b": []}')

    def test_missing_side(self):
        with pytest.raises(SchemaError):
            parse_instance_text('{"a": []}')

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown kind"):
            parse_instance_text('{"a": [{"kind": "blob"}], "b": []}')


class TestCommands:
    def test_generate_then_check_free(self, tmp_path):
        inst = tmp_path / "i.json"
        assert main(["generate", "--kind", "discs", "--n", "12", "--seed", "5",
                     "--radius-lo", "0.01", "--radius-hi", "0.03",
                     "--out", str(inst)]) == 0
        code = main(["check-free", str(inst), "--t", "2"])
        assert code in (0, 2)

    def test_net_precondition_exit_1(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        main(["generate", "--kind", "discs", "--n", "10", "--seed", "1", "--out", str(inst)])
        code = main(["net", str(inst), "--eps", "0.1", "--t", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert "eps*n >= 2t" in captured.err

    def test_net_greedy_runs(self, tmp_path):
        inst = tmp_path / "i.json"
        main(["generate", "--kind", "discs", "--n", "30", "--seed", "2", "--out", str(inst)])
        out = tmp_path / "net.json"
        assert main(["net", str(inst), "--eps", "0.5", "--t", "2",
                     "--method", "greedy", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["valid"] is True

    def test_pseudodisc_net_and_bound_run(self, tmp_path):
        inst = tmp_path / "pd.json"
        main(["generate", "--kind", "points-discs", "--n", "40", "--m", "20", "--seed", "1",
              "--radius-lo", "0.2", "--radius-hi", "0.35", "--out", str(inst)])
        net = tmp_path / "net.json"
        assert main(["net", str(inst), "--eps", "0.25", "--t", "2",
                     "--method", "pseudodisc", "--out", str(net)]) == 0
        assert json.loads(net.read_text())["valid"] is True
        out = tmp_path / "bound.json"
        assert main(["bound", str(inst), "--t", "2", "--eps", "0.3", "--net", "pseudodisc",
                     "--assume-free", "--format", "json", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["bound"] >= report["edges"]
        assert report["levels"][0]["kind"] == "recurse"

    def test_bound_on_edgeless_instance(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        inst.write_text(emit_instance([Disc(Point(0, 0), 0.1)], [Disc(Point(5, 5), 0.1)]))
        assert main(["bound", str(inst), "--t", "2"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0].startswith("level,m,n,eps")

    def test_census_and_canon_and_delaunay(self, tmp_path):
        inst = tmp_path / "r.json"
        main(["generate", "--kind", "rects", "--n", "15", "--seed", "4", "--out", str(inst)])
        assert main(["census", str(inst), "--out", str(tmp_path / "c.json")]) == 0
        assert main(["canon", str(inst), "--t", "2", "--out", str(tmp_path / "k.json")]) == 0
        svg = tmp_path / "d.svg"
        assert main(["delaunay", str(inst), "--out", str(svg)]) == 0
        ET.fromstring(svg.read_text())

    def test_shrink_requires_points_discs(self, tmp_path):
        inst = tmp_path / "r.json"
        main(["generate", "--kind", "rects", "--n", "6", "--seed", "4", "--out", str(inst)])
        assert main(["shrink", str(inst), "--t", "2"]) == 1

    def test_shrink_on_points_discs(self, tmp_path):
        inst = tmp_path / "pd.json"
        main(["generate", "--kind", "points-discs", "--n", "25", "--m", "8",
              "--seed", "9", "--radius-lo", "0.05", "--radius-hi", "0.12",
              "--out", str(inst)])
        code = main(["shrink", str(inst), "--t", "2", "--out", str(tmp_path / "s.json")])
        assert code in (0, 1)  # 1 when the random instance is not K_{2,2}-free

    def test_missing_file_exit_1(self):
        assert main(["check-free", "/nonexistent/path.json", "--t", "2"]) == 1

    def test_budget_flag_exit_1(self, tmp_path):
        inst = tmp_path / "i.json"
        main(["generate", "--kind", "discs", "--n", "30", "--seed", "2", "--out", str(inst)])
        assert main(["check-free", str(inst), "--t", "2", "--budget", "3"]) == 1

    def test_net_dual_side(self, tmp_path):
        inst = tmp_path / "i.json"
        main(["generate", "--kind", "discs", "--n", "24", "--seed", "6", "--out", str(inst)])
        out = tmp_path / "net.json"
        assert main(["net", str(inst), "--eps", "0.5", "--t", "2", "--side", "dual",
                     "--method", "greedy", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["side"] == "dual"

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["net", "--eps", "oops"])
        assert exc.value.code == 1

    def test_dyadic_generate(self, tmp_path):
        inst = tmp_path / "dy.json"
        assert main(["generate", "--kind", "points-dyadic", "--n", "16", "--m", "10",
                     "--seed", "3", "--out", str(inst)]) == 0
        fa, fb = parse_instance(inst)
        assert all(isinstance(p, Point) for p in fa)
        assert all(isinstance(r, AxisRect) for r in fb)


class TestSuiteCommand:
    def test_quick_suite_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["suite", "--seed", "11", "--quick", "--out", str(out1)]) == 0
        assert main(["suite", "--seed", "11", "--quick", "--out", str(out2)]) == 0
        for name in ("suite_report.csv", "suite_report.json", "bound_levels.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_quick_suite_matches_golden_digests(self, tmp_path):
        # sha256 of `ztnet suite --seed 7 --quick` reports, as listed in ROADMAP.md
        golden = {
            "bound_levels.csv": "722b500596000f878789ffcf5cd966f8d0a9d3a64331ddded48f4a7388255cdd",
            "suite_report.csv": "5c40e001ec8af5ff7864aedc1462ee904db35ff6d8a5a400c289cb745b327e94",
            "suite_report.json": "f5a1e5a47ca3285dd4f03d2730eeca2411450523cb0bb75892824a624e855ea5",
        }
        out = tmp_path / "s"
        assert main(["suite", "--seed", "7", "--quick", "--out", str(out)]) == 0
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_report_embeds_seed_and_config(self, tmp_path):
        out = tmp_path / "s"
        main(["suite", "--seed", "23", "--quick", "--out", str(out)])
        payload = json.loads((out / "suite_report.json").read_text())
        assert payload["config"]["seed"] == 23
        assert payload["all_passed"] is True
