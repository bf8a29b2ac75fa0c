import contextlib
import hashlib
import io
import json
import xml.etree.ElementTree as ET

import pytest

import ztnet.cli
from ztnet.cli import emit_instance, main, parse_instance, parse_instance_text
from ztnet.errors import SchemaError
from ztnet.generators import generate, prune_to_ktt_free
from ztnet.geometry import AxisRect, Disc, Frame, Point
from ztnet.hypergraph import BipartiteIntersectionGraph


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

    def test_braces_inside_strings_do_not_shift_lines(self):
        for note in ('"}}"', '"{"', '"\\"{"'):
            text = (
                '{"a": [\n'
                f'  {{"kind": "point", "x": 0, "y": 0, "note": {note}}},\n'
                '  {"kind": "point", "x": 1, "y": 1},\n'
                '  {"kind": "point", "x": "bad", "y": 2}\n'
                '], "b": []}\n'
            )
            with pytest.raises(SchemaError, match=r"^a\[2\] \(line 4\): field 'x'"):
                parse_instance_text(text)

    def test_valid_parse_never_scans_for_lines(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("line scan on a valid instance")

        monkeypatch.setattr(ztnet.cli, "_element_line", no_scan)
        fam_a = generate("random_discs", 1000, None, 1)
        fam_b = generate("random_discs", 1000, None, 2)
        assert parse_instance_text(emit_instance(fam_a, fam_b)) == (fam_a, fam_b)

    def test_invalid_json_reports_line(self):
        with pytest.raises(SchemaError, match="line"):
            parse_instance_text('{"a": [,], "b": []}')

    def test_missing_side(self):
        with pytest.raises(SchemaError):
            parse_instance_text('{"a": []}')

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown kind"):
            parse_instance_text('{"a": [{"kind": "blob"}], "b": []}')

    @pytest.mark.parametrize("value", ["1" + "0" * 400, "-" + "9" * 309, str(2**1024)])
    def test_integer_beyond_float_range_is_not_finite(self, value):
        text = '{"a": [], "b": [\n{"kind": "disc", "cx": 0, "cy": %s, "r": 1}]}' % value
        with pytest.raises(SchemaError, match=r"^b\[0\] \(line 2\): field 'cy' must be finite$"):
            parse_instance_text(text)


class TestCommands:
    def test_generate_then_check_free(self, tmp_path):
        inst = tmp_path / "i.json"
        assert main(["generate", "--kind", "discs", "--n", "12", "--seed", "5",
                     "--radius-lo", "0.01", "--radius-hi", "0.03",
                     "--out", str(inst)]) == 0
        code = main(["check-free", str(inst), "--t", "2"])
        assert code in (0, 2)

    @pytest.mark.parametrize("kind, radii", [
        ("discs", ["--radius-hi", "inf"]),
        ("discs", ["--radius-lo", "inf", "--radius-hi", "inf"]),
        ("points-discs", ["--radius-hi", "inf"]),
    ])
    def test_generate_rejects_infinite_radius(self, tmp_path, capsys, kind, radii):
        inst = tmp_path / "i.json"
        assert main(["generate", "--kind", kind, "--n", "3", *radii, "--out", str(inst)]) == 1
        assert "error: need 0 < radius_lo <= radius_hi < inf" in capsys.readouterr().err
        assert not inst.exists()

    @pytest.mark.parametrize("command", [["census"], ["check-free", "--t", "2"]])
    def test_huge_integer_coordinate_exits_1(self, tmp_path, capsys, command):
        inst = tmp_path / "i.json"
        inst.write_text('{"a": [{"kind": "point", "x": 1' + "0" * 400 + ', "y": 0}], "b": []}')
        assert main([command[0], str(inst), *command[1:]]) == 1
        assert capsys.readouterr().err == "error: a[0] (line 1): field 'x' must be finite\n"

    @pytest.mark.parametrize("size", [["--n", "-1"], ["--n", "4", "--m", "-2"], ["--n", "x"]])
    def test_generate_rejects_negative_sizes(self, tmp_path, capsys, size):
        inst = tmp_path / "i.json"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--kind", "discs", *size, "--out", str(inst)])
        assert exc.value.code == 1
        assert f"error: argument {size[-2]}: " in capsys.readouterr().err
        assert not inst.exists()

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

    def test_pseudodisc_bound_with_small_heavy_side(self, tmp_path):
        # level 1 keeps 9 heavy points, and the stacked cover needs eps*9 >= 4
        inst = tmp_path / "pd.json"
        main(["generate", "--kind", "points-discs", "--n", "40", "--m", "20", "--seed", "3",
              "--radius-lo", "0.2", "--radius-hi", "0.35", "--out", str(inst)])
        out = tmp_path / "bound.json"
        assert main(["bound", str(inst), "--t", "2", "--net", "pseudodisc", "--eps", "0.25",
                     "--assume-free", "--format", "json", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["bound"] >= report["edges"]
        assert [lv["eps"] for lv in report["levels"]] == ["1/4", "4/9"]

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

    def test_budget_flag_exit_1(self, tmp_path, capsys):
        # a K_{2,2}-free instance, so the search runs to its end: 34 tests of
        # single vertices and 4 of pairs
        fam_a, fam_b = generate("random_discs", 40, None, 2), generate("random_discs", 40, None, 102)
        pruned = prune_to_ktt_free(BipartiteIntersectionGraph.from_families(fam_a, fam_b), 2).graph
        inst = tmp_path / "i.json"
        inst.write_text(emit_instance(pruned.side_a, pruned.side_b))
        capsys.readouterr()
        for budget in ("0", "3", "37"):
            assert main(["check-free", str(inst), "--t", "2", "--budget", budget]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: witness search stopped after {budget} search steps "
                                  f"(budget {budget}); the neighbourhoods hold sum_b C(deg b, 2) = ")
        assert main(["check-free", str(inst), "--t", "2", "--budget", "38"]) == 0
        assert capsys.readouterr().out == "free\n"

    def test_t_and_budget_out_of_range_exit_1(self, tmp_path, capsys):
        inst = tmp_path / "r.json"
        main(["generate", "--kind", "rects", "--n", "10", "--seed", "1", "--out", str(inst)])
        for cmd in (["check-free"], ["net", "--eps", "0.25"], ["bound"], ["canon"], ["shrink"]):
            for t in ("0", "-2", "two"):
                with pytest.raises(SystemExit) as exc:
                    main(cmd + [str(inst), "--t", t])
                assert exc.value.code == 1, (cmd, t)
                assert "error: argument --t: " in capsys.readouterr().err, (cmd, t)
        for cmd in ("check-free", "bound", "shrink"):
            for budget in ("-1", "1.5"):
                with pytest.raises(SystemExit) as exc:
                    main([cmd, str(inst), "--t", "2", "--budget", budget])
                assert exc.value.code == 1, (cmd, budget)
                assert "error: argument --budget: " in capsys.readouterr().err, (cmd, budget)

    def test_net_dual_side(self, tmp_path):
        inst = tmp_path / "i.json"
        main(["generate", "--kind", "discs", "--n", "24", "--seed", "6", "--out", str(inst)])
        out = tmp_path / "net.json"
        assert main(["net", str(inst), "--eps", "0.5", "--t", "2", "--side", "dual",
                     "--method", "greedy", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["side"] == "dual"

    def test_shared_edge_line_exits_1(self, tmp_path, capsys):
        # a vertical at x = 1 over [0, 1] meets segments {0, 2, 1}, which the
        # open-interval sweep cannot see, so canon and delaunay refuse the
        # file as census does rather than print an incomplete result
        inst = tmp_path / "shared.json"
        inst.write_text(emit_instance([AxisRect(0, 1, 0, 1), AxisRect(1, 2, 0.5, 1.5)], [AxisRect(5, 6, 5, 6)]))
        for cmd, message in (
            (["canon", "--t", "2"], "side a rectangles share an edge line"),
            (["delaunay"], "side a rectangles share an edge line"),
            (["delaunay", "--format", "json"], "side a rectangles share an edge line"),
            (["census"], "rectangle families share an edge line"),
        ):
            assert main([cmd[0], str(inst), *cmd[1:]]) == 1, cmd
            out = capsys.readouterr()
            assert out.out == "" and out.err == f"error: {message}\n", cmd

    def test_negative_budget_env_exits_1(self, tmp_path, capsys, monkeypatch):
        inst = tmp_path / "r.json"
        main(["generate", "--kind", "rects", "--n", "10", "--seed", "1", "--out", str(inst)])
        monkeypatch.setenv("ZTNET_BUDGET", "-5")
        for cmd in ("check-free", "bound"):
            assert main([cmd, str(inst), "--t", "2"]) == 1, cmd
            assert capsys.readouterr().err == "error: ZTNET_BUDGET must be >= 0, got -5\n", cmd

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["net", "--eps", "oops"])
        assert exc.value.code == 1

    def test_malformed_or_nonpositive_eps_exit_1(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        main(["generate", "--kind", "discs", "--n", "12", "--seed", "1", "--out", str(inst)])
        bound = ["bound", str(inst), "--t", "2", "--assume-free"]
        for argv in (
            ["net", str(inst), "--t", "2", "--eps", "1/0"],
            ["net", str(inst), "--t", "2", "--eps", "0"],
            bound + ["--eps", "1/0"],
            bound + ["--eps", "0"],
            bound + ["--eps", "-1"],
            bound + ["--eps", "0.25", "--eps-prime", "1/0"],
            bound + ["--eps", "0.25", "--eps-prime", "-0.5"],
            ["net", str(inst), "--t", "2", "--eps", "2"],
            ["net", str(inst), "--t", "2", "--eps", "3/2"],
            bound + ["--eps", "2"],
            bound + ["--eps", "3/2"],
            bound + ["--eps", "0.25", "--eps-prime", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1, argv
            assert "argument --eps" in capsys.readouterr().err, argv
        for argv in (["net", str(inst), "--t", "2", "--eps", "2"], bound + ["--eps", "2"]):
            with pytest.raises(SystemExit):
                main(argv)
            assert "error: argument --eps: must be <= 1, got '2'" in capsys.readouterr().err

    def test_eps_prime_without_eps_exit_1(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        main(["generate", "--kind", "discs", "--n", "12", "--seed", "1", "--out", str(inst)])
        with pytest.raises(SystemExit) as exc:
            main(["bound", str(inst), "--t", "2", "--assume-free", "--eps-prime", "0.3"])
        assert exc.value.code == 1
        assert "--eps-prime requires --eps" in capsys.readouterr().err

    def test_dyadic_generate(self, tmp_path):
        inst = tmp_path / "dy.json"
        assert main(["generate", "--kind", "points-dyadic", "--n", "16", "--m", "10",
                     "--seed", "3", "--out", str(inst)]) == 0
        fa, fb = parse_instance(inst)
        assert all(isinstance(p, Point) for p in fa)
        assert all(isinstance(r, AxisRect) for r in fb)


# One small seeded instance per --kind, plus one with a malformed object; the
# digests pin each command's (exit code, stdout, stderr) byte for byte.
_PINNED_KINDS = {
    "discs": ["--n", "24"],
    "rects": ["--n", "24"],
    "frames": ["--n", "24"],
    "points-discs": ["--n", "30", "--m", "12", "--radius-lo", "0.05", "--radius-hi", "0.12"],
    "points-dyadic": ["--n", "16", "--m", "10"],
}
_PINNED_COMMANDS = (
    ["check-free", "--t", "2"],
    ["bound", "--t", "2", "--assume-free"],
    ["bound", "--t", "2", "--eps", "0.25", "--assume-free", "--format", "json"],
    ["net", "--eps", "0.25", "--t", "2", "--method", "greedy"],
    ["net", "--eps", "0.25", "--t", "2", "--method", "pseudodisc", "--side", "dual"],
    ["census", "--format", "csv"],
    ["canon", "--t", "2"],
    ["shrink", "--t", "2"],
    ["delaunay", "--format", "json"],
    ["delaunay"],
)


def _run_cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def cli_digests(tmp_dir) -> dict[str, str]:
    digests = {}
    for kind, size in _PINNED_KINDS.items():
        inst = tmp_dir / f"{kind}.json"
        gen = ["generate", "--kind", kind, "--seed", "1", *size]
        digests[kind + " generate"] = _run_cli(gen)
        main(gen + ["--out", str(inst)])
        for cmd in _PINNED_COMMANDS:
            digests[" ".join([kind, *cmd])] = _run_cli([cmd[0], str(inst), *cmd[1:]])
    bad = tmp_dir / "bad.json"
    bad.write_text((tmp_dir / "discs.json").read_text().replace('"r": ', '"r": -', 1))
    digests["bad check-free"] = _run_cli(["check-free", str(bad), "--t", "2"])
    return digests


class TestCliBytes:
    GOLDEN = {
        "discs generate":
            "3421c8b6ef09237de646ed917a3cc834e2c9031c38fb47a083cf9c17c98ce5d1",
        "discs check-free --t 2":
            "94cc42ccae58273113965102a004f5b291f57355081d54484cdf3a491c7d5740",
        "discs bound --t 2 --assume-free":
            "13c7c331966a8105fc313dc638b81e70da043ec4a23866bff5acfb7364e48a3c",
        "discs bound --t 2 --eps 0.25 --assume-free --format json":
            "307853518587f1967a9060e4a983c5358220a77f3a9892a43fead7aa129b6227",
        "discs net --eps 0.25 --t 2 --method greedy":
            "7f5e460f0d312715a23ae5e80a36919d89cf05d9b90561b38805e5d5578fc785",
        "discs net --eps 0.25 --t 2 --method pseudodisc --side dual":
            "84a3219056703ff966b2edb53065baf02b1e131d30f2cdc46ae02526ba301b20",
        "discs census --format csv":
            "dc231f71866602d8d81dd55ac3993fa56c487d916bd8d845e2588278e2370738",
        "discs canon --t 2":
            "dc231f71866602d8d81dd55ac3993fa56c487d916bd8d845e2588278e2370738",
        "discs shrink --t 2":
            "5d2ed94b78a7ffaa645a0e695faf192e0e44adab67df42e3aa64843c039a288f",
        "discs delaunay --format json":
            "dc231f71866602d8d81dd55ac3993fa56c487d916bd8d845e2588278e2370738",
        "discs delaunay":
            "dc231f71866602d8d81dd55ac3993fa56c487d916bd8d845e2588278e2370738",
        "rects generate":
            "1677580257ed8eb13335e60e0ed50e12b0e644d9c037807795eac7f26dcbd7d0",
        "rects check-free --t 2":
            "6dfa5e3ab797a348495cd0a02465818538da065926ebbdb6cbf5668f5e262444",
        "rects bound --t 2 --assume-free":
            "7f2f3d3af99503c425deee7c135ae56399ae6721e6830069587a00454d9571b8",
        "rects bound --t 2 --eps 0.25 --assume-free --format json":
            "d94992ae9cd3cdcac178877faf57bd6b605f17b05d71c57c979c484d18e600a6",
        "rects net --eps 0.25 --t 2 --method greedy":
            "6619c3877b1b38b6a261efc3d903b0a27aba4a881b37d93193929bba04ebf820",
        "rects net --eps 0.25 --t 2 --method pseudodisc --side dual":
            "e7097bab3b36fd7f178382d1d834d2fe618ac702c6d0760005265d8367bd1b06",
        "rects census --format csv":
            "e958c4be68c3aea6408f442694375c0db6367a5e891f536ca27534de08ad6e1d",
        "rects canon --t 2":
            "31b361e726b7a3205bc5c1f10d604ed4e2d25db0ec0f5ce5717ded8d35c01822",
        "rects shrink --t 2":
            "5d2ed94b78a7ffaa645a0e695faf192e0e44adab67df42e3aa64843c039a288f",
        "rects delaunay --format json":
            "0b79434ea93e3e9529745324d870ace75c39c8e9aabd851833873ec9119c87b9",
        "rects delaunay":
            "73524bc68d88374d5d2b696df7276704922eef95261eabdebb6b7ddde1b0acdf",
        "frames generate":
            "e855eb393c14888a7fd172effa5b6ec3d3b398b83785d69a30d50e3d5129739f",
        "frames check-free --t 2":
            "6dfa5e3ab797a348495cd0a02465818538da065926ebbdb6cbf5668f5e262444",
        "frames bound --t 2 --assume-free":
            "d5fc85448edddd585eb4e115893c5915e24c646d2a1b19a417585ff6bc226d8e",
        "frames bound --t 2 --eps 0.25 --assume-free --format json":
            "487c1eadd133e52ce7049d7bc224b6cc0965f1b0613e951fdbd00ac89b5d5484",
        "frames net --eps 0.25 --t 2 --method greedy":
            "6619c3877b1b38b6a261efc3d903b0a27aba4a881b37d93193929bba04ebf820",
        "frames net --eps 0.25 --t 2 --method pseudodisc --side dual":
            "e7097bab3b36fd7f178382d1d834d2fe618ac702c6d0760005265d8367bd1b06",
        "frames census --format csv":
            "e958c4be68c3aea6408f442694375c0db6367a5e891f536ca27534de08ad6e1d",
        "frames canon --t 2":
            "31b361e726b7a3205bc5c1f10d604ed4e2d25db0ec0f5ce5717ded8d35c01822",
        "frames shrink --t 2":
            "5d2ed94b78a7ffaa645a0e695faf192e0e44adab67df42e3aa64843c039a288f",
        "frames delaunay --format json":
            "0b79434ea93e3e9529745324d870ace75c39c8e9aabd851833873ec9119c87b9",
        "frames delaunay":
            "73524bc68d88374d5d2b696df7276704922eef95261eabdebb6b7ddde1b0acdf",
        "points-discs generate":
            "4480598171f3e9eb0611fd75db121ccb9bbadab7c2dfc4be47f405c47d91414c",
        "points-discs check-free --t 2":
            "e4ec21d8818051553614008ce2ae61ed0d3174bd675434f8aa600d6e6ba8315e",
        "points-discs bound --t 2 --assume-free":
            "2bb646fb896cbce01e30f41a1318123896b15446c9e23baac7d7da2bf4c39262",
        "points-discs bound --t 2 --eps 0.25 --assume-free --format json":
            "c34a7541826e151ec15a49875810d9706583a9ff7b9089a5003ee276c8cd32b6",
        "points-discs net --eps 0.25 --t 2 --method greedy":
            "7f5e460f0d312715a23ae5e80a36919d89cf05d9b90561b38805e5d5578fc785",
        "points-discs net --eps 0.25 --t 2 --method pseudodisc --side dual":
            "c830038f49b3f988bf5441c251d75d8fbc6720748820c882ad4764d152bf4198",
        "points-discs census --format csv":
            "dc231f71866602d8d81dd55ac3993fa56c487d916bd8d845e2588278e2370738",
        "points-discs canon --t 2":
            "83ad287f7a5839563e4645b4131636603f244bf823bd7679f1fa44657f1260d0",
        "points-discs shrink --t 2":
            "cdd4fb84f6fcca91fbaa49d2599510873aeced1c490b07c2f0d00d12cb345775",
        "points-discs delaunay --format json":
            "dc231f71866602d8d81dd55ac3993fa56c487d916bd8d845e2588278e2370738",
        "points-discs delaunay":
            "dc231f71866602d8d81dd55ac3993fa56c487d916bd8d845e2588278e2370738",
        "points-dyadic generate":
            "19a2f4d1ab750376ab739bf5ab019b98a57821161057a382c8e74f08a3c10151",
        "points-dyadic check-free --t 2":
            "e4ec21d8818051553614008ce2ae61ed0d3174bd675434f8aa600d6e6ba8315e",
        "points-dyadic bound --t 2 --assume-free":
            "a9840875191fd01c1e5a535d7524aff45ed250101347aa0ad59d9662110b5634",
        "points-dyadic bound --t 2 --eps 0.25 --assume-free --format json":
            "0b09d73bb86e15ce89313b684f4e04aab375562b60e9f93abaf4503c648c46d8",
        "points-dyadic net --eps 0.25 --t 2 --method greedy":
            "7f5e460f0d312715a23ae5e80a36919d89cf05d9b90561b38805e5d5578fc785",
        "points-dyadic net --eps 0.25 --t 2 --method pseudodisc --side dual":
            "6741c5fe05cf1457c355471bb4c414591dba6f45e892a5b857adae27e736a6c9",
        "points-dyadic census --format csv":
            "dc231f71866602d8d81dd55ac3993fa56c487d916bd8d845e2588278e2370738",
        "points-dyadic canon --t 2":
            "dc231f71866602d8d81dd55ac3993fa56c487d916bd8d845e2588278e2370738",
        "points-dyadic shrink --t 2":
            "5d2ed94b78a7ffaa645a0e695faf192e0e44adab67df42e3aa64843c039a288f",
        "points-dyadic delaunay --format json":
            "dc231f71866602d8d81dd55ac3993fa56c487d916bd8d845e2588278e2370738",
        "points-dyadic delaunay":
            "dc231f71866602d8d81dd55ac3993fa56c487d916bd8d845e2588278e2370738",
        "bad check-free":
            "7fcd9e8d43b670c88c32d39f137a7b36285bb072bd0e41aad2fc26ddae632e8e",
    }

    def test_outputs_match_pinned_digests(self, tmp_path):
        assert cli_digests(tmp_path) == self.GOLDEN


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
