"""CLI commands, report formats, exit codes, and determinism."""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import duadic
from duadic import _linalg, algebra, cli, codes, groups
from duadic.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INTERRUPTED,
    EXIT_NO_SPLITTING,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    CodeReport,
    emit_json,
    main,
    parse_group_spec,
    parse_mu_spec,
)
from duadic.errors import VerificationError
from duadic.groups import builtin_mu_minus1, builtin_mu_swap, group_abelian, group_from_cayley, cyclic_group
from duadic.quantum import DistanceRecord

from conftest import frobenius21_table, metacyclic_table
from oracles import format_cayley


class TestSpecParsing:
    def test_cyclic(self):
        assert parse_group_spec("7").order == 7

    def test_abelian(self):
        g = parse_group_spec("3x3")
        assert g.abelian_orders == (3, 3)

    def test_outer_product(self):
        assert parse_group_spec("3x3,3x3").order == 81

    def test_cayley_file(self, tmp_path):
        path = tmp_path / "g.cayley"
        path.write_text(format_cayley(cyclic_group(7)), encoding="utf-8")
        assert parse_group_spec(f"@{path}").order == 7

    def test_bad_spec(self):
        with pytest.raises(ValueError, match="bad group spec"):
            parse_group_spec("3y3")

    def test_mu_specs(self):
        g = group_abelian([3, 3])
        assert parse_mu_spec("mu-1", g, 2).descriptor == "mu-1"
        assert parse_mu_spec("swap", g, 2).descriptor == "swap"
        gp = parse_group_spec("3x3,3x3")
        mu = parse_mu_spec("swap*swap", gp, 2)
        assert mu.group.order == 81

    def test_mu_perm_file(self, tmp_path):
        g = cyclic_group(7)
        path = tmp_path / "inv.perm"
        path.write_text("7\n0 6 5 4 3 2 1\n0\n", encoding="utf-8")
        mu = parse_mu_spec(f"@{path}", g, 2)
        assert mu.mu_star[3] == 4

    def test_product_mu_reuses_the_parsed_factors(self, tmp_path, monkeypatch):
        # A*B maps the factors the outer product kept: each Cayley file is read once
        specs = []
        for name in "ab":
            path = tmp_path / f"{name}.cayley"
            path.write_text(format_cayley(cyclic_group(7)), encoding="utf-8")
            specs.append(f"@{path}")
        calls = []
        parse = groups.parse_cayley_text
        monkeypatch.setattr(groups, "parse_cayley_text", lambda *a, **kw: calls.append(a) or parse(*a, **kw))
        group = parse_group_spec(",".join(specs))
        mu = parse_mu_spec("mu-1*mu-1", group, 2)
        assert len(calls) == 2
        assert [g.descriptor for g in group.factors] == specs
        assert mu.descriptor == "mu-1*mu-1" and mu == builtin_mu_minus1(group)


class TestScan:
    def test_existence_pattern(self, capsys):
        code = main(["scan", "--family", "cyclic", "--n", "3-45", "--q", "2", "--mu", "mu-1", "--json"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        exists = {r["group"] for r in rows if r["existence"]["class_criterion"]}
        assert exists == {"7", "23", "31"}
        assert all(r["existence"]["agree"] for r in rows)

    def test_pxp_family(self, capsys):
        code = main(["scan", "--family", "pxp", "--p", "3,5", "--q", "2", "--mu", "swap", "--json"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [(r["group"], r["existence"]["class_criterion"]) for r in rows] == [
            ("3x3", True),
            ("5x5", True),
        ]

    @pytest.mark.parametrize("n", ["4", "4-4", "2,4,6"])
    def test_no_odd_order_exits_1(self, capsys, n):
        assert main(["scan", "--n", n, "--q", "2", "--json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"duadic: error: --n {n!r} holds no odd order; duadic codes need odd order\n"

    @pytest.mark.parametrize("n,order", [("3-513", 513), ("513", 513), ("3,1025", 1025)])
    def test_over_cap_order_exits_1_before_any_group_is_built(self, capsys, monkeypatch, n, order):
        def no_build(order):
            raise AssertionError(f"cyclic_group({order}) called")

        monkeypatch.setattr(cli, "cyclic_group", no_build)
        assert main(["scan", "--n", n, "--q", "2", "--json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"duadic: error: group order {order} exceeds the validation cap 512\n"

    def test_groups_are_built_one_per_step(self, capsys, monkeypatch):
        built, orders_seen = [], []

        def record(order):
            built.append(order)
            return cyclic_group(order)

        def check(group, cells):
            orders_seen.append((group.order, list(built)))
            return real_check(group, cells)

        real_check = cli._class_criterion
        monkeypatch.setattr(cli, "cyclic_group", record)
        monkeypatch.setattr(cli, "_class_criterion", check)
        assert main(["scan", "--n", "3-7", "--q", "2", "--json"]) == EXIT_OK
        assert orders_seen == [(3, [3]), (5, [3, 5]), (7, [3, 5, 7])]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--family", "pxp", "--p", "4", "--q", "3"], "group 4x4 has even order 16"),
            (["--family", "pxp", "--p", "3,2", "--q", "5"], "group 2x2 has even order 4"),
            (["--n", "45-3", "--q", "2"], "reversed range '45-3'"),
            (["--n", "-3", "--q", "2"], "--n expects a range like 3-45 or a comma list of integers, got '-3'"),
            (["--n", "3-x", "--q", "2"], "--n expects a range like 3-45 or a comma list of integers, got '3-x'"),
            (["--n", "3,x", "--q", "2"], "--n expects a range like 3-45 or a comma list of integers, got '3,x'"),
            (["--family", "pxp", "--p", "3,x", "--q", "2"], "--p expects a comma list of integers, got '3,x'"),
            (["--n", "3-9", "--q", "2,x"], "--q expects a comma list of integers, got '2,x'"),
            (["--n", "3-9", "--q", "0"], "0 is not a prime power"),
            (["--n", "3-9", "--q", "2,0"], "0 is not a prime power"),
            (["--family", "bogus", "--q", "2"], "argument --family: invalid choice: 'bogus'"),
        ],
    )
    def test_bad_input_exits_1_with_one_line(self, capsys, argv, message):
        assert main(["scan", *argv, "--json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("duadic: error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    def test_perm_file_mu_is_parsed_once_per_group(self, tmp_path, capsys, monkeypatch):
        # only swap reads q: a permutation file is read and checked once for all five fields
        monkeypatch.chdir(tmp_path)
        (tmp_path / "inv.perm").write_text("7\n0 6 5 4 3 2 1\n0\n", encoding="utf-8")
        calls = []
        parse = cli.parse_permutation_text
        monkeypatch.setattr(cli, "parse_permutation_text", lambda *a, **kw: calls.append(a) or parse(*a, **kw))
        assert main(["scan", "--n", "7", "--q", "2,3,4,5,9", "--mu", "@inv.perm", "--json"]) == EXIT_OK
        out = capsys.readouterr().out
        assert len(calls) == 1
        # the cells of five one-field scans, each of which reads the file itself
        cells = []
        for q in "2,3,4,5,9".split(","):
            assert main(["scan", "--n", "7", "--q", q, "--mu", "@inv.perm", "--json"]) == EXIT_OK
            cells += json.loads(capsys.readouterr().out)
        assert out == emit_json([CodeReport(**cell) for cell in cells])

    def test_swap_is_parsed_per_field(self, capsys, monkeypatch):
        calls = []
        swap = cli.builtin_mu_swap
        monkeypatch.setattr(cli, "builtin_mu_swap", lambda g, q: calls.append(q) or swap(g, q))
        assert main(["scan", "--family", "pxp", "--p", "3,5", "--q", "2,4", "--mu", "swap", "--json"]) == EXIT_OK
        assert calls == [2, 4, 2, 4]

    def test_byte_identical_runs(self, capsys):
        argv = ["scan", "--family", "cyclic", "--n", "3-45", "--q", "2,3,4,5,7,9", "--mu", "mu-1", "--json"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    def test_human_table(self, capsys):
        assert main(["scan", "--n", "7-7", "--q", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "group" in out and "yes" in out

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--mu", "bogus"], "bad mu spec 'bogus'"),
            (["--family", "cyclic", "--mu", "swap"], "Z_p x Z_p"),
        ],
    )
    def test_bad_mu_is_usage_error_not_dropped_cells(self, capsys, argv, message):
        assert main(["scan", *argv, "--json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("duadic: error: ") and message in captured.err
        assert captured.err.count("\n") == 1


def _without_time(out: str) -> str:
    """A text report without its `time:` line, the one line that varies between runs."""
    return "".join(line for line in out.splitlines(keepends=True) if not line.startswith("time: "))


class TestConstruct:
    def test_steane(self, capsys):
        code = main(["construct", "--group", "7", "--q", "2", "--mu", "mu-1", "--json"])
        assert code == EXIT_OK
        (row,) = json.loads(capsys.readouterr().out)
        assert row["dims"] == {"c_e": 3, "c_f": 3, "d_e": 4, "d_f": 4}
        assert row["quantum"]["params"] == "[[7,1,3]]_2"
        assert row["duality"]["case"] == "i"
        assert row["timing_ms"] is None

    def test_swap_enumerate_all_contains_paper_idempotents(self, capsys):
        code = main(
            ["construct", "--group", "3x3", "--q", "2", "--mu", "swap", "--enumerate-all", "--json"]
        )
        assert code == EXIT_OK
        (row,) = json.loads(capsys.readouterr().out)
        e1 = [["a^1*b^0", 1], ["a^1*b^1", 1], ["a^2*b^0", 1], ["a^2*b^2", 1]]
        f1 = [["a^0*b^1", 1], ["a^0*b^2", 1], ["a^1*b^2", 1], ["a^2*b^1", 1]]
        assert {"e": e1, "f": f1} in row["pairs"]

    def test_product_81(self, capsys):
        code = main(
            ["construct", "--group", "3x3,3x3", "--q", "2", "--mu", "swap", "--product", "--json"]
        )
        assert code == EXIT_OK
        (row,) = json.loads(capsys.readouterr().out)
        assert row["quantum"]["params"] == "[[81,1,>=9]]_2"
        assert row["quantum"]["exact"] is False
        assert row["dims"] == {"c_e": 40, "c_f": 40, "d_e": 41, "d_f": 41}
        assert row["degeneracy"]["degenerate"] is True

    def test_no_splitting_exit_2(self, capsys):
        code = main(["construct", "--group", "9", "--q", "2", "--mu", "mu-1"])
        assert code == EXIT_NO_SPLITTING
        err = capsys.readouterr().err
        assert "ord_9(2) = 6 is even" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--group", "9", "--q", "2", "--mu", "mu-1"], "on 9 over GF(2); ord_9(2) = 6 is even; 2 nontrivial"),
            # the product construction names the factor that does not split
            (["--group", "3,7", "--q", "2", "--mu", "mu-1", "--product"], "on 3 over GF(2); ord_3(2) = 2 is even; 1 nontrivial"),
        ],
    )
    def test_no_splitting_message(self, capsys, argv, message):
        assert main(["construct", *argv]) == EXIT_NO_SPLITTING
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"duadic: no splitting for mu=mu-1 {message} fixed idempotent(s)\n"

    def test_inversion_from_a_perm_file_has_the_ord_criterion(self, tmp_path, capsys):
        # the ord criterion belongs to the inversion map, whatever spec names it
        path = tmp_path / "inv7.perm"
        path.write_text("7\n0 6 5 4 3 2 1\n", encoding="utf-8")
        assert main(["construct", "--group", "7", "--q", "2", "--mu", f"@{path}", "--json"]) == EXIT_OK
        (row,) = json.loads(capsys.readouterr().out)
        assert row["existence"] == {"class_criterion": True, "ord_criterion": True, "agree": True}
        assert main(["construct", "--group", "7", "--q", "3", "--mu", f"@{path}"]) == EXIT_NO_SPLITTING
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"duadic: no splitting for mu=@{path} on 7 over GF(3); ord_7(3) = 6 is even; "
            "1 nontrivial fixed idempotent(s)\n"
        )

    @pytest.mark.parametrize(
        "argv,files,message",
        [
            (["--group", "3,3,3", "--q", "2", "--mu", "mu-1"], {}, "outer products take exactly two factors"),
            (
                ["--group", "7", "--q", "2", "--mu", "mu-1*mu-1"],
                {},
                "product mu spec needs an outer-product group spec",
            ),
            (
                ["--group", "3", "--q", "2", "--mu", "@m.perm"],
                {"m.perm": "3\n1 0 2\n"},
                "mu_star must fix the identity",
            ),
            (
                ["--group", "@g.cayley", "--q", "2", "--mu", "mu-1"],
                {"g.cayley": "0\n"},
                "group order must be >= 1, got 0 (line 1)",
            ),
            # refused at the order line, before any row is read or counted
            (
                ["--group", "@g.cayley", "--q", "2", "--mu", "mu-1"],
                {"g.cayley": "513\n"},
                "group order 513 exceeds the validation cap 512",
            ),
        ],
        ids=["three-factors", "product-mu", "identity-moved", "order-0", "order-over-cap"],
    )
    def test_input_guard_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys, argv, files, message):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        assert main(["construct", *argv, "--json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"duadic: error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--group", "1", "--q", "2", "--mu", "mu-1"],
            ["--group", "1", "--q", "2", "--mu", "mu-1", "--enumerate-all"],
            # either trivial factor of a product, as the plain trivial group
            ["--group", "1,7", "--q", "2", "--mu", "mu-1", "--product"],
            ["--group", "7,1", "--q", "2", "--mu", "mu-1", "--product"],
        ],
        ids=["plain", "enumerate-all", "product-left", "product-right"],
    )
    def test_trivial_group_exits_2(self, capsys, argv):
        assert main(["construct", *argv]) == EXIT_NO_SPLITTING
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "duadic: the trivial group carries no duadic pairs\n"

    @pytest.mark.parametrize(
        "argv,code,err",
        [
            # G1,G2 splits at the first comma: 7 x (7,7), the one map on both factors
            (["--group", "7,7,7", "--q", "2", "--mu", "mu-1"], EXIT_OK, ""),
            (
                ["--group", "23,25", "--q", "2", "--mu", "mu-1"],
                EXIT_NO_SPLITTING,
                "duadic: no splitting for mu=mu-1 on 25 over GF(2); ord_25(2) = 20 is even; "
                "2 nontrivial fixed idempotent(s)\n",
            ),
            (
                ["--group", "4,201", "--q", "3", "--mu", "mu-1"],
                EXIT_USAGE,
                "duadic: error: group 4 has even order 4; duadic codes need odd order\n",
            ),
        ],
        ids=["three-factors", "right-factor-no-splitting", "even-left-factor"],
    )
    def test_product_edges(self, capsys, argv, code, err):
        assert main(["construct", *argv, "--product", "--json"]) == code
        captured = capsys.readouterr()
        assert captured.err == err
        if code != EXIT_OK:
            assert captured.out == ""
            return
        (row,) = json.loads(captured.out)
        assert (row["group"], row["mu"]) == ("7,7,7", "mu-1")
        assert row["existence"] == {"class_criterion": True, "ord_criterion": True, "agree": True}
        assert row["dims"] == {"c_e": 171, "c_f": 171, "d_e": 172, "d_f": 172}
        assert row["quantum"]["params"] == "[[343,1,>=19]]_2"

    def test_product_refuses_enumerate_all(self, capsys):
        argv = ["construct", "--group", "3x3,3x3", "--q", "2", "--mu", "swap", "--product", "--enumerate-all"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("duadic: error: --enumerate-all")
        assert captured.err.count("\n") == 1

    def test_enumerate_all_over_the_cycle_cap_exits_1(self, capsys, monkeypatch):
        # mu_-1 on Z31 over GF(2) has 3 cycles, so 4 pairs; the cap lowered to 2 cycles
        monkeypatch.setattr(duadic.duadic, "_ENUMERATE_ALL_MAX_CYCLES", 2)
        assert main(["construct", "--group", "31", "--q", "2", "--mu", "mu-1", "--enumerate-all"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "duadic: error: enumerate-all over the 3 cycles of mu would build 2^2 = 4 pairs, "
            "more than 2^1; use canonical mode\n"
        )
        assert main(["construct", "--group", "31", "--q", "2", "--mu", "mu-1"]) == EXIT_OK

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--group", "4", "--q", "3", "--mu", "mu-1"], "group 4 has even order 4"),
            (["--group", "3x6", "--q", "5", "--mu", "swap"], "group 3x6 has even order 18"),
            (["--group", "3x3,2", "--q", "5", "--mu", "swap", "--product"], "group 2 has even order 2"),
        ],
    )
    def test_even_group_order_exits_1(self, capsys, argv, message):
        assert main(["construct", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("duadic: error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    def test_even_cayley_group_exits_1(self, tmp_path, capsys):
        path = tmp_path / "z4.cayley"
        path.write_text(format_cayley(cyclic_group(4)), encoding="utf-8")
        assert main(["construct", "--group", f"@{path}", "--q", "3", "--mu", "mu-1"]) == EXIT_USAGE
        assert "has even order 4" in capsys.readouterr().err

    def test_cayley_order_line_with_trailing_tokens_exits_1(self, tmp_path, capsys):
        # "3 junk" was once read as the order 3
        path = tmp_path / "z3.cayley"
        path.write_text("3 junk\n0 1 2\n1 2 0\n2 0 1\n", encoding="utf-8")
        assert main(["construct", "--group", f"@{path}", "--q", "2", "--mu", "mu-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "expected group order, got '3 junk' (line 1)" in captured.err

    def test_cayley_non_integer_entry_exits_1(self, tmp_path, capsys):
        path = tmp_path / "z2.cayley"
        path.write_text("2\n0 x\n1 0\n", encoding="utf-8")
        assert main(["construct", "--group", f"@{path}", "--q", "3", "--mu", "mu-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "duadic: error: non-integer table entry 'x' (line 2, column 2)\n"

    def test_perm_file_line_after_frobenius_power_exits_1(self, tmp_path, capsys):
        # the fourth line was once ignored, and the cell built and analysed
        path = tmp_path / "z3.perm"
        path.write_text("3\n0 2 1\n0\n5 5 5\n", encoding="utf-8")
        assert main(["construct", "--group", "3", "--q", "2", "--mu", f"@{path}"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "unexpected line after the Frobenius power: '5 5 5' (line 4)" in captured.err

    def test_usage_error_exit_1(self, capsys):
        assert main(["construct", "--group", "7", "--mu", "mu-1"]) == EXIT_USAGE
        assert main(["bogus"]) == EXIT_USAGE
        assert main(["construct", "--group", "3y3", "--q", "2", "--mu", "mu-1"]) == EXIT_USAGE

    def test_emit_matrices(self, tmp_path, capsys):
        out = tmp_path / "mats"
        code = main(
            ["construct", "--group", "7", "--q", "2", "--mu", "mu-1", "--emit-matrices", str(out), "--json"]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        names = sorted(p.name for p in out.iterdir())
        assert names == ["c_e.mat", "c_f.mat", "d_e.mat", "d_f.mat", "x_stabilizers.mat", "z_stabilizers.mat"]
        lines = (out / "x_stabilizers.mat").read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 4  # header + 3 generator rows

    @pytest.mark.parametrize(
        "argv,digests",
        [
            (
                ["7", "--q", "2", "--mu", "mu-1"],  # case i
                {
                    "c_e.mat": "4196c0533f24f90c7c5230a34c4e6000d2586f997db7af35283bc9652f8f497f",
                    "c_f.mat": "c2809e674cbf1bbb85e1113584ebe76e5b4d59be4a60b3e3184f79ca3d6016f5",
                    "d_e.mat": "9f934c3b892853a45d19a35ae75d9f55075e3a87e76f9c16914cdac39b9583a6",
                    "d_f.mat": "9f7056068ef7682bb9e360c556c1bb58f00ed78b890b5a86683b16b4356a810f",
                    "x_stabilizers.mat": "4196c0533f24f90c7c5230a34c4e6000d2586f997db7af35283bc9652f8f497f",
                    "z_stabilizers.mat": "4196c0533f24f90c7c5230a34c4e6000d2586f997db7af35283bc9652f8f497f",
                },
            ),
            (
                ["3x3", "--q", "2", "--mu", "swap"],  # case ii
                {
                    "c_e.mat": "5535355f5a253c7488716a59441d2f1b1cbc652fe760e3996e7a010063fcfa1c",
                    "c_f.mat": "2903b345c697103be40c4525cca7b858ff878e54e43fa9944fc9283dfaa69217",
                    "d_e.mat": "f24eab69506f43eeb3bbe71dc9e973eea244ccd700831b5703127fb7e79ebcaf",
                    "d_f.mat": "0252e13ce122282d132725c149d25968a6808ed150f8e38952c83a8fd73033ef",
                    "x_stabilizers.mat": "5535355f5a253c7488716a59441d2f1b1cbc652fe760e3996e7a010063fcfa1c",
                    "z_stabilizers.mat": "2903b345c697103be40c4525cca7b858ff878e54e43fa9944fc9283dfaa69217",
                },
            ),
            (
                ["3x3,7", "--q", "2", "--mu", "swap*mu-1", "--product"],  # mixed
                {
                    "c_e.mat": "dd19fe3a1d83590c7b22cbec934c0233cf4073158881ba03ede56836533ff904",
                    "c_f.mat": "59ef2b0b5e85db7ef3f9b9a3d09b0475e5d874f98123671579d9e9044a2892af",
                    "d_e.mat": "4e8a2efc16825bcd3fd77b6e10e7374cf002571aaa59850422cdb2eab8408510",
                    "d_f.mat": "4f0d40ef51dd2e40f366bf6700ea6f485e3c6795806498719b0f1194720ad183",
                    "x_stabilizers.mat": "dd19fe3a1d83590c7b22cbec934c0233cf4073158881ba03ede56836533ff904",
                    "z_stabilizers.mat": "d2afaf6fbc3324d999fe06922a62ceee8ca4248e18fdb9ce7ef0fd71b86e439f",
                },
            ),
        ],
        ids=["case-i", "case-ii", "mixed"],
    )
    @pytest.mark.parametrize("cap", [[], ["--max-enum", "1"]], ids=["default-cap", "cap-1"])
    def test_emit_matrices_bytes(self, tmp_path, capsys, argv, digests, cap):
        # each file holds the canonical RREF of its matrix, whatever form the
        # code keeps, and whether the report built it or the files read it first
        out = tmp_path / "mats"
        assert main(["construct", "--group", *argv, *cap, "--emit-matrices", str(out), "--json"]) == EXIT_OK
        capsys.readouterr()
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == digests

    def test_cayley_group_construct(self, tmp_path, capsys):
        path = tmp_path / "f21.cayley"
        group = group_from_cayley(frobenius21_table())
        path.write_text(format_cayley(group), encoding="utf-8")
        code = main(["construct", "--group", f"@{path}", "--q", "2", "--mu", "mu-1", "--json"])
        # ord_21(2) = 6 even, so mu_-1 gives no splitting on the order-21 group
        assert code == EXIT_NO_SPLITTING

    def test_human_output(self, capsys):
        assert main(["construct", "--group", "7", "--q", "2", "--mu", "mu-1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[[7,1,3]]_2" in out and "case i" in out
        assert "odd_like_d_e: 3 (exact, coset-enumeration)\n" in out
        assert "quantum: [[7,1,3]]_2 d=3 (exact, coset-enumeration)\n" in out

    def test_human_output_lower_bound(self, capsys):
        argv = ["construct", "--group", "23", "--q", "2", "--mu", "mu-1", "--max-enum", "100"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert "odd_like_d_f: 6 (lower-bound, odd-like-" in out
        assert "quantum: [[23,1,>=6]]_2 d=6 (lower-bound, odd-like-" in out

    def test_human_output_degeneracy_lines(self, capsys):
        argv = ["construct", "--group", "3,3", "--q", "4", "--mu", "mu-1", "--product"]
        assert main(argv) == EXIT_OK
        assert _without_time(capsys.readouterr().out) == (
            "group 3,3  q=4  mu=mu-1\n"
            "existence: class-criterion=True ord-criterion=True agree=True\n"
            "pair 0: e = 2*a^0*b^1 + 3*a^0*b^2 + 3*a^1*b^0 + 2*a^1*b^1 + 3*a^1*b^2"
            " + 2*a^2*b^0 + 2*a^2*b^1 + 3*a^2*b^2\n"
            "         f = 3*a^0*b^1 + 2*a^0*b^2 + 2*a^1*b^0 + 3*a^1*b^1 + 2*a^1*b^2"
            " + 3*a^2*b^0 + 3*a^2*b^1 + 2*a^2*b^2\n"
            "dims: C_e=4 C_f=4 D_e=5 D_f=5\n"
            "duality: case i verified=True\n"
            "odd_like_d_e: 4 (exact, coset-enumeration)\n"
            "odd_like_d_f: 4 (exact, coset-enumeration)\n"
            "quantum: [[9,1,4]]_4 d=4 (exact, coset-enumeration)\n"
            "degenerate: True\n"
            "  C: exactly weight 3: 9\n"
            "  D-perp: exactly weight 3: 9\n"
        )

    def test_human_output_of_the_paper_product(self, capsys):
        # the pair lines hold the 40 labels of e and of f, as the JSON report lists them
        argv = ["construct", "--group", "3x3,3x3", "--q", "2", "--mu", "swap", "--product"]
        assert main(argv + ["--json"]) == EXIT_OK
        (pair,) = json.loads(capsys.readouterr().out)[0]["pairs"]
        e_text, f_text = (" + ".join(label for label, _ in pair[side]) for side in "ef")
        assert main(argv) == EXIT_OK
        assert _without_time(capsys.readouterr().out) == (
            "group 3x3,3x3  q=2  mu=swap\n"
            "existence: class-criterion=True ord-criterion=None agree=None\n"
            f"pair 0: e = {e_text}\n"
            f"         f = {f_text}\n"
            "dims: C_e=40 C_f=40 D_e=41 D_f=41\n"
            "duality: case ii verified=True\n"
            "odd_like_d_e: 9 (lower-bound, odd-like-square-bound)\n"
            "odd_like_d_f: 9 (lower-bound, odd-like-square-bound)\n"
            "quantum: [[81,1,>=9]]_2 d=9 (lower-bound, odd-like-square-bound)\n"
            "degenerate: True\n"
            "  C: at least weight 4: 81\n"
            "  D-perp: at least weight 4: 81\n"
        )
        assert {c for side in "ef" for _, c in pair[side]} == {1}
        assert e_text.startswith("a^0*b^0*c^0*d^1 + a^0*b^0*c^0*d^2 + ")

    def test_construct_json_is_deterministic(self, capsys):
        argv = ["construct", "--group", "3x3", "--q", "2", "--mu", "swap", "--enumerate-all", "--json"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_max_enum_cap_switches_to_bounds(self, capsys):
        code = main(
            ["construct", "--group", "23", "--q", "2", "--mu", "mu-1", "--max-enum", "100", "--json"]
        )
        assert code == EXIT_OK
        (row,) = json.loads(capsys.readouterr().out)
        assert all(not d["exact"] for d in row["distances"])
        assert row["quantum"]["exact"] is False
        assert row["quantum"]["d"] == 6  # smallest d with d^2 - d + 1 >= 23

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_max_enum_below_one_rejected(self, capsys, cap):
        argv = ["construct", "--group", "7", "--q", "2", "--mu", "mu-1", "--max-enum", cap]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"duadic: error: --max-enum must be at least 1, got {cap}\n"

    @pytest.mark.parametrize(
        "group,q,mu,cap,odd_like_exact",
        [
            # q^k = 3^6 = 729 <= 1000 < 1458 = 3^6 * 2 odd-like words
            ("13", "3", "mu-1", "1000", False),
            # case ii: 5^4 * 4 = 2500 odd-like words <= 3000 < 5000 for both CSS differences
            ("3x3", "5", "swap", "3000", True),
        ],
    )
    def test_max_enum_bands(self, capsys, group, q, mu, cap, odd_like_exact):
        argv = ["construct", "--group", group, "--q", q, "--mu", mu, "--max-enum", cap, "--json"]
        assert main(argv) == EXIT_OK
        (row,) = json.loads(capsys.readouterr().out)
        assert [d["exact"] for d in row["distances"]] == [odd_like_exact, odd_like_exact]
        assert row["quantum"]["exact"] is False
        assert [s["exact"] for s in row["degeneracy"]["sides"]] == [True, True]

    def test_keyboard_interrupt_exit_130(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_construct", interrupted)
        assert main(["construct", "--group", "7", "--q", "2", "--mu", "mu-1"]) == EXIT_INTERRUPTED == 130
        assert capsys.readouterr().err == "duadic: interrupted\n"

    def test_closed_stdout_exits_141_quietly(self, tmp_path, capsys, monkeypatch):
        class Closed:
            """A stdout whose reader has gone, over a file of the test's own."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.fh.fileno()

        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", Closed(fh))
            assert main(["scan", "--n", "3-9", "--q", "2", "--json"]) == EXIT_BROKEN_PIPE == 141
        assert capsys.readouterr().err == ""


    def test_verification_failure_exits_3_with_one_line(self, capsys, monkeypatch):
        def failing(pair, cap):
            raise VerificationError("a derived code does not lie in the ideal of its idempotent")

        monkeypatch.setattr(cli, "analyze_pair", failing)
        assert main(["construct", "--group", "7", "--q", "2", "--mu", "mu-1", "--json"]) == EXIT_VERIFY_FAILED == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "duadic: verification failure: a derived code does not lie in the ideal of its idempotent\n"
        )

    @pytest.mark.parametrize(
        "guard,q,message",
        [
            ("component-count", "2", "splitting produced 1 components, expected 3"),
            ("sum-retry", "11", "the stack sum is not split"),
            ("mu-permutes", "2", "antiautomorphism does not permute the idempotent set"),
            ("class-count", "2", "fixed-class count 1 != fixed-idempotent count 3"),
            ("code-dimension", "2", "dim C_e: 2 != 3; dim C_f: 2 != 3; dim D_e: 3 != 4; dim D_f: 3 != 4"),
        ],
    )
    def test_result_guard_exits_3_with_one_line(self, capsys, monkeypatch, guard, q, message):
        # each check of an intermediate result, tripped by one patched step
        split_values, from_ideal, calls = algebra._split_values, duadic.duadic.code_from_ideal, []

        def fail_on_sum(field, unit, times):  # q = 11 > 2r + 1: the first call splits the stack sum
            calls.append(unit)
            if len(calls) == 1:
                raise VerificationError("the stack sum is not split")
            return split_values(field, unit, times)

        def drop_a_row(e):
            return codes.LinearCode(e.field, from_ideal(e).gen[1:])

        patches = {
            "component-count": (algebra, "_split_units", lambda field, units, times: units),
            "sum-retry": (algebra, "_split_values", fail_on_sum),
            "mu-permutes": (duadic.duadic, "_antiauto_rows", lambda mu, field, rows: 0 * rows),
            # every idempotent fixed, where the class criterion counts one
            "class-count": (duadic.duadic, "_antiauto_rows", lambda mu, field, rows: rows),
            "code-dimension": (duadic.duadic, "code_from_ideal", drop_a_row),
        }
        monkeypatch.setattr(*patches[guard])
        assert main(["construct", "--group", "7", "--q", q, "--mu", "mu-1", "--json"]) == EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"duadic: verification failure: {message}\n"
        assert (guard == "sum-retry") == (len(calls) > 1)  # the units were retried one by one


class TestBoundCellBuildsNoCode:
    """A cell with q^k over the cap enumerates nothing, so its report builds
    no code: no elimination and no basis, and the report keeps the bytes it
    had when every cell built its four codes (digests from b4ad6bd)."""

    @pytest.fixture
    def built(self, monkeypatch) -> collections.Counter:
        counts = collections.Counter()
        rref, set_basis = _linalg.rref, codes.LinearCode._set_basis

        def counted_rref(*args):
            counts["rref"] += 1
            return rref(*args)

        def counted_set_basis(self, *args):
            counts["_set_basis"] += 1
            return set_basis(self, *args)

        monkeypatch.setattr(_linalg, "rref", counted_rref)
        monkeypatch.setattr(codes.LinearCode, "_set_basis", counted_set_basis)
        return counts

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["71", "--q", "2", "--mu", "mu-1"], "3f6f0ab97f55313ad579fb043c2c77042d8a08d6333849bfbd254304ae1a49d4"),
            (
                ["3x3,3x3", "--q", "2", "--mu", "swap", "--product"],
                "853ae66a8875121ac9eac7b14c37d3900ff0e5cca83280026042eec6cc798a36",
            ),
            (
                ["3x3,7", "--q", "2", "--mu", "swap*mu-1", "--product"],
                "ecd2b44363d5b98c55d76a3591e086360adc2dedec3ce035cfe54cbf72d25ac0",
            ),
            (
                ["3x3", "--q", "5", "--mu", "swap", "--max-enum", "1"],
                "fc9211409fd8ffa32e2e93838e40dce1ea9b738d2c1290b00cbe53d88c7fe17a",
            ),
        ],
        ids=["71-case-i", "81-case-ii", "63-mixed", "3x3-q5-case-ii"],
    )
    def test_no_elimination_and_no_basis(self, capsys, built, argv, digest):
        assert main(["construct", "--group", *argv, "--json"]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
        assert built == {}

    def test_an_enumerated_cell_is_counted(self, capsys, built):
        # C_e's one elimination, and the bases of C_e and its three derived codes
        assert main(["construct", "--group", "7", "--q", "2", "--mu", "mu-1", "--json"]) == EXIT_OK
        assert built == {"rref": 1, "_set_basis": 4}


class TestSplittingWork:
    """The class criterion decides without an idempotent: `scan` splits no
    center and runs one F_q-class closure per group, and `construct` splits
    the center of a cell that splits once, on the F_q-classes of its check,
    and of a refused cell never."""

    @pytest.fixture
    def calls(self, monkeypatch) -> collections.Counter:
        counts = collections.Counter()
        for name, home in (("split_primitive_central_idempotents", algebra), ("_fq_labels", groups)):

            def counted(*args, _name=name, _real=getattr(home, name)):
                counts[_name] += 1
                return _real(*args)

            for module in (groups, algebra, duadic.duadic):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "1-45", "--q", "2,3,4,5,7,8,9", "--mu", "mu-1"],
            ["--family", "pxp", "--p", "3,5,7", "--q", "2,3,4,5", "--mu", "swap"],
        ],
    )
    def test_scan_splits_no_center(self, capsys, calls, argv):
        assert main(["scan", *argv, "--json"]) == EXIT_OK
        assert calls == {"_fq_labels": len({report["group"] for report in json.loads(capsys.readouterr().out)})}

    @pytest.mark.parametrize(
        "argv,code,splits,checks",
        [
            (["--group", "7", "--q", "2", "--mu", "mu-1"], EXIT_OK, 1, 1),
            (["--group", "3x3", "--q", "2", "--mu", "swap", "--enumerate-all"], EXIT_OK, 1, 1),
            # one split and one check per factor
            (["--group", "7,3x3", "--q", "2", "--mu", "mu-1*swap", "--product"], EXIT_OK, 2, 2),
            (["--group", "9", "--q", "2", "--mu", "mu-1"], EXIT_NO_SPLITTING, 0, 1),
            (["--group", "3x3", "--q", "2", "--mu", "mu-1"], EXIT_NO_SPLITTING, 0, 1),
            # refused before the check
            (["--group", "1", "--q", "2", "--mu", "mu-1"], EXIT_NO_SPLITTING, 0, 0),
        ],
        ids=["7-q2", "3x3-q2-swap", "product", "9-q2", "3x3-q2-mu-1", "trivial"],
    )
    def test_construct_splits_a_splitting_cell_once(self, capsys, calls, argv, code, splits, checks):
        assert main(["construct", *argv, "--max-enum", "1", "--json"]) == code
        capsys.readouterr()
        assert (calls["split_primitive_central_idempotents"], calls["_fq_labels"]) == (splits, checks)


class TestRelabeledGroups:
    """Renaming the non-identity ids of Z_p : Z_3 (r of order 3 mod p)
    changes neither the exit code nor any field of the report but the group
    name, the pairs' coefficients and the timing.  On Z_p x Z_p, Z_7 x Z_3
    and Z_3 x Z_7 it changes neither the exit code, nor the message of a
    refusal, nor the existence fields and dimensions: the class criterion
    does not depend on labels.  The canonical pair is chosen by coefficient
    tuples, so where mu has several cycles it can be another pair of the
    relabeled group, with other distances or degeneracy counts."""

    @staticmethod
    def construct(capsys, path, table, q, mu="mu-1"):
        path.write_text(format_cayley(group_from_cayley(table)), encoding="utf-8")
        code = main(["construct", "--group", f"@{path}", "--q", str(q), "--mu", mu, "--json"])
        captured = capsys.readouterr()
        if code != EXIT_OK:
            assert captured.out == ""
            return code, captured.err.replace(str(path), "G")
        (row,) = json.loads(captured.out)
        return code, {key: value for key, value in row.items() if key not in ("group", "mu", "pairs", "timing_ms")}

    @staticmethod
    def verdict(code, report):
        """The exit code with the refusal's message, or with the existence
        fields and dimensions of the report."""
        return (code, report) if code != EXIT_OK else (code, report["existence"], report["dims"])

    @staticmethod
    def relabel(table, seed):
        """The table under a seeded permutation s of the ids with s(0) = 0,
        with s(x) s(y) = s(xy), and s."""
        s = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(len(table) - 1)])
        out = np.empty_like(table)
        out[np.ix_(s, s)] = s[table]
        return out, s

    @pytest.mark.parametrize(
        "p,r,q,code",
        [(7, 2, q, EXIT_OK) for q in (4, 16)]
        + [(19, 7, 4, EXIT_OK), (19, 7, 7, EXIT_OK), (37, 10, 7, EXIT_OK), (43, 6, 4, EXIT_OK)]
        + [(7, 2, q, EXIT_NO_SPLITTING) for q in (2, 8)]
        + [(31, 5, q, EXIT_NO_SPLITTING) for q in (2, 5)]
        + [(13, 3, 4, EXIT_NO_SPLITTING), (37, 10, 4, EXIT_NO_SPLITTING)],
    )
    def test_relabeled_group_gives_the_same_report(self, tmp_path, capsys, p, r, q, code):
        table = metacyclic_table(p, r)
        expected = self.construct(capsys, tmp_path / "g.cayley", table, q)
        assert expected[0] == code
        for seed in (1, 2):
            relabeled, _ = self.relabel(table, [p, q, seed])
            assert self.construct(capsys, tmp_path / "g.cayley", relabeled, q) == expected, seed

    def test_relabeled_inversion_from_a_perm_file(self, tmp_path, capsys):
        table = metacyclic_table(7, 2)
        expected = self.construct(capsys, tmp_path / "g.cayley", table, 4)
        relabeled, s = self.relabel(table, 3)
        inverse = np.empty_like(s)
        inverse[s] = s[np.argmin(table, axis=1)]  # s(x)^-1 = s(x^-1); x x^-1 is the id 0
        perm = tmp_path / "inv.perm"
        perm.write_text(f"{len(s)}\n{' '.join(map(str, inverse))}\n", encoding="utf-8")
        assert self.construct(capsys, tmp_path / "g.cayley", relabeled, 4, f"@{perm}") == expected

    @pytest.mark.parametrize(
        "spec,q,code",
        [("3x3", 4, EXIT_OK), ("3x3", 2, EXIT_NO_SPLITTING), ("5x5", 11, EXIT_OK), ("5x5", 2, EXIT_NO_SPLITTING)]
        + [(spec, q, code) for spec in ("7,3", "3,7") for q, code in ((4, EXIT_OK), (2, EXIT_NO_SPLITTING))],
    )
    def test_relabeled_abelian_and_product_groups(self, tmp_path, capsys, spec, q, code):
        table = parse_group_spec(spec).table
        expected = self.verdict(*self.construct(capsys, tmp_path / "g.cayley", table, q))
        assert expected[0] == code
        for seed in (1, 2):
            relabeled, _ = self.relabel(table, [len(table), q, seed])
            assert self.verdict(*self.construct(capsys, tmp_path / "g.cayley", relabeled, q)) == expected, seed

    @pytest.mark.parametrize("p", [3, 5])
    def test_relabeled_swap_from_a_perm_file(self, tmp_path, capsys, p):
        group = group_abelian([p, p])
        swap = builtin_mu_swap(group, 2).mu_star
        perm = tmp_path / "swap.perm"
        perm.write_text(f"{p * p}\n{' '.join(map(str, swap))}\n", encoding="utf-8")
        expected = self.verdict(*self.construct(capsys, tmp_path / "g.cayley", group.table, 2, f"@{perm}"))
        assert expected[0] == EXIT_OK
        for seed in (1, 2):
            relabeled, s = self.relabel(group.table, [p, seed])
            image = np.empty_like(s)
            image[s] = s[swap]  # the swap of s(x) is s(swap(x))
            perm.write_text(f"{p * p}\n{' '.join(map(str, image))}\n", encoding="utf-8")
            assert self.verdict(*self.construct(capsys, tmp_path / "g.cayley", relabeled, 2, f"@{perm}")) == expected


@pytest.mark.parametrize(
    "argv,message",
    [
        (["construct", "--group", "@adir", "--q", "2", "--mu", "mu-1"], "Is a directory: 'adir'"),
        (["construct", "--group", "3x", "--q", "2", "--mu", "mu-1"], "bad group spec '3x'"),
        (["construct", "--group", "1x3", "--q", "2", "--mu", "mu-1"], "cyclic factor orders must be >= 2"),
        (["construct", "--group", "7", "--q", "-2", "--mu", "mu-1"], "-2 is not a prime power"),
        (["scan", "--n", "2-2"], "--n '2-2' holds no odd order"),
        (["construct", "--group", "3x3,3x3,3x3", "--q", "2", "--mu", "mu-1"], "outer products take exactly two"),
        (
            ["construct", "--group", "3x3,3x3", "--q", "2", "--mu", "swap*swap*swap", "--product"],
            "product mu spec needs an outer-product group spec",
        ),
        (
            ["construct", "--group", "7", "--q", "2", "--mu", "mu-1", "--emit-matrices", "afile/sub"],
            "Not a directory: 'afile/sub'",
        ),
    ],
    ids=["group-dir", "group-3x", "group-1x3", "q-negative", "n-even", "three-factors", "three-maps", "below-a-file"],
)
def test_malformed_input_exits_1_with_one_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("", encoding="utf-8")
    assert main([*argv, "--json"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("duadic: error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def assert_written_as_json_dumps(value):
    report = CodeReport("7", 2, "mu-1", existence=value, dims={"after": value})
    expected = json.dumps([report.to_dict()], indent=2) + "\n"
    assert emit_json([report]) == expected and list(cli._json_chunks([report])) == [expected]


class TestJsonWriter:
    """The corners where the report writer must give json.dumps(indent=2)'s
    bytes; `test_cli_properties.py::test_emit_json_matches_the_indenting_encoder`
    draws the rest."""

    def test_ints_past_64_bits(self):
        assert_written_as_json_dumps([2**63 - 1, 2**63, 2**64, -(2**63) - 1, 10**40])

    def test_empty_containers(self):
        assert_written_as_json_dumps([1, ["a", []], [], {}, [[]], {"": {}}])
        assert emit_json([]) == json.dumps([], indent=2) + "\n" == "[]\n"

    def test_non_ascii_and_control_characters(self):
        assert_written_as_json_dumps({"\u00e9\u2028\U0001f600": "\x00\x1f\x7f\"\\/\n\t"})

    @pytest.mark.parametrize(
        "value",
        [0.5, (1,), np.int64(3), {"k": math.nan}, type("Name", (str,), {})("v")],
        ids=["float", "tuple", "numpy-int", "nested-nan", "str-subclass"],
    )
    def test_a_value_outside_the_report_vocabulary_is_refused(self, value):
        # no report holds a float, a tuple, a numpy scalar or a subclass of a
        # scalar type: the lookup by exact type finds none of them
        with pytest.raises(KeyError):
            emit_json([CodeReport("7", 2, "mu-1", existence=value)])

    def test_a_key_that_is_not_a_str_is_refused(self):
        with pytest.raises(TypeError):
            emit_json([CodeReport("7", 2, "mu-1", existence={0: None})])

    def test_the_old_pairs_mark_is_a_plain_string(self):
        assert_written_as_json_dumps("\0pairs")
        report = CodeReport("\0pairs", 2, "mu-1", pairs=["\0pairs"], dims={"pairs": "\0pairs"})
        assert emit_json([report]) == json.dumps([report.to_dict()], indent=2) + "\n"


class TestJsonRoundTrip:
    def test_reports_roundtrip(self, capsys):
        argv = ["scan", "--family", "cyclic", "--n", "3-15", "--q", "2,4", "--mu", "mu-1", "--json"]
        assert main(argv) == EXIT_OK
        text = capsys.readouterr().out
        reports = [CodeReport(**d) for d in json.loads(text)]
        assert emit_json(reports) == text
        assert [CodeReport(**d) for d in json.loads(emit_json(reports))] == reports

    def test_shallow_dict_emits_what_asdict_emits(self, capsys):
        argv = ["construct", "--group", "3x3", "--q", "2", "--mu", "swap", "--enumerate-all", "--json"]
        assert main(argv) == EXIT_OK
        text = capsys.readouterr().out
        (report,) = [CodeReport(**d) for d in json.loads(text)]
        report.timing_ms = 12.5
        deep = dataclasses.asdict(report)
        deep["timing_ms"] = None
        assert report.to_dict() == deep
        assert json.dumps([deep], indent=2) + "\n" == emit_json([report]) == text

    @pytest.mark.parametrize("spec", ["31", "@z31.cayley"])
    def test_shared_pair_rows_emit_what_the_indenting_encoder_emits(self, spec, capsys, tmp_path, monkeypatch):
        # 16 pairs over GF(5) share most [label, coefficient] rows; the Cayley
        # file's labels are numeric strings
        monkeypatch.chdir(tmp_path)
        (tmp_path / "z31.cayley").write_text(format_cayley(cyclic_group(31)), encoding="utf-8")
        argv = ["construct", "--group", spec, "--q", "5", "--mu", "mu-1", "--enumerate-all", "--json"]
        assert main(argv) == EXIT_OK
        text = capsys.readouterr().out
        (row,) = json.loads(text)
        rows = [tuple(r) for pair in row["pairs"] for side in ("e", "f") for r in pair[side]]
        assert len(row["pairs"]) == 16 and len(set(rows)) < len(rows) / 4
        assert all(label.isdigit() != (spec == "31") for label, _ in rows)
        assert json.dumps([row], indent=2) + "\n" == text
        assert emit_json([CodeReport(**row)]) == text

    def test_constructed_pairs_become_lists_only_in_to_dict(self, capsys):
        argv = ["construct", "--group", "31", "--q", "5", "--mu", "mu-1", "--enumerate-all", "--json"]
        (report,) = cli.cmd_construct(cli.build_parser().parse_args(argv))
        assert type(report.pairs) is cli._PairRows and len(report.pairs) == 16
        deep = report.to_dict()
        assert type(deep["pairs"]) is list and all(type(pair["e"][0]) is list for pair in deep["pairs"])
        assert main(argv) == EXIT_OK
        (row,) = json.loads(capsys.readouterr().out)
        assert deep["pairs"] == row["pairs"]
        assert [CodeReport(**d) for d in json.loads(emit_json([report]))][0].pairs == row["pairs"]

    def test_pairs_are_written_as_they_come(self, monkeypatch):
        # the text before the pairs, one write per pair, the list's close and
        # the text after it: never the text of the whole report at once
        writes = []
        out = type("Out", (), {"write": lambda self, text: writes.append(text), "flush": lambda self: None})
        monkeypatch.setattr(sys, "stdout", out())
        argv = ["construct", "--group", "31", "--q", "5", "--mu", "mu-1", "--enumerate-all", "--json"]
        assert main(argv) == EXIT_OK
        (report,) = cli.cmd_construct(cli.build_parser().parse_args(argv))
        assert len(writes) == 1 + 16 + 2 and "".join(writes) == emit_json([report])

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="bogus"):
            CodeReport(**json.loads('{"group": "7", "q": 2, "mu": "mu-1", "bogus": 1}'))


class TestVerify:
    def test_existence_suite(self, capsys):
        assert main(["verify", "existence"]) == EXIT_OK
        assert "PASS existence" in capsys.readouterr().out

    def test_key_prop_suite(self, capsys):
        assert main(["verify", "key-prop"]) == EXIT_OK
        assert "PASS key-prop" in capsys.readouterr().out

    def test_paper81_suite(self, capsys):
        assert main(["verify", "paper-81"]) == EXIT_OK
        assert "PASS paper-81" in capsys.readouterr().out

    def test_structure_suite(self, capsys):
        assert main(["verify", "structure"]) == EXIT_OK
        assert "PASS structure" in capsys.readouterr().out

    def test_existence_suite_failure_exits_3(self, capsys, monkeypatch):
        # the order criterion negated: every cell's construction disagrees with it
        real = cli.splitting_exists_mu_minus1
        monkeypatch.setattr(cli, "splitting_exists_mu_minus1", lambda n, q: not real(n, q))
        assert main(["verify", "existence"]) == EXIT_VERIFY_FAILED
        *cells, summary = capsys.readouterr().out.splitlines()
        cell_count = sum(math.gcd(n, q) == 1 for n in range(3, 46, 2) for q in cli._EXISTENCE_Q)
        assert len(cells) == cell_count and all(line.startswith("FAIL existence n=") for line in cells)
        assert "FAIL existence n=7 q=2: construction True, ord test False" in cells
        assert summary.startswith("FAIL existence: ")

    def test_key_prop_suite_failure_exits_3(self, capsys, monkeypatch):
        # the suite imports verify_key_proposition where it runs
        monkeypatch.setattr(duadic.duadic, "verify_key_proposition", lambda mu, field, group: (1, 2))
        assert main(["verify", "key-prop"]) == EXIT_VERIFY_FAILED
        *cells, summary = capsys.readouterr().out.splitlines()
        assert len(cells) == len(list(cli._key_prop_cells()))
        assert all(line.startswith("FAIL key-prop ") and line.endswith(": 1 != 2") for line in cells)
        assert summary.startswith("FAIL key-prop: ")

    def test_structure_suite_failure_exits_3(self, capsys, monkeypatch):
        # every odd-like distance of D_e read as exact and 1, below each bound
        real = cli.analyze_pair

        def low(*args, **kwargs):
            analysis = real(*args, **kwargs)
            return dataclasses.replace(analysis, odd_like=(DistanceRecord(1, True, "x"), analysis.odd_like[1]))

        monkeypatch.setattr(cli, "analyze_pair", low)
        assert main(["verify", "structure"]) == EXIT_VERIFY_FAILED
        *cells, summary = capsys.readouterr().out.splitlines()
        cell_ids = [(7, 2), (7, 4), (11, 3), (13, 3), (19, 4), (23, 2), (31, 2)]
        assert cells == [f"FAIL structure n={n} q={q}" for n, q in cell_ids]
        assert summary.startswith("FAIL structure: ")

    def test_structure_suite_builds_the_codes_of_a_cell_it_does_not_enumerate(self, capsys, monkeypatch):
        # 19 over GF(4) has q^k = 2^18 over the suite's cap of 2^16: C_e one row short fails there
        real = duadic.duadic.code_from_ideal

        def short(e):
            code = real(e)
            return codes.LinearCode(e.field, code.gen[1:]) if (e.group.order, e.field.q) == (19, 4) else code

        monkeypatch.setattr(duadic.duadic, "code_from_ideal", short)
        assert main(["verify", "structure"]) == EXIT_VERIFY_FAILED
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("duadic: verification failure: dim C_e: 8 != 9; ")

    def test_paper81_suite_failure_exits_3(self, capsys, monkeypatch):
        def invalid(*args):
            raise VerificationError("duadic axioms violated: A2: mu(e) = f")

        monkeypatch.setattr(cli, "DuadicPair", invalid)
        assert main(["verify", "paper-81"]) == EXIT_VERIFY_FAILED
        out = capsys.readouterr().out
        assert out == "FAIL paper-81: component pair invalid: duadic axioms violated: A2: mu(e) = f\n"

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "bogus"]) == EXIT_USAGE


class TestOneParserPerProcess:
    REQUESTS = [
        ["scan", "--n", "3-15", "--q", "2,4", "--json"],
        ["construct", "--group", "7", "--q", "2", "--mu", "mu-1", "--json"],
        ["scan", "--n", "3-9", "--bogus"],
        ["construct", "--group", "7", "--q", "3", "--mu", "mu-1", "--json"],
        ["construct", "--group", "7"],
        ["scan", "--help"],
        ["scan", "--family", "pxp", "--p", "3", "--q", "2,5", "--mu", "swap", "--json"],
    ]

    def _serve(self, capsys, fresh: bool):
        out = []
        for argv in self.REQUESTS:
            if fresh:
                cli._PARSER = None
            code = main(argv)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    def test_shared_parser_answers_as_fresh_ones(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh = self._serve(capsys, fresh=True)
        assert len(built) == 3  # --bogus, the missing --q and --mu, --help: the plain argv need no parser
        built.clear()
        cli._PARSER = None
        shared = self._serve(capsys, fresh=False)
        assert len(built) == 1
        assert shared == fresh
        assert [c for c, _, _ in shared] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_NO_SPLITTING, EXIT_USAGE, EXIT_OK, EXIT_OK]


def child_env() -> dict:
    """The environment of a child Python that imports this checkout's duadic."""
    src = str(Path(duadic.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


class TestModuleEntryPoint:
    def test_python_dash_m_help_exits_0(self):
        done = subprocess.run(
            [sys.executable, "-m", "duadic", "--help"],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: duadic")


def test_a_plain_argv_imports_no_argparse():
    code = (
        "import contextlib, io, sys\n"
        "import duadic.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = duadic.cli.main(['scan', '--n', '3-9', '--q', '2,4', '--json'])\n"
        "print(code, 'argparse' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60)
    assert (done.stdout, done.stderr) == ("0 False\n", "")


@pytest.mark.parametrize("argv, first", [
    (["scan", "--n", "3-511", "--q", "2,3,4,5,7,8,9,11,13,16"], b"     group   q         mu"),
    (["construct", "--group", "127", "--q", "4", "--mu", "mu-1", "--enumerate-all", "--json"], b"["),
])
def test_a_closed_stdout_ends_the_run_quietly_with_141(argv, first):
    """The reader of stdout closes its end after the first line, while more
    than a pipe's capacity is still to come."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "duadic", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=child_env(),
    )
    try:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    assert line.startswith(first)
    assert (code, err) == (EXIT_BROKEN_PIPE, b"")

