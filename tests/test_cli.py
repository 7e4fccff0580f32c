"""Command-line interface: exit codes, output, and determinism."""

import json
import os
import random
import re
import subprocess
import sys

import pytest

import catdb.query as query
from catdb.cli import run_cli
from catdb.instance import saturate
from tests.conftest import FIXTURES, load_fixture
from tests.genfixtures import (
    BIMODULE_WORKSPACE, CHECK_FAILURES_WORKSPACE, company_instance,
    infinite_side_workspace, type_equations_workspace, typeside_instance,
)

GROUP = str(FIXTURES / "group.cdb")
WORKSPACE = str(FIXTURES / "paper.cdb")
SRC = str(FIXTURES.parent / "src")


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_module(*argv, hash_seed="0", stdout=subprocess.PIPE):
    """Run `python -m catdb.cli` in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "catdb.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=120)


class TestCheck:
    def test_employee_workspace(self, capsys):
        code, out, _ = run(capsys, "check", WORKSPACE)
        assert code == 0
        assert out.startswith("ok (")

    def test_group_workspace(self, capsys):
        code, out, _ = run(capsys, "check", GROUP)
        assert code == 0 and "1 theories" in out

    def test_bimodule_workspace(self, capsys, tmp_path):
        path = tmp_path / "bimodule.cdb"
        path.write_text(BIMODULE_WORKSPACE, encoding="utf-8")
        code, out, err = run(capsys, "check", str(path))
        assert (code, out, err) == (0, "ok (2 schemas, 1 bimodules)\n", "")

    def test_problems_are_listed(self, capsys, tmp_path):
        path = tmp_path / "bad.cdb"
        path.write_text(CHECK_FAILURES_WORKSPACE, encoding="utf-8")
        code, out, err = run(capsys, "check", str(path))
        assert (code, err) == (1, "")
        assert out == (
            "mapping F: path equation not preserved: (x:A) |- x.p = x.q\n"
            "mapping F: observable equation not preserved: "
            "(x:A) |- x.a = 1\n"
            "query Q: FOR variables without entity sorts: n\n"
            "uberquery N: type equations force distinct constants to "
            "coincide\n")


class TestComplete:
    def test_group_rules(self, capsys):
        code, out, _ = run(capsys, "complete", GROUP, "--theory", "Grp")
        assert code == 0
        lines = [l for l in out.splitlines() if "~>" in l]
        assert len(lines) == 10
        assert "*(1, x) ~> x" in out
        assert "*(x, y).inv ~> *(y.inv, x.inv)" in out

    def test_unknown_theory(self, capsys):
        code, _, err = run(capsys, "complete", GROUP, "--theory", "Nope")
        assert code == 2 and "Nope" in err

    def test_unorientable_equation(self, capsys, tmp_path):
        path = tmp_path / "comm.cdb"
        path.write_text("theory C {\n  sorts S;\n  symbols * : S S -> S;\n"
                        "  equations forall x y : S . x*y = y*x;\n}\n",
                        encoding="utf-8")
        code, out, err = run(capsys, "complete", str(path), "--theory", "C")
        assert code == 1 and err == ""
        assert out.splitlines() == ["*(x, y) = *(y, x)  (unoriented)",
                                    "status: unoriented"]

    def test_budget_limits_critical_pairs(self, capsys):
        code, out, _ = run(capsys, "complete", GROUP, "--theory", "Grp",
                           "--budget", "2")
        assert code == 1
        assert out.splitlines()[-1] == "status: budget-exhausted"


COMMUTATIVE = ("theory C {\n  sorts S;\n  symbols a : S;\n  symbols b : S;\n"
               "  symbols * : S S -> S;\n"
               "  equations forall x y : S . x*y = y*x;\n}\n")


class TestEq:
    def test_unoriented_system_answers_unknown(self, capsys, tmp_path):
        path = tmp_path / "comm.cdb"
        path.write_text(COMMUTATIVE, encoding="utf-8")
        code, out, _ = run(capsys, "eq", str(path), "--theory", "C",
                           "a*b", "b*a")
        assert code == 0 and out.strip() == "Equal"
        code, out, _ = run(capsys, "eq", str(path), "--theory", "C", "a", "b")
        assert code == 0 and out.strip() == "Unknown"

    def test_equal_words(self, capsys):
        code, out, _ = run(capsys, "eq", GROUP, "--theory", "Grp",
                           "(inv(a)*a)*(b*inv(b))", "b*((inv(a*b))*a)")
        assert code == 0 and out.strip() == "Equal"

    def test_not_equal_words(self, capsys):
        code, out, _ = run(capsys, "eq", GROUP, "--theory", "Grp",
                           "1*(a*b)", "b*(1*a)")
        assert code == 0 and out.strip() == "NotEqual"

    def test_bad_term_is_domain_error(self, capsys):
        code, _, err = run(capsys, "eq", GROUP, "--theory", "Grp",
                           "a*nonsense", "a")
        assert code == 1 and "nonsense" in err

    @pytest.mark.parametrize("terms,message", [
        (('"a" * b', "1"), '"a" in "a"'),
        (("a <= b", "true"), "<= in <=(a, b)"),
    ])
    def test_ill_sorted_terms_are_domain_errors(self, capsys, terms, message):
        code, out, err = run(capsys, "eq", GROUP, "--theory", "Grp", *terms)
        assert code == 1 and out == ""
        assert message in err and "Traceback" not in err

    def test_sides_of_different_sorts_are_domain_errors(self, capsys,
                                                        tmp_path):
        path = tmp_path / "two.cdb"
        path.write_text("theory T {\n  sorts A B;\n  symbols a : A;\n"
                        "  symbols b : B;\n}\n", encoding="utf-8")
        code, out, err = run(capsys, "eq", str(path), "--theory", "T", "a", "b")
        assert (code, out) == (1, "")
        assert err == "error: <arg>:1:1: equation sides have sorts A and B\n"

    def test_trailing_input_is_domain_error(self, capsys):
        code, out, err = run(capsys, "eq", GROUP, "--theory", "Grp",
                             "a*b b", "a")
        assert (code, out) == (1, "")
        assert err == "error: <arg>:1:5: trailing input 'b'\n"


class TestSaturate:
    def test_employee_tables(self, capsys):
        code, out, _ = run(capsys, "saturate", WORKSPACE, "--instance", "J")
        assert code == 0
        assert '"Hypatia"' in out and "null x : Int" in out
        assert "(150 <= x) = true" in out

    def test_json_format_matches_ascii_data(self, capsys):
        code, out, _ = run(capsys, "saturate", WORKSPACE, "--instance", "J",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert set(data["entities"]) == {"Emp", "Dept"}
        assert len(data["entities"]["Emp"]["rows"]) == 7
        code2, ascii_out, _ = run(capsys, "saturate", WORKSPACE,
                                  "--instance", "J")
        for row in data["entities"]["Emp"]["rows"]:
            for cell in row:
                assert cell in ascii_out

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "saturate", "missing.cdb",
                           "--instance", "J")
        assert code == 2 and "missing.cdb" in err

    def test_file_not_in_utf8_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.cdb"
        path.write_bytes(b"schema S { entities A; }\n\xff\n")
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read {path}: 'utf-8' codec can't "
                       "decode byte 0xff in position 25: invalid start byte\n")

    def test_unknown_instance_is_usage_error(self, capsys):
        code, _, err = run(capsys, "saturate", WORKSPACE, "--instance", "ZZ")
        assert code == 2 and "ZZ" in err

    def test_budget_limits_rows(self, capsys):
        code, _, err = run(capsys, "saturate", WORKSPACE, "--instance", "J",
                           "--budget", "1")
        assert code == 1
        assert err == "error: instance saturation: rows budget (1) exhausted\n"

    def test_negative_budget_is_usage_error(self, capsys):
        code, out, err = run(capsys, "saturate", WORKSPACE, "--instance", "J",
                             "--budget", "-1")
        assert (code, out) == (2, "")
        assert "argument --budget: must not be negative: -1" in err


class TestHoms:
    def test_frozen_to_employees(self, capsys):
        code, out, _ = run(capsys, "homs", WORKSPACE, "--from", "I", "--to", "J")
        assert code == 0
        assert out.strip().splitlines()[-1] == "count: 3"

    def test_presented_transforms(self, capsys):
        code, out, _ = run(capsys, "homs", WORKSPACE, "--from", "I",
                           "--to", "I'")
        assert code == 0
        assert "[e := e', d := e'.wrk]" in out
        assert "[e := e'.wrk.sec, d := e'.wrk]" in out
        assert out.strip().splitlines()[-1] == "count: 2"

    @pytest.mark.parametrize("name", ("J", "Jbar"))
    def test_self_homs_bind_generators_named_like_rows(self, capsys, name):
        # every generator of J is also a row of J: the only transform is
        # the identity
        code, out, _ = run(capsys, "homs", WORKSPACE, "--from", name,
                           "--to", name)
        assert code == 0
        assert out.strip().splitlines()[-1] == "count: 1"


class TestQuery:
    def test_three_row_result(self, capsys):
        code, out, _ = run(capsys, "query", WORKSPACE, "--query", "Q",
                           "--instance", "J")
        assert code == 0
        for needle in ('"Noether"', '"Euclid"', '"HR"', '"Admin"',
                       "100", "150"):
            assert needle in out

    def test_crosscheck(self, capsys):
        code, out, _ = run(capsys, "query", WORKSPACE, "--query", "Q",
                           "--instance", "J", "--crosscheck")
        assert code == 0 and "crosscheck: ok" in out

    @pytest.mark.parametrize("budget", [[], ["--budget", "50"]])
    def test_crosscheck_never_builds_the_instance_side(self, capsys,
                                                       tmp_path, budget):
        # y(B) is infinite; B is an entity of K's schema, not of Q's result
        path = tmp_path / "loop.cdb"
        path.write_text(infinite_side_workspace(), encoding="utf-8")
        code, out, err = run(capsys, "query", str(path), "--query", "Q",
                             "--instance", "K", "--crosscheck", *budget)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "crosscheck: ok"

    def test_uber_query(self, capsys):
        code, out, _ = run(capsys, "query", WORKSPACE, "--query", "N",
                           "--instance", "J")
        assert code == 0 and '"Euclid"' in out and "A'" in out

    def test_crosscheck_mismatch_exits_1(self, capsys, monkeypatch):
        # the route through migration reads instance I in place of J
        real = query.gamma
        monkeypatch.setattr(query, "gamma", lambda M, J, budget: real(
            M, saturate(load_fixture("paper.cdb").instances["I"]), budget))
        code, out, err = run(capsys, "query", WORKSPACE, "--query", "Q",
                             "--instance", "J", "--crosscheck")
        assert (code, err) == (1, "")
        assert "\ncrosscheck: mismatch:\n--- direct evaluation ---\n" in out

    def test_crosscheck_of_an_uber_query_is_usage_error(self, capsys):
        code, out, err = run(capsys, "query", WORKSPACE, "--query", "N",
                             "--instance", "J", "--crosscheck")
        assert (code, out) == (2, "")
        assert err == "error: --crosscheck needs a query; N is an uberquery\n"


    @pytest.mark.parametrize("command", ["check", "query"])
    def test_ill_sorted_return_is_domain_error(self, capsys, tmp_path,
                                               command):
        path = tmp_path / "paper.cdb"
        path.write_text((FIXTURES / "paper.cdb").read_text().replace(
            "return dept_name := d.name,", "return dept_name := d.name + 1,"))
        argv = [command, str(path)]
        if command == "query":
            argv += ["--query", "N", "--instance", "J"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (f"error: {path}:135:25: argument d.name of + has sort "
                       "Str, expected Int\n")


class TestMigrate:
    def test_pi(self, capsys):
        code, out, _ = run(capsys, "migrate", WORKSPACE, "--mapping", "G",
                           "--instance", "J", "--mode", "pi")
        assert code == 0 and "QR" in out
        qr_block = out[out.index("QR"):]
        assert qr_block.count("qr") >= 3

    def test_delta(self, capsys):
        code, out, _ = run(capsys, "migrate", WORKSPACE, "--mapping", "G",
                           "--instance", "J", "--mode", "delta")
        assert code == 0 and '"Hypatia"' in out and "QR" not in out

    def test_sigma_presentation_then_saturated(self, capsys):
        code, out, _ = run(capsys, "migrate", WORKSPACE, "--mapping", "H",
                           "--instance", "J", "--mode", "sigma")
        assert code == 0 and out.startswith("generators")
        code, out, _ = run(capsys, "migrate", WORKSPACE, "--mapping", "H",
                           "--instance", "J", "--mode", "sigma",
                           "--saturate")
        assert code == 0 and "Team" in out

    def test_sigma_presentation_prints_string_constants(self, capsys):
        code, out, _ = run(capsys, "migrate", WORKSPACE, "--mapping", "H",
                           "--instance", "J", "--mode", "sigma")
        assert code == 0
        assert 'e1.last = "Gauss"' in out.splitlines()
        assert 'd2.name = "Admin"' in out.splitlines()

    @pytest.mark.parametrize("extra", [(), ("--saturate",)])
    def test_sigma_refuses_an_instance_on_another_schema(self, capsys, extra):
        # F maps R to T, but J lives on S
        code, out, err = run(capsys, "migrate", WORKSPACE, "--mapping", "F",
                             "--instance", "J", "--mode", "sigma", *extra)
        assert (code, out) == (1, "")
        assert err == ("error: sigma: the instance is not on the mapping's "
                       "source schema\n")

    def test_pi_refuses_an_instance_on_another_schema(self, capsys):
        code, out, err = run(capsys, "migrate", WORKSPACE, "--mapping", "F",
                             "--instance", "J", "--mode", "pi")
        assert (code, out) == (1, "")
        assert err == ("error: pi: the instance is not on the mapping's "
                       "source schema\n")


class TestMigrateAcrossSchemas:
    """Mappings between schemas that share no function symbol: an
    isomorphism for pi, and instances missing a table or a column for
    delta."""

    WORKSPACE = """\
schema S2 { entities A; attributes p : A -> Int; }
schema T3 { entities B; attributes p : B -> Int; }
schema T4 { entities B; attributes p : B -> Int, q : B -> Int; }
schema S5 { entities A; edges e : A -> A; }
schema T5 { entities A; edges e2 : A -> A; }
mapping Iso : S2 -> T3 { entity A -> B; attribute p -> p; }
mapping Wide : S2 -> T4 { entity A -> B; attribute p -> p; }
mapping Ren : S5 -> T5 { entity A -> A; edge e -> e2; }
instance K on S2 { generators a1 a2 : A; equations a1.p = 5, a2.p = 7; }
instance K5 on S5 { generators a : A; equations a.e = a; }
instance K0 on S2 { }
"""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "iso.cdb"
        path.write_text(self.WORKSPACE, encoding="utf-8")
        return str(path)

    def migrate(self, capsys, path, mapping, mode, instance="K"):
        return run(capsys, "migrate", path, "--mapping", mapping,
                   "--instance", instance, "--mode", mode)

    def test_pi_along_an_isomorphism(self, capsys, path):
        code, out, err = self.migrate(capsys, path, "Iso", "pi")
        assert (code, err) == (0, "")
        assert out.splitlines()[2:] == ["b1 | 5", "b2 | 7"]

    def test_pi_attribute_without_preimage(self, capsys, path):
        code, out, err = self.migrate(capsys, path, "Wide", "pi")
        assert (code, out) == (1, "")
        assert err == ("error: attribute cell depends on a value outside "
                       "the image: x.q\n")

    def test_pi_attribute_without_preimage_and_no_rows(self, capsys, path):
        # q is read only at rows, and there are none
        code, out, err = self.migrate(capsys, path, "Wide", "pi", "K0")
        assert (code, out, err) == (0, "B | p | q\n--+---+--\n", "")

    def test_delta_missing_entity(self, capsys, path):
        code, out, err = self.migrate(capsys, path, "Iso", "delta")
        assert (code, out) == (1, "")
        assert err == "error: delta: the instance has no table for entity B\n"

    def test_delta_missing_edge(self, capsys, path):
        code, out, err = self.migrate(capsys, path, "Ren", "delta", "K5")
        assert (code, out) == (1, "")
        assert err == "error: delta: the instance has no column for edge e2\n"


class TestTypeEquations:
    """Type equations give the same answer in any order."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("typeeqs") / "typeeqs.cdb"
        path.write_text(type_equations_workspace(), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("name,row", [("Chain", "e | 5 | e.u"),
                                          ("ChainRev", "e | 5 | e.u"),
                                          ("Meet", "e | w | w"),
                                          ("Product", "e | 5 | e.u"),
                                          ("Overlap", "e | e.u | e.u"),
                                          ("OverlapRev", "e | e.u | e.u")])
    def test_substitution_chains_end_in_one_value(self, capsys, path, name,
                                                  row):
        code, out, _ = run(capsys, "saturate", path, "--instance", name)
        assert code == 0
        assert out.splitlines()[2] == row

    def test_homs_into_a_chain_see_its_constant(self, capsys, path):
        code, out, _ = run(capsys, "homs", path, "--from", "Five",
                           "--to", "Chain")
        assert (code, out) == (0, "[e := e]\ncount: 1\n")

    @pytest.mark.parametrize("name", ["Clash", "Facts", "Negated", "Sums",
                                      "Chained", "SelfNot", "Successor"])
    def test_distinct_constants_are_inconsistent(self, capsys, path, name):
        code, out, err = run(capsys, "saturate", path, "--instance", name)
        assert (code, out) == (1, "")
        assert err == ("error: type equations force distinct constants to "
                       "coincide\n")


class TestStringLiterals:
    @staticmethod
    def workspace(tmp_path, literal):
        path = tmp_path / "names.cdb"
        path.write_text("schema S {\n  entities E;\n"
                        "  attributes name : E -> Str;\n}\n"
                        "instance A on S {\n  generators e : E;\n"
                        f'  equations e.name = "{literal}";\n}}\n')
        return str(path)

    def test_long_literal(self, capsys, tmp_path):
        literal = "Ab" * 600
        path = self.workspace(tmp_path, literal)
        code, out, err = run(capsys, "check", path)
        assert (code, err) == (0, "") and out.startswith("ok (")
        code, out, err = run(capsys, "saturate", path, "--instance", "A")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == f'e | "{literal}"'

    def test_non_letter_literal_is_domain_error(self, capsys, tmp_path):
        path = self.workspace(tmp_path, "no spaces")
        code, out, err = run(capsys, "check", path)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}:7:22: only letters")


class TestLongIntegers:
    """Python converts between int and str only up to
    `sys.get_int_max_str_digits()` digits (4300 by default)."""

    @staticmethod
    def workspace(tmp_path, rhs):
        path = tmp_path / "long.cdb"
        path.write_text("schema S {\n  entities A;\n"
                        "  attributes n : A -> Int;\n}\n"
                        "instance I on S {\n  generators a : A;\n"
                        f"  equations a.n = {rhs};\n}}\n")
        return str(path)

    def test_literal_over_the_limit(self, tmp_path):
        path = self.workspace(tmp_path, "9" * 5000)
        p = run_module("saturate", path, "--instance", "I")
        assert (p.returncode, p.stdout) == (1, "")
        assert p.stderr == (f"error: {path}:7:19: integer literal of 5000 "
                            "digits exceeds the limit of 4300 digits\n")

    def test_literal_over_the_limit_in_eq(self):
        p = run_module("eq", GROUP, "--theory", "Grp", "9" * 5000, "a")
        assert (p.returncode, p.stdout) == (1, "")
        assert p.stderr == ("error: <arg>:1:1: integer literal of 5000 "
                            "digits exceeds the limit of 4300 digits\n")

    def test_computed_value_over_the_limit(self, tmp_path):
        path = self.workspace(tmp_path, f"{'9' * 4000} * {'9' * 4000}")
        assert run_module("check", path).returncode == 0
        p = run_module("saturate", path, "--instance", "I")
        assert (p.returncode, p.stdout) == (1, "")
        assert p.stderr == ("error: an integer exceeds the limit of 4300 "
                            "digits\n")


class TestDeepTerms:
    def test_deep_path_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "deep.cdb"
        path.write_text("schema S {\n  entities E;\n  edges mgr : E -> E;\n}\n"
                        "instance D on S {\n  generators e : E;\n"
                        f"  equations e{'.mgr' * 1500} = e;\n}}\n")
        # the parser sorts terms as it builds them, with no recursive walk
        assert run(capsys, "check", str(path)) == (
            0, "ok (1 schemas, 1 instances)\n", "")
        code, out, err = run(capsys, "saturate", str(path), "--instance", "D")
        assert (code, out) == (1, "")
        assert err.startswith("error: term depth") and "Traceback" not in err


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "check", WORKSPACE, "--bogus")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("argv", [
        ("check", WORKSPACE, "--budget", "5"),
        ("homs", WORKSPACE, "--from", "I", "--to", "J", "--format", "json"),
        ("complete", GROUP, "--theory", "Grp", "--format", "json"),
    ])
    def test_option_the_command_does_not_read(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("saturate", WORKSPACE, "--instance", "J"),
        ("complete", GROUP, "--theory", "Grp"),
        ("query", WORKSPACE, "--query", "Q", "--instance", "J"),
        ("migrate", WORKSPACE, "--mapping", "H", "--instance", "J",
         "--mode", "sigma", "--saturate"),
    ])
    def test_byte_identical_output(self, capsys, argv):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    @pytest.mark.parametrize("argv", [
        ("saturate", WORKSPACE, "--instance", "J", "--format", "json"),
        ("migrate", WORKSPACE, "--mapping", "H", "--instance", "J",
         "--mode", "sigma", "--saturate"),
        ("migrate", WORKSPACE, "--mapping", "G", "--instance", "J",
         "--mode", "pi"),
    ])
    def test_byte_identical_across_hash_seeds(self, argv):
        runs = [run_module(*argv, hash_seed=seed) for seed in ("0", "1")]
        assert all(p.returncode == 0 and p.stdout for p in runs)
        assert runs[0].stdout == runs[1].stdout


class TestModuleEntryPoint:
    def test_python_m_prints_tables(self):
        proc = run_module("saturate", WORKSPACE, "--instance", "J")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("Emp | mgr | wrk")
        assert '"Hypatia"' in proc.stdout

    def test_closed_stdout_exits_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        try:
            proc = run_module("saturate", WORKSPACE, "--instance", "J",
                              stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 1 and proc.stderr == ""


class TestTheorySections:
    def test_symbols_declared_after_equations(self, capsys, tmp_path):
        path = tmp_path / "late.cdb"
        path.write_text("theory T { sorts G; equations forall x : G . x = x; "
                        "symbols a : G; }\n", encoding="utf-8")
        code, out, err = run(capsys, "eq", str(path), "--theory", "T",
                             "a", "a")
        assert (code, out.strip(), err) == (0, "Equal", "")


class TestGeneratedDeterminism:
    """A 60-row instance and the type-side workspaces: the closure's node
    ids and member lists follow insertion order, and canonical values,
    like terms, hash by address, so no output, error or exit code may
    depend on the hash seed."""

    @pytest.fixture(scope="class")
    def company(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("company") / "company.cdb"
        path.write_text((FIXTURES / "paper.cdb").read_text(encoding="utf-8")
                        + "\n" + company_instance(random.Random(60)),
                        encoding="utf-8")
        return str(path)

    @pytest.fixture(scope="class")
    def type_equations(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("typeside") / "type_equations.cdb"
        path.write_text(type_equations_workspace(), encoding="utf-8")
        return str(path)

    @staticmethod
    def across_hash_seeds(*argv):
        """Run argv under hash seeds 0 and 1, which must give the same
        stdout, stderr and exit code, and give back the first run."""
        runs = [run_module(*argv, hash_seed=seed) for seed in ("0", "1")]
        first, second = ((p.returncode, p.stdout, p.stderr) for p in runs)
        assert first == second
        return runs[0]

    @pytest.mark.parametrize("extra", [
        ("saturate", "--format", "json"),
        ("migrate", "--mapping", "H", "--mode", "sigma", "--saturate"),
        ("migrate", "--mapping", "G", "--mode", "pi"),
        ("query", "--query", "Q", "--crosscheck"),
        ("query", "--query", "N"),
    ])
    def test_byte_identical_across_hash_seeds(self, company, extra):
        argv = (extra[0], company, "--instance", "W", *extra[1:])
        p = self.across_hash_seeds(*argv)
        assert p.returncode == 0 and p.stdout, p.stderr

    def test_homs_byte_identical_across_hash_seeds(self, company):
        p = self.across_hash_seeds("homs", company, "--from", "W",
                                   "--to", "W")
        assert p.returncode == 0 and p.stdout.endswith("count: 1\n")

    def test_type_side_instance_byte_identical_across_hash_seeds(
            self, tmp_path):
        path = tmp_path / "typeside.cdb"
        path.write_text(typeside_instance(), encoding="utf-8")
        p = self.across_hash_seeds("saturate", str(path), "--instance", "K",
                                   "--format", "json")
        assert p.returncode == 0 and p.stdout, p.stderr

    @pytest.mark.parametrize("name", re.findall(
        r"^instance (\w+) on", type_equations_workspace(), re.M))
    def test_type_equations_byte_identical_across_hash_seeds(
            self, type_equations, name):
        p = self.across_hash_seeds("saturate", type_equations,
                                   "--instance", name)
        assert p.stdout or p.stderr
