import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import transgress
from transgress import lattices, rootdata, spectral
from transgress.cli import main
from transgress.fixtures import run_fixtures
from transgress.lattices import LatticeConsistencyError
from transgress.groupspec import (
    GroupSpecParseError,
    canonical_spec_string,
    parse_group_spec,
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpecParsing:
    def test_default_is_simply_connected(self):
        g = parse_group_spec("A3")
        assert canonical_spec_string(g) == "A3:sc"

    def test_adjoint_suffix(self):
        g = parse_group_spec("C3:adj")
        assert canonical_spec_string(g) == "C3:adj"

    def test_explicit_pi1_generators(self):
        g = parse_group_spec("D4:pi1=[1,0,1,0]")
        assert g.pi1_generators

    def test_invalid_rank_reports_position(self):
        with pytest.raises(GroupSpecParseError) as exc:
            parse_group_spec("X9")
        assert exc.value.position == 0

    def test_bad_suffix_rejected(self):
        with pytest.raises(GroupSpecParseError):
            parse_group_spec("A2:simply")

    def test_wrong_length_generator_rejected(self):
        with pytest.raises((GroupSpecParseError, ValueError)):
            parse_group_spec("A3:pi1=[1,0]")

    @pytest.mark.parametrize("spec,offset", [
        # The offset is where the bad generator starts, not where its text
        # first occurs in the list.
        ("A2:pi1=[1,1;]", 12),
        ("A2:pi1=[1,1;1,]", 12),
        ("A2:pi1=[1,x]", 8),
        ("A2:pi1=[1,1;0,0;x]", 16),
        ("A3:pi1=[1,0]", 8),
        ("A3:pi1=[1,0,0;1,0]", 14),
        ("A2:pi1=[1_0,1]", 8),
        ("A2:pi1=[\u0661,0]", 8),
        ("A2:pi1=[1,1;0,\uff12]", 12),
        ("A2:pi1=[1,+-1]", 8),
        ("A2:pi1=[\t]", 8),
    ])
    def test_bad_generator_reports_its_offset(self, spec, offset):
        with pytest.raises(GroupSpecParseError) as exc:
            parse_group_spec(spec)
        assert exc.value.position == offset

    @pytest.mark.parametrize("spec", ["A2:pi1=[1,1]\n", "A2:sc\n", "A2:adj\n", "A2\n"])
    def test_trailing_newline_rejected(self, spec):
        with pytest.raises(GroupSpecParseError) as exc:
            parse_group_spec(spec)
        assert exc.value.position == 2


class TestDescribe:
    def test_json_document(self, capsys):
        code, out, _ = run_cli(["describe", "A2", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["kind"] == "describe"
        assert doc["group"] == "A2:sc"
        p = doc["payload"]
        assert p["rank"] == 2
        assert p["cartan"]["entries"] == [[2, -1], [-1, 2]]
        assert p["center_invariant_factors"] == [3]
        assert p["pi1_order"] == 1
        assert p["theta"]["entries"] == [[2, -1], [-1, 2]]

    def test_adjoint_theta_is_identity(self, capsys):
        code, out, _ = run_cli(["describe", "A2:adj", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["theta"]["entries"] == [[1, 0], [0, 1]]
        assert doc["payload"]["pi1_order"] == 3

    def test_text_output_mentions_center(self, capsys):
        code, out, _ = run_cli(["describe", "D4"], capsys)
        assert code == 0
        assert "Z2 x Z2" in out


class TestTau:
    def test_sc_identity(self, capsys):
        code, out, _ = run_cli(["tau", "A3", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        p = doc["payload"]
        assert p["matrix"]["entries"] == [
            [1, 0, 0], [0, 1, 0], [0, 0, 1],
        ]
        assert p["det"] == 1
        assert p["singular_primes"] == []

    def test_adjoint_mod_section(self, capsys):
        code, out, _ = run_cli(["tau", "C2:adj", "--mod", "2", "--json"], capsys)
        assert code == 0
        mod = json.loads(out)["payload"]["mod"]
        assert mod["p"] == 2
        assert not mod["is_isomorphism"]
        assert [e["coeffs"] for e in mod["kernel"]] == [[0, 1]]
        assert mod["kernel"][0]["label"] == "t_2"
        assert len(mod["cokernel"]) == 1

    def test_text_isomorphism_line(self, capsys):
        code, out, _ = run_cli(["tau", "A3", "--mod", "5"], capsys)
        assert code == 0
        assert "mod 5: isomorphism" in out

    def test_composite_modulus_rejected(self, capsys):
        code, _, err = run_cli(["tau", "A3", "--mod", "6"], capsys)
        assert code == 2
        assert "not prime" in err


class TestE3:
    def test_su2_rational(self, capsys):
        code, out, _ = run_cli(["e3", "A1", "--json"], capsys)
        assert code == 0
        p = json.loads(out)["payload"]
        assert p["coefficients"] == "rational"
        assert p["ranks"][0] == [0, 1]
        assert p["ranks"][3] == [3, 1]
        assert p["poincare"] == "1 + q^3"

    def test_psu2_mod_2_with_bidegrees(self, capsys):
        code, out, _ = run_cli(
            ["e3", "A1:adj", "--coeff", "2", "--bidegrees", "--json"], capsys
        )
        assert code == 0
        p = json.loads(out)["payload"]
        assert p["coefficients"] == 2
        assert [r for _, r in p["ranks"]] == [1, 1, 1, 1]
        assert [s + t for s, t, r in p["bidegrees"] if r] == [0, 1, 2, 3]

    def test_max_degree_truncation(self, capsys):
        code, out, _ = run_cli(
            ["e3", "A2", "--max-degree", "3", "--json"], capsys
        )
        assert code == 0
        p = json.loads(out)["payload"]
        assert p["max_total_degree"] == 3
        assert [r for _, r in p["ranks"]] == [1, 0, 0, 1]

    def test_negative_max_degree_is_input_error(self, capsys):
        code, out, err = run_cli(["e3", "A2", "--max-degree", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert "max total degree -1" in err

    def test_modulus_beyond_primality_bound_is_input_error(self, capsys):
        from transgress.exactlin import MILLER_RABIN_BOUND

        big = str(MILLER_RABIN_BOUND + 2)
        for argv in (["e3", "A1", "--coeff", big], ["tau", "A1", "--mod", big]):
            code, out, err = run_cli(argv, capsys)
            assert code == 2
            assert out == ""
            assert str(MILLER_RABIN_BOUND) in err

    def test_cap_refusal_exit_code(self, capsys):
        code, _, err = run_cli(["e3", "E8"], capsys)
        assert code == 1
        assert "--force" in err

    def test_low_degree_exceptional_page_runs(self, capsys):
        code, out, _ = run_cli(
            ["e3", "E6", "--coeff", "3", "--max-degree", "8"], capsys
        )
        assert code == 0
        assert "E3 ranks by total degree: 1 + q^3 + q^7 + q^8" in out

    def test_truncated_cap_refusal_names_the_count(self, capsys):
        code, out, err = run_cli(
            ["e3", "E8", "--coeff", "2", "--max-degree", "11"], capsys
        )
        assert code == 1
        assert out == ""
        assert "2508" in err and "length <= 6" in err

    @pytest.mark.parametrize("spec,count,length", [
        ("A6", 3624, 12), ("B5", 2585, 14), ("E6", 34823, 20),
    ])
    def test_full_page_cap_counts_the_half_page(self, spec, count, length, capsys):
        # A full page is built to dim G // 2 and mirrored, so the cap counts
        # the elements of length <= (dim G // 2 + 1) // 2, not the group.
        code, out, err = run_cli(["e3", spec], capsys)
        assert code == 1
        assert out == ""
        assert f"{count} elements of length <= {length}," in err

    def test_full_page_under_the_cap_runs(self, capsys):
        # W(D5) has 1920 elements; the half page enumerates 1271 of them.
        code, out, _ = run_cli(["e3", "D5:pi1=[1,0,0,0,0]", "--coeff", "2"], capsys)
        assert code == 0
        assert "E3 ranks by total degree: 1 + q^1 + q^2 + 2q^3 + 2q^4" in out

    @pytest.mark.parametrize("argv,module,name,error", [
        (["describe", "A2"], lattices, "unit_lattice_basis", LatticeConsistencyError),
        (["e3", "A2"], spectral, "e3_ranks", AssertionError),
    ])
    def test_internal_error_exits_4_with_one_line(
        self, argv, module, name, error, monkeypatch, capsys
    ):
        def broken(*args, **kwargs):
            raise error("invariant broken")

        monkeypatch.setattr(module, name, broken)
        code, out, err = run_cli(argv, capsys)
        assert code == 4
        assert out == ""
        assert err == f"internal error: {error.__name__}: invariant broken\n"

    def test_bad_coeff_rejected(self, capsys):
        code, _, err = run_cli(["e3", "A1", "--coeff", "six"], capsys)
        assert code == 2
        assert "--coeff" in err

    def test_composite_coeff_rejected(self, capsys):
        code, out, err = run_cli(["e3", "A1", "--coeff", "4"], capsys)
        assert code == 2
        assert out == ""
        assert "not prime" in err


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["describe", "D4:adj", "--json"],
        ["tau", "C3:adj", "--mod", "2", "--json"],
        ["e3", "C2", "--bidegrees", "--json"],
    ])
    def test_repeated_invocations_byte_identical(self, argv, capsys):
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second


class TestFixturesCommand:
    def test_bundled_corpus_passes(self, capsys):
        code, out, _ = run_cli(["fixtures"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "fixtures passed" in out

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(["fixtures", "--json"], capsys)
        assert code == 0
        p = json.loads(out)["payload"]
        assert p["failed"] == 0
        assert p["passed"] == p["total"] > 0

    def test_failing_corpus_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([
            {
                "name": "wrong-tau",
                "kind": "tau_matrix",
                "spec": "A2:sc",
                "expect": "cartan_transpose",
            },
        ]))
        code, out, _ = run_cli(["fixtures", "--corpus", str(bad)], capsys)
        assert code == 3
        assert "FAIL wrong-tau" in out

    def test_failing_e3_fixture_names_the_first_wrong_degree(self, tmp_path):
        # E6 mod 3 to degree 8 has ranks 1, 0, 0, 1, 0, 0, 0, 1, 1.
        entry = {"kind": "e3_modp", "spec": "E6:sc", "p": 3, "up_to": 8}
        corpus = tmp_path / "e3.json"
        corpus.write_text(json.dumps([
            {**entry, "name": "wrong-rank", "ranks": [1, 0, 0, 1, 0, 0, 0, 2, 0]},
            {**entry, "name": "too-few", "ranks": [1, 0, 0, 1]},
        ]))
        results = run_fixtures(path=corpus)
        assert [(r.name, r.ok, r.detail) for r in results] == [
            ("wrong-rank", False, "mod-3 E3, degree 7: rank 1 != 2"),
            ("too-few", False, "mod-3 E3, 4 ranks given for degrees 0..8"),
        ]

    def test_empty_corpus_is_input_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps([]))
        code, _, err = run_cli(["fixtures", "--corpus", str(empty)], capsys)
        assert code == 2
        assert "no fixtures" in err

    @pytest.mark.parametrize("corpus,message", [
        ({"name": "x", "kind": "kac"}, "not a JSON list"),
        ([{"name": "ok", "kind": "kac"}, ["x"]], "entry 1 is not an object"),
        ([{"kind": "kac"}], "entry 0 has no 'name'"),
        ([{"name": "no-kind"}], "entry 0 has no 'kind'"),
    ], ids=["top-level-object", "entry-not-object", "no-name", "no-kind"])
    def test_malformed_corpus_is_input_error(self, tmp_path, capsys, corpus, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(corpus))
        code, _, err = run_cli(["fixtures", "--corpus", str(bad)], capsys)
        assert code == 2
        assert message in err

    def test_missing_corpus_is_input_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["fixtures", "--corpus", str(tmp_path / "nope.json")], capsys
        )
        assert code == 2

    def test_directory_corpus_is_input_error(self, tmp_path, capsys):
        code, out, err = run_cli(["fixtures", "--corpus", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(tmp_path) in err


def spawn_cli(argv, stdout, unbuffered=None, preexec_fn=None):
    """Run `python -m transgress.cli argv` in a fresh interpreter with the
    given stdout; stderr is captured.  unbuffered=True or False runs the
    child with an unbuffered or a block-buffered stdout, and None inherits
    the setting.  preexec_fn runs in the child before the interpreter."""
    package_root = str(Path(transgress.__file__).resolve().parent.parent)
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, *["-u"] * bool(unbuffered), "-m", "transgress.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
        preexec_fn=preexec_fn,
    )


# Into a block-buffered stdout the output is written and main's flush fails;
# into an unbuffered one the write itself fails.  Each test runs both, so
# neither path depends on the caller's PYTHONUNBUFFERED.
class TestUnwritableStdout:
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_pipe_exits_5_quietly(self, unbuffered):
        # The read end is closed before the child starts, so its first write
        # fails with EPIPE whatever the timing.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = spawn_cli(["describe", "A1"], write_end, unbuffered)
        finally:
            os.close(write_end)
        assert proc.returncode == 5
        assert proc.stderr == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [["describe", "A1"], ["e3", "F4", "--json"]])
    def test_full_device_exits_5_with_one_line(self, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = spawn_cli(argv, full, unbuffered)
        err = proc.stderr.decode()
        assert proc.returncode == 5
        assert "Traceback" not in err
        assert err.startswith("error: output could not be written")
        assert err.count("\n") == 1

    # argparse drops a failed write of the help text, in either path.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [["--help"], ["e3", "--help"]])
    def test_help_into_full_device_exits_5(self, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = spawn_cli(argv, full, unbuffered)
        err = proc.stderr.decode()
        assert proc.returncode == 5
        assert err.startswith("error: output could not be written")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_help_into_closed_pipe_exits_5_quietly(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = spawn_cli(["--help"], write_end, unbuffered)
        finally:
            os.close(write_end)
        assert proc.returncode == 5
        assert proc.stderr == b""


class TestParseErrorsAtCli:
    def test_unknown_family(self, capsys):
        code, _, err = run_cli(["describe", "X9"], capsys)
        assert code == 2
        assert "error:" in err

    def test_rank_out_of_range(self, capsys):
        code, _, err = run_cli(["tau", "B1"], capsys)
        assert code == 2

    def test_rank_above_ceiling_fails_fast(self, capsys, monkeypatch):
        def build(t):
            raise AssertionError(f"root system of {t} built")

        monkeypatch.setattr(rootdata, "build_root_system", build)
        code, out, err = run_cli(["describe", "A100000"], capsys)
        assert code == 2
        assert out == ""
        assert f"[1, {rootdata.MAX_RANK}]" in err


@pytest.mark.parametrize("argv", [
    ["e3", "D32", "--max-degree", "3"],
    ["e3", "A32", "--coeff", "2", "--max-degree", "4"],
    ["e3", "B20", "--max-degree", "5"],
])
def test_high_rank_low_degree_pages_fit_in_one_gib(argv):
    # H*(G) is exterior on generators of degrees 2d - 1, d an invariant
    # degree; the second is 5 or 7 here, and A_n has no torsion.  The page
    # tabulates exterior degrees only up to its own degree, so a rank-32
    # group answers within 1 GiB of address space.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = spawn_cli(argv, subprocess.PIPE, preexec_fn=limit)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.splitlines()[-1] == b"E3 ranks by total degree: 1 + q^3"


# sha256 of the stdout of each call, recorded before the mod-p eliminator and
# the d2 assembly were rewritten (the E8 page before its d2 rows became
# sparse; describe D5:adj, describe E6, tau E7:adj and tau A3:pi1=[0,1,0]
# before the CLI built the row labels, the isomorphism flag and the center's
# order itself); the output must stay byte-identical.
GOLDEN_STDOUT_SHA256 = {
    "describe D4:adj --json":
        "ac5b4a6a6755b07a89f8ba2ad036ae6852c7f5a27b9dc4d12b92d736e7ad0698",
    "describe D5:adj --json":
        "3142ae7f465aa8f8e02061fe230314460eeaddc40a1666dbbaefb9c6cfa2fea6",
    "describe E6":
        "30bcbc15d28357c7ced35a59a0d6e3e615e112ab1ab5d95ede6db774c77e67ac",
    "tau E7:adj --mod 2 --json":
        "559b86c37512157b0a301e19ca3295a513d87d643feeb588f3f9974ccb5c3964",
    "tau A3:pi1=[0,1,0] --mod 3":
        "a64411b9ad7346b2befb9c1f8347e7ab921885a7b876c8a138d426df1bb87dda",
    "tau C3:adj --mod 2 --json":
        "9830eee3ba3b4c3e19d27a67b8d57e6559f838a8106c53bddf3a597b04de21e1",
    "tau D4:pi1=[1,0,1,0] --mod 2":
        "a7f547235d8adba7c38d5dc4c32bf2bab9394e34f2d88440c6b7394ddab0d636",
    "e3 B3 --json --bidegrees":
        "c3dcde55982f56a2800b3a665d8c63b1bfb7570fac21d12f12644af54efbde86",
    "e3 C4 --coeff 2 --max-degree 5 --json --bidegrees":
        "8af356844054838de1e05736984e09e36aee630b71634120bf38cf89f6914d13",
    "e3 A2 --coeff 999999999989 --json":
        "6a811c4468f0f01a04f1a11e4515030baf1aba4b46f506d81a7101019fce69cf",
    "e3 E8 --coeff 3 --max-degree 9 --json --bidegrees":
        "392fcd7bf9a5e92211e83ff6866f79e203c7538a068f221ab7730067a2faf9e7",
    "e3 F4 --coeff 3 --json --bidegrees":
        "c6d17d00fc772db24c1a1c8310b4aeb1530e24879e799d65a2ab091528af9766",
    "e3 E7 --coeff 2 --max-degree 12 --json --bidegrees":
        "039ca9b661d74605d88a9b8f90e5219aa37026c4292f95475bd55820d14ce87d",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT_SHA256))
def test_golden_stdout_digest(argv, capsys):
    code, out, _ = run_cli(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]
