import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lmtkauffman import cli, diagram, kauffman
from lmtkauffman.braid import braid_closure
from lmtkauffman.cli import main
from lmtkauffman.corpus import CORPUS, get
from lmtkauffman.diagram import to_pd_text
from lmtkauffman.kauffman import lambda_poly
from lmtkauffman.laurent import LaurentAZ
from lmtkauffman.lmt import check_reversal_writhe, verify_sublink_formula
from lmtkauffman.transfer import (
    VerificationReport,
    check_skein_identity,
    check_specialization_identity,
)

HOPF = "Xr 1 3 4 2\nXr 3 1 2 4\n"
SRC = Path(__file__).resolve().parent.parent / "src"


def write(tmp_path, text, name="d.pd"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_unknot(tmp_path, capsys):
    path = write(tmp_path, "loops 1\n")
    code, out, err = run(capsys, "compute", path)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith(f"# {path}: 0 crossings, 1 components")
    assert lines[1] == "lambda=1"


def test_compute_porcelain_has_no_comments(tmp_path, capsys):
    path = write(tmp_path, "Xr 1 1 2 2\n")
    code, out, _ = run(capsys, "--porcelain", "compute", path)
    assert code == 0
    assert out == "lambda=a\n"


def test_compute_oriented_and_specialized(tmp_path, capsys):
    path = write(tmp_path, HOPF)
    code, out, _ = run(
        capsys, "--porcelain", "compute", path, "--oriented", "--specialize"
    )
    assert code == 0
    got = dict(line.split("=", 1) for line in out.splitlines())
    assert got["writhe"] == "2"
    assert got["lambda"] == "-a^-1*z^-1 + a^-1*z + 1 - a*z^-1 + a*z"
    assert got["f"] == "-a^-3*z^-1 + a^-3*z + a^-2 - a^-1*z^-1 + a^-1*z"
    assert got["f_specialized"] == "-a^-4 - 1"


def test_compute_specialize_without_orientation(tmp_path, capsys):
    path = write(tmp_path, "loops 2\n")
    code, out, _ = run(capsys, "--porcelain", "compute", path, "--specialize")
    assert code == 0
    got = dict(line.split("=", 1) for line in out.splitlines())
    assert got["lambda_specialized"] == "-2"


def test_compute_orientation_mask(tmp_path, capsys):
    path = write(tmp_path, HOPF)
    code, out, _ = run(
        capsys, "--porcelain", "compute", path, "--oriented",
        "--specialize", "--orientation", "10",
    )
    assert code == 0
    got = dict(line.split("=", 1) for line in out.splitlines())
    assert got["writhe"] == "-2"
    assert got["f_specialized"] == "-1 - a^4"


def test_bad_orientation_mask(tmp_path, capsys):
    path = write(tmp_path, HOPF)
    code, out, err = run(capsys, "compute", path, "--oriented", "--orientation", "1")
    assert code == 1
    assert "error:" in err


def test_compute_refuses_a_mask_it_would_not_use(tmp_path, capsys):
    path = write(tmp_path, HOPF)
    for extra in ([], ["--specialize"]):
        code, out, err = run(capsys, "compute", path, *extra, "--orientation", "10")
        assert (code, out, err) == (1, "", "error: --orientation needs --oriented\n")


def test_gtau_and_lmt_verbs(tmp_path, capsys):
    path = write(tmp_path, HOPF)
    code, out, _ = run(capsys, "--porcelain", "gtau", path)
    assert code == 0 and out == "gtau=2*a^-2 + 2*a^2\n"
    code, out, _ = run(capsys, "--porcelain", "lmt", path)
    assert code == 0 and out == "lmt_rhs=-a^-4 - 1\n"


def test_empty_diagram_is_input_error_for_gtau_and_lmt(tmp_path, capsys):
    path = write(tmp_path, "")
    for verb in ("gtau", "lmt"):
        code, out, err = run(capsys, "--porcelain", verb, path)
        assert code == 1 and out == ""
        assert err.startswith("error: the empty diagram")


def test_many_free_loops_take_closed_forms_and_verify_refuses(tmp_path, capsys):
    # 2^24 orientations or sublinks: summed as a product, never enumerated
    path = write(tmp_path, "loops 24\n")
    code, out, _ = run(capsys, "--porcelain", "gtau", path)
    assert code == 0 and out == f"gtau={2 ** 24}\n"
    code, out, _ = run(capsys, "--porcelain", "lmt", path)
    assert code == 0 and out == f"lmt_rhs={-(2 ** 23)}\n"
    code, out, err = run(capsys, "--porcelain", "verify", path)
    assert code == 1 and out == ""
    assert "at most 16 components" in err and "has 24" in err
    # coefficients of 2^com: the sums stop at a component limit rather
    # than print thousands of digits or fail inside the formatter
    path = write(tmp_path, "loops 4096\n")
    code, out, _ = run(capsys, "--porcelain", "gtau", path)
    assert code == 0 and out == f"gtau={2 ** 4096}\n"
    for loops in (4097, 20000, 100000000):
        path = write(tmp_path, f"loops {loops}\n")
        for verb in ("gtau", "lmt"):
            code, out, err = run(capsys, "--porcelain", verb, path)
            assert code == 1 and out == ""
            assert err.startswith("error: ") and "at most 4096 components" in err
            assert f"has {loops}" in err


def test_compute_refuses_more_components_than_it_can_print(tmp_path, capsys):
    # lambda of k free loops is delta^(k - 1), written out in closed form
    path = write(tmp_path, "loops 128\n")
    code, out, _ = run(capsys, "--porcelain", "compute", path)
    assert code == 0
    assert out == f"lambda={kauffman.DELTA ** 127}\n"
    for loops in (129, 100000000):
        path = write(tmp_path, f"loops {loops}\n")
        code, out, err = run(capsys, "--porcelain", "compute", path, "--oriented")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "at most 128 components" in err
        assert f"has {loops}" in err


def test_missing_file(capsys):
    code, out, err = run(capsys, "compute", "/no/such/file.pd")
    assert code == 1
    assert err.startswith("error:")


def test_malformed_diagram(tmp_path, capsys):
    path = write(tmp_path, "Xr 1 2 3\n")
    code, out, err = run(capsys, "compute", path)
    assert code == 1
    assert "error:" in err


def test_loops_count_must_be_a_short_ascii_number(tmp_path, capsys):
    # a superscript digit passes str.isdigit() and 4,301 digits are more
    # than int() converts; neither may escape as a traceback
    for count in ("²", "1" * 4301):
        path = write(tmp_path, f"loops {count}\n")
        for verb in ("compute", "gtau"):
            code, out, err = run(capsys, verb, path)
            assert code == 1 and out == ""
            assert err == "error: line 1: loops header needs one nonnegative count\n"


def test_edge_ids_must_be_ascii_digits(tmp_path, capsys):
    # int() also reads underscores, a sign and non-ASCII digits; ids that
    # int() refuses or that are not positive keep their messages
    for ids, message in (
        ("1_0 1_0 2 2", "edge ids must be integers"),
        ("+1 +1 2 2", "edge ids must be integers"),
        ("١ ١ 2 2", "edge ids must be integers"),
        ("1 1 2 " + "2" * 4301, "edge ids must be integers"),
        ("0 0 2 2", "edge ids must be positive"),
        ("-3 -3 2 2", "edge ids must be positive"),
    ):
        path = write(tmp_path, f"Xr {ids}\n")
        for verb in ("compute", "gtau"):
            code, out, err = run(capsys, verb, path)
            assert code == 1 and out == ""
            assert err == f"error: line 1: {message}\n"


def test_file_that_is_not_utf8(tmp_path, capsys):
    p = tmp_path / "d.pd"
    p.write_bytes(b"\xff\xfe")
    for verb in ("compute", "gtau", "lmt", "verify"):
        code, out, err = run(capsys, verb, str(p))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {p}: not UTF-8 text")


def test_non_planar_diagram_is_invalid_input(tmp_path, capsys):
    path = write(tmp_path, "Xr 1 2 1 2\n")
    for verb in ("verify", "lmt", "compute"):
        code, out, err = run(capsys, verb, path)
        assert code == 1
        assert err.startswith("error:") and "internal error" not in err


def test_codes_with_too_few_faces_are_invalid_input(tmp_path, capsys):
    # even crossing counts, but only 2 faces for 2 crossings (one and two
    # components); the split union of two curls is planar piece by piece
    for text in ("Xr 4 3 2 1\nXl 3 2 4 1\n", "Xl 2 4 1 3\nXl 1 3 2 4\n"):
        path = write(tmp_path, text)
        for verb in ("compute", "gtau", "lmt", "verify"):
            code, out, err = run(capsys, verb, path)
            assert code == 1 and out == ""
            assert err.startswith("error:") and "cannot be drawn in the plane" in err
    path = write(tmp_path, "Xl 1 3 3 1\nXl 4 2 2 4\n")
    code, _, _ = run(capsys, "verify", path)
    assert code == 0


def test_compute_runs_the_skein_recursion_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(d, **kwargs):
        calls.append(d)
        return lambda_poly(d, **kwargs)

    monkeypatch.setattr(kauffman, "lambda_poly", counted)
    monkeypatch.setattr(cli, "lambda_poly", counted)
    path = write(tmp_path, HOPF)
    code, _, _ = run(capsys, "compute", path, "--oriented", "--specialize")
    assert code == 0
    assert len(calls) == 1


def test_specialization_failure_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # z^-1 has no value at z = -a - a^-1 in Laurent polynomials of a
    monkeypatch.setattr(cli, "lambda_poly", lambda d: LaurentAZ({(0, -1): 1}))
    path = write(tmp_path, HOPF)
    code, _, err = run(capsys, "compute", path, "--specialize")
    assert code == 2
    assert err == "internal error: specialization not Laurent\n"


def test_verify_file(tmp_path, capsys):
    path = write(tmp_path, HOPF)
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    lines = out.splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert lines[-1].startswith("# ") and "0 failures" in lines[-1]


def test_verify_corpus_porcelain(capsys):
    code, out, _ = run(capsys, "--porcelain", "verify", "--corpus")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "result=pass"
    assert all("=" in l for l in lines)
    assert any(l == "borromean.sublink-formula=pass" for l in lines)


def test_verify_prints_one_line_per_check_on_many_components(tmp_path, capsys):
    # hopf + T(2,4) + 7 free circles: 11 components, 2^11 reversal-writhe
    # lines, each the text of the check run on its own sublink
    d = braid_closure([-1, -1, -3, -3, -3, -3], 11)
    path = write(tmp_path, to_pd_text(d), "split.pd")
    reports = [verify_sublink_formula(d, subject=path), check_specialization_identity(d, path)]
    reports += [check_skein_identity(d, ci, subject=path) for ci in range(len(d.crossings))]
    reports += [
        VerificationReport(path, f"reversal-writhe[{s:b}]", *check_reversal_writhe(d, 0, s)[2:])
        for s in range(1 << 11)
    ]
    assert all(r.passed for r in reports)
    code, out, err = run(capsys, "--porcelain", "verify", path)
    assert (code, err) == (0, "")
    assert out == "".join(f"{path}.{r.claim}=pass\n" for r in reports) + "result=pass\n"
    code, out, err = run(capsys, "verify", path)
    assert (code, err) == (0, "")
    lines = "".join(f"PASS {path} {r.claim}\n" for r in reports)
    assert out == lines + f"# {len(reports)} checks, 0 failures\n"


def test_verify_failures_print_both_sides_and_count(capsys, monkeypatch):
    # every crossing tag counting +1 fails the orientation-sum skein checks
    monkeypatch.setitem(diagram.TAG_SIGN, "l", 1)
    code, out, err = run(capsys, "--porcelain", "verify", "--corpus")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "result=fail"
    failed = [i for i, line in enumerate(lines[:-1]) if line.endswith("=fail")]
    assert failed
    for i in failed:
        key = lines[i][: -len("=fail")]
        assert lines[i + 1].startswith(f"{key}.lhs=")
        assert lines[i + 2].startswith(f"{key}.rhs=")
    code, out, err = run(capsys, "verify", "--corpus")
    assert code == 1 and err == ""
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL ")]
    assert len(fails) == len(failed)
    assert all(": lhs=" in line and " rhs=" in line for line in fails)
    assert lines[-1] == f"# {len(lines) - 1} checks, {len(fails)} failures"


def test_skein_recursion_too_deep_for_the_stack_is_an_input_error(tmp_path, capsys):
    path = write(tmp_path, to_pd_text(braid_closure([1, -2] * 50, 3)))
    for verb in ("compute", "verify"):
        start = time.perf_counter()
        code, out, err = run(capsys, verb, path)
        assert time.perf_counter() - start < 2, verb
        assert code == 1, verb
        assert err.startswith("error: ") and err.count("\n") == 1, verb
        assert "Traceback" not in err
        # compute prints its header only with its result; verify writes a
        # subject's lines only once they are all computed
        assert out == "", verb


def test_refused_inputs_leave_stdout_empty_in_human_form(tmp_path, capsys):
    # the human header comes out together with the result, never before
    # a refusal that the computation itself raises
    empty = write(tmp_path, "", "empty.pd")
    loops = write(tmp_path, "loops 5000\n", "loops.pd")
    deep = write(tmp_path, to_pd_text(braid_closure([1, -2] * 50, 3)), "deep.pd")
    cases = [
        ("compute", empty),
        ("gtau", empty),
        ("lmt", empty),
        ("gtau", loops),
        ("lmt", loops),
        ("compute", deep),
    ]
    for verb, path in cases:
        code, out, err = run(capsys, verb, path)
        assert code == 1 and out == "", (verb, path)
        assert err.startswith("error: ") and err.count("\n") == 1, (verb, path)


def test_verify_random_is_deterministic(capsys):
    code1, out1, _ = run(
        capsys, "--porcelain", "verify", "--random", "5", "--seed", "7"
    )
    code2, out2, _ = run(
        capsys, "--porcelain", "verify", "--random", "5", "--seed", "7"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(
        capsys, "--porcelain", "verify", "--random", "5", "--seed", "8"
    )
    assert code3 == 0


def test_verify_random_needs_a_positive_count(capsys):
    for n in ("0", "-2"):
        code, out, err = run(capsys, "--porcelain", "verify", "--random", n)
        assert code == 1 and out == ""
        assert err == "error: --random needs N >= 1\n"
    for k in ("0", "-5"):
        code, out, err = run(
            capsys, "--porcelain", "verify", "--random", "3", "--max-crossings", k
        )
        assert code == 1 and out == ""
        assert err == "error: --max-crossings needs K >= 1\n"


def test_verify_random_refuses_words_longer_than_the_limit(capsys):
    # one past the limit only: unchecked, a huge K draws the whole word first
    k = str(cli.MAX_RANDOM_CROSSINGS + 1)
    code, out, err = run(capsys, "--porcelain", "verify", "--random", "1", "--max-crossings", k)
    assert code == 1 and out == ""
    assert err == f"error: --max-crossings needs K <= {cli.MAX_RANDOM_CROSSINGS}\n"
    code, out, _ = run(
        capsys, "--porcelain", "verify", "--random", "1", "--max-crossings",
        str(cli.MAX_RANDOM_CROSSINGS),
    )
    assert code == 0 and out.endswith("result=pass\n")


def test_verify_refuses_random_flags_without_random(tmp_path, capsys):
    path = write(tmp_path, HOPF)
    for target in ([path], ["--corpus"]):
        for flags in (["--seed", "3"], ["--max-crossings", "5"], ["--seed", "0"]):
            code, out, err = run(capsys, "verify", *target, *flags)
            assert code == 1 and out == ""
            assert err == "error: --max-crossings and --seed need --random N\n"
    # given explicitly, the defaults draw what omitting them draws
    argv = ["--porcelain", "verify", "--random", "2"]
    assert run(capsys, *argv) == run(capsys, *argv, "--seed", "0", "--max-crossings", "8")


def test_verify_without_target(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 1
    assert "error:" in err


def test_verify_refuses_more_than_one_target(tmp_path, capsys):
    path = write(tmp_path, HOPF)
    for targets in (
        [path, "--random", "1"],
        [path, "--corpus"],
        ["--corpus", "--random", "1"],
        [path, "--corpus", "--random", "0"],
    ):
        for porcelain in ([], ["--porcelain"]):
            code, out, err = run(capsys, *porcelain, "verify", *targets)
            assert code == 1 and out == ""
            assert err == "error: verify takes one of a path, --corpus, or --random N\n"


def test_verify_random_draws_each_closure_as_it_is_verified(capsys, monkeypatch):
    # reports stream: no closure is drawn before the ones ahead of it are
    # verified and their reports written, so --random N holds one closure
    # and one closure's lines at a time
    drawn = []
    verified = []
    written = []  # stdout written since the previous draw, at each draw
    random_closure, verify_all = cli.random_closure, cli.verify_all

    def counting_closure(rng, k):
        written.append(capsys.readouterr().out)
        drawn.append(k)
        return random_closure(rng, k)

    def counting_verify(d, **kwargs):
        verified.append((kwargs["subject"], len(drawn)))
        return verify_all(d, **kwargs)

    monkeypatch.setattr(cli, "random_closure", counting_closure)
    monkeypatch.setattr(cli, "verify_all", counting_verify)
    code, out, _ = run(capsys, "--porcelain", "verify", "--random", "6", "--max-crossings", "5")
    assert code == 0 and out.endswith("result=pass\n")
    assert verified == [(f"random[{i}]", i + 1) for i in range(6)]
    written.append(out.removesuffix("result=pass\n"))
    assert written[0] == ""
    for i, chunk in enumerate(written[1:]):
        lines = chunk.splitlines()
        assert lines and all(line.startswith(f"random[{i}].") for line in lines), i


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--random", "abc"], "argument --random: invalid int value: 'abc'"),
        (["verify", "--corpus", "--porcelain"], "unrecognized arguments: --porcelain"),
        ([], "the following arguments are required: verb"),
    ],
    ids=["bad-int", "unknown-flag", "missing-verb"],
)
def test_usage_errors_exit_1_with_an_error_line(capsys, argv, message):
    # exit 2 is kept for internal errors, so a refused command line returns
    # 1 like any other invalid input, rather than argparse's SystemExit(2)
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def _run_module(*argv):
    # python -m lmtkauffman.cli in a process of its own, on this checkout's src/
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "lmtkauffman.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_module_entry_point_exits_with_mains_code(capsys):
    proc = _run_module("--help")
    assert proc.returncode == 0 and "usage:" in proc.stdout
    proc = _run_module("--bogus")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    proc = _run_module("--porcelain", "verify", "--corpus")
    code, out, err = run(capsys, "--porcelain", "verify", "--corpus")
    assert code == 0 and err == "" and out.endswith("result=pass\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_consecutive_calls_share_one_parser(tmp_path, capsys):
    # one process, one parser: each call still parses its own arguments,
    # so a run of different verbs prints what each prints alone
    path = write(tmp_path, HOPF)
    argvs = [
        ["--porcelain", "compute", path, "--oriented", "--specialize"],
        ["gtau", path],
        ["--porcelain", "lmt", path, "--orientation", "01"],
        ["verify", path],
        ["compute", path],
        ["corpus", "show"],
        ["--porcelain", "verify", "--random", "2", "--max-crossings", "4", "--seed", "5"],
        ["corpus", "list"],
        ["--porcelain", "corpus", "show", "hopf_neg"],
    ]
    alone = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert [run(capsys, *argv) for argv in argvs] == alone
    assert cli.build_parser() is cli.build_parser()


def test_corpus_list(capsys):
    code, out, _ = run(capsys, "--porcelain", "corpus", "list")
    assert code == 0
    assert out.splitlines() == [e.name for e in CORPUS]


def test_corpus_show_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "corpus", "show", "trefoil_right")
    assert code == 0
    assert out == get("trefoil_right").pd_text
    path = write(tmp_path, out)
    code, out2, _ = run(capsys, "--porcelain", "compute", path)
    assert code == 0 and out2.startswith("lambda=")


def test_corpus_show_unknown_name(capsys):
    code, out, err = run(capsys, "corpus", "show", "nope")
    assert code == 1 and "nope" in err


def test_corpus_show_without_name(capsys):
    code, out, err = run(capsys, "corpus", "show")
    assert code == 1 and "name" in err


def test_corpus_list_takes_no_name(capsys):
    code, out, err = run(capsys, "--porcelain", "corpus", "list", "extra")
    assert code == 1 and out == ""
    assert err == "error: corpus list takes no name\n"
