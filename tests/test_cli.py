import json

import pytest

from hypergroups import InternalConsistencyError, cli, core, formats
from hypergroups.cli import main
from hypergroups import fixtures as fx
from hypergroups.formats import serialize_hypergroup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_good_file(capsys, fixtures_dir):
    code, out, _ = run(capsys, "validate", str(fixtures_dir / "k2.hg"))
    assert code == 0
    assert "valid: yes" in out


def test_validate_broken_table(capsys, tmp_path):
    text = serialize_hypergroup(fx.k2()).replace("1 1 : 0 1", "1 1 : 1")
    f = tmp_path / "bad.hg"
    f.write_text(text)
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 1
    assert "H3" in out


def test_validate_cayley_runs_the_axiom_check_once(capsys, fixtures_dir, monkeypatch):
    # validate reads every format through load_any, whose hypergroup
    # constructor is the one axiom check.
    calls = []
    real = core.validate

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(core, "validate", counting)
    for file in ("s3.cayley", "k2.hg", "k3.scheme"):
        calls.clear()
        code, out, _ = run(capsys, "validate", str(fixtures_dir / file))
        assert code == 0, file
        assert "valid: yes" in out
        assert len(calls) == 1, file


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/no.hg")
    assert code == 2
    assert "error" in err


def test_validate_corrupt_document(capsys, tmp_path):
    f = tmp_path / "corrupt.hg"
    f.write_text("hypergroup x\nrank 2\nstar 0 1\n0 0 : 0\n")
    code, _, err = run(capsys, "validate", str(f))
    assert code == 2
    assert "missing table entry" in err


def test_undecodable_byte_is_an_input_error_at_its_line(capsys, tmp_path):
    # Written as bytes: the byte 0xe9 opens a three-byte sequence that a
    # newline breaks off, on line 4 whichever line breaks come before it.
    f = tmp_path / "latin1.hg"
    f.write_bytes(b"hypergroup x\r\nrank 1\nstar 0\r0 0 : \xe9\n")
    assert run(capsys, "validate", str(f)) == (
        2, "", "error: cannot decode byte 0xe9 as UTF-8: invalid continuation "
               "byte (line 4)\n")
    f.write_bytes(b"hypergroup x\nrank 1\nstar 0\n0 0 : 0 \xe9")
    assert run(capsys, "validate", str(f))[2] == (
        "error: cannot decode byte 0xe9 as UTF-8: unexpected end of data "
        "(line 4)\n")


def test_line_breaks_of_a_readable_file_are_read_as_newlines(capsys, tmp_path):
    # \r\n and \r each end one line, as open() reads them; a form feed
    # does not, so the bad member is reported on line 5, not 6.
    f = tmp_path / "breaks.hg"
    f.write_bytes(b"hypergroup x\r\nrank 2\rstar 0 1\n0 0 : 0\x0c\r\n"
                  b"0 1 : 2\n")
    assert run(capsys, "validate", str(f)) == (
        2, "", "error: product member out of range at (0,1) (line 5)\n")
    f.write_bytes(b"hypergroup x\r\nrank 1\rstar 0\r\n0 0 : 0\r")
    assert run(capsys, "validate", str(f)) == (0, "valid: yes\n", "")


def test_analyze_bad_star_index_is_input_error(capsys, tmp_path):
    f = tmp_path / "bad_star.hg"
    f.write_text("hypergroup h\nrank 2\nidentity 1\nstar 0 5\n"
                 "0 0 : 0\n0 1 : 1\n1 0 : 1\n1 1 : 0\n")
    code, _, err = run(capsys, "analyze", str(f))
    assert code == 2
    assert "star index out of range (line 4)" in err


def test_analyze_k2(capsys, fixtures_dir):
    code, out, _ = run(capsys, "analyze", str(fixtures_dir / "k2.hg"))
    assert code == 0
    assert "residually thin: no" in out
    assert "valency: undefined" in out


def test_analyze_cayley_autoconvert(capsys, fixtures_dir):
    code, out, _ = run(capsys, "analyze", str(fixtures_dir / "s3.cayley"))
    assert code == 0
    assert "residually thin: yes" in out
    assert "valency: 6" in out


def test_analyze_trivial(capsys, fixtures_dir):
    code, out, _ = run(capsys, "analyze", str(fixtures_dir / "trivial.hg"))
    assert code == 0
    assert "valency: 1" in out


def test_analyze_machine_deterministic(capsys, fixtures_dir):
    code1, out1, _ = run(capsys, "analyze", str(fixtures_dir / "s3.cayley"),
                         "--machine")
    code2, out2, _ = run(capsys, "analyze", str(fixtures_dir / "s3.cayley"),
                         "--machine")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["rank"] == 6
    assert data["closed_subsets"] == 6
    assert data["valency"] == 6


def test_quotient_command(capsys, fixtures_dir):
    # a transposition in the shipped s3 indexing is element 1
    code, out, _ = run(capsys, "quotient", str(fixtures_dir / "s3.cayley"), "1")
    assert code == 0
    body = out[out.index("rank"):]
    k2_body = serialize_hypergroup(fx.k2())
    assert body == k2_body[k2_body.index("rank"):]


def test_quotient_empty_generators_copies_input(capsys, fixtures_dir):
    code, out, _ = run(capsys, "quotient", str(fixtures_dir / "s3.cayley"))
    assert code == 0
    s3 = fx.sym3()
    body = serialize_hypergroup(s3)
    assert out[out.index("rank"):] == body[body.index("rank"):]


def test_quotient_rotation_gives_c2(capsys, fixtures_dir):
    s3 = fx.sym3()
    rot = next(s for s in range(1, 6) if fx.element_order(s3, s) == 3)
    code, out, _ = run(capsys, "quotient", str(fixtures_dir / "s3.cayley"),
                       str(rot))
    assert code == 0
    assert "rank 2" in out
    assert "1 1 : 0\n" in out


def test_quotient_bad_generator(capsys, fixtures_dir):
    code, _, err = run(capsys, "quotient", str(fixtures_dir / "s3.cayley"), "9")
    assert code == 2
    assert "out of range" in err


def test_hall_s3(capsys, fixtures_dir):
    code, out, _ = run(capsys, "hall", str(fixtures_dir / "s3.cayley"),
                       "--sigma", "smallest", "--pi", "{2}")
    assert code == 0
    assert "hall subsets: 3" in out


def test_hall_pi_all(capsys, fixtures_dir):
    code, out, _ = run(capsys, "hall", str(fixtures_dir / "s3.cayley"),
                       "--pi", "all")
    assert code == 0
    assert "hall subsets: 1" in out
    assert "{0,1,2,3,4,5}" in out


def test_hall_constructive(capsys, fixtures_dir):
    code, out, _ = run(capsys, "hall", str(fixtures_dir / "s3.cayley"),
                       "--pi", "{2}", "--constructive")
    assert code == 0
    assert "hall subset: {" in out


def test_hall_constructive_refuses_outside_pi_valenced(capsys, fixtures_dir):
    # d4_mod_refl is residually thin and sigma-solvable but not
    # {3}-valenced, so the constructive search refuses with that reason.
    path = str(fixtures_dir / "d4_mod_refl.hg")
    argv = ("hall", path, "--pi", "{3}", "--constructive")
    assert run(capsys, *argv) == (1, "\n".join([
        "is_residually_thin: yes",
        "is_sigma_solvable: yes",
        "is_pi_valenced: no",
        "radical: (none)",
        "hall subset: (none)",
        "note: constructive Hall search refused [not Pi-valenced]",
    ]) + "\n", "")
    code, out, err = run(capsys, *argv, "--machine")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "command": "hall",
        "flags": {"is_pi_valenced": False, "is_residually_thin": True,
                  "is_sigma_solvable": True},
        "hall_subset": None,
        "mode": "constructive",
        "note": "constructive Hall search refused [not Pi-valenced]",
        "radical": None,
    }


def test_internal_error_exits_one(capsys, fixtures_dir, monkeypatch):
    # A package error that is not an input error ends in exit 1, with one
    # error line on stderr and nothing on stdout.
    def broken(*args):
        raise InternalConsistencyError("induced table broke")

    monkeypatch.setattr(cli, "verify_hall", broken)
    code, out, err = run(capsys, "verify", str(fixtures_dir / "s3.cayley"),
                         "--pi", "{2}")
    assert (code, out, err) == (1, "", "error: induced table broke\n")


def test_hall_a5_exit_one(capsys, fixtures_dir):
    code, out, _ = run(capsys, "hall", str(fixtures_dir / "a5.cayley"),
                       "--pi", "{2},{5}", "--rank-cap", "60", "--machine")
    assert code == 1
    data = json.loads(out)
    assert data["flags"]["is_sigma_solvable"] is False
    assert data["hall_subsets"] == []


def test_hall_bad_pi_syntax(capsys, fixtures_dir):
    code, _, err = run(capsys, "hall", str(fixtures_dir / "s3.cayley"),
                       "--pi", "{4}")
    assert code == 2
    assert "not prime" in err or "class" in err


@pytest.mark.parametrize("argv, message", [
    (("hall", "s3.cayley", "--pi", "{}"), "bad class literal '{}'"),
    (("hall", "s3.cayley", "--pi", "{ }"), "bad class literal '{ }'"),
    (("hall", "s3.cayley", "--pi", "{2"), "bad class literal '{2'"),
    (("hall", "s3.cayley", "--sigma", "2||3", "--pi", "0"),
     "empty class in partition text"),
    (("hall", "s3.cayley", "--sigma", "2|3", "--pi", "a"),
     "bad class selection 'a'"),
    (("quotient", "s3.cayley", "1,x"), "bad generator list '1,x'"),
    # Each integer is ASCII digits after an optional '-', the formats'
    # grammar; int() would read '+2' as 2, '2_3' as 23 and an Arabic-Indic
    # digit as its value.
    (("hall", "s3.cayley", "--sigma", "2_3|5", "--pi", "0"), "bad prime list '2_3'"),
    (("hall", "s3.cayley", "--sigma", "+2|3", "--pi", "0"), "bad prime list '+2'"),
    (("hall", "s3.cayley", "--sigma", "\u0662|3", "--pi", "0"),
     "bad prime list '\u0662'"),
    (("hall", "s3.cayley", "--pi", "{2_3}"), "bad class literal '{2_3}'"),
    (("hall", "s3.cayley", "--pi", "{+3}"), "bad class literal '{+3}'"),
    (("hall", "s3.cayley", "--sigma", "2|3", "--pi", "+0"), "bad class selection '+0'"),
    (("hall", "s3.cayley", "--sigma", "2|3", "--pi", "0_0"),
     "bad class selection '0_0'"),
    (("quotient", "s3.cayley", "+1"), "bad generator list '+1'"),
    (("quotient", "s3.cayley", "1_0"), "bad generator list '1_0'"),
    (("quotient", "s3.cayley", "\u0661"), "bad generator list '\u0661'"),
])
def test_syntax_errors_exit_two(capsys, fixtures_dir, argv, message):
    command, file, *rest = argv
    code, out, err = run(capsys, command, str(fixtures_dir / file), *rest)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("cap", ["1_0", "+10", "\u0661\u0660"])
def test_rank_cap_takes_the_formats_grammar(capsys, fixtures_dir, cap):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(fixtures_dir / "s3.cayley"), "--rank-cap", cap])
    assert exc.value.code == 2
    assert f"invalid integer value: {cap!r}" in capsys.readouterr().err


def test_integer_arguments_allow_spaces_around_tokens(capsys, fixtures_dir):
    s3 = str(fixtures_dir / "s3.cayley")
    for spaced, plain in (
            (("hall", s3, "--sigma", " 2 , 3 | 5 ", "--pi", " 0 "),
             ("hall", s3, "--sigma", "2,3|5", "--pi", "0")),
            (("hall", s3, "--pi", "{ 2 },{ 3 }"), ("hall", s3, "--pi", "{2},{3}")),
            (("quotient", s3, " 1 , 2 "), ("quotient", s3, "1,2")),
            (("analyze", s3, "--rank-cap", " 6 "), ("analyze", s3, "--rank-cap", "6"))):
        expected = run(capsys, *plain)
        assert expected[0] == 0
        assert run(capsys, *spaced) == expected


def test_verify_repeated_prime_is_input_error(capsys, fixtures_dir):
    code, out, err = run(capsys, "verify", str(fixtures_dir / "s3.cayley"),
                         "--sigma", "2,2", "--pi", "0")
    assert code == 2
    assert out == "" and "prime 2 repeated" in err


def test_hall_large_prime_class(capsys, fixtures_dir):
    s3 = str(fixtures_dir / "s3.cayley")
    code, out, _ = run(capsys, "hall", s3, "--sigma", "99999999999999999989",
                       "--pi", "0", "--machine")
    assert code == 0
    assert (code, out) == run(capsys, "hall", s3, "--sigma", "7", "--pi", "0",
                              "--machine")[:2]


@pytest.mark.parametrize("sigma_pi", [
    ("--sigma", "3317044064679887385961981", "--pi", "0"),
    ("--pi", "{3317044064679887385961981}"),
])
def test_hall_prime_literal_above_the_exact_range(capsys, fixtures_dir, sigma_pi):
    code, _, err = run(capsys, "hall", str(fixtures_dir / "s3.cayley"), *sigma_pi)
    assert code == 2
    assert "too large" in err


def test_radical_command(capsys, fixtures_dir):
    code, out, _ = run(capsys, "radical", str(fixtures_dir / "s3.cayley"),
                       "--pi", "{3}")
    assert code == 0
    assert "radical: {0," in out


def test_radical_unavailable_on_k2(capsys, fixtures_dir):
    code, _, err = run(capsys, "radical", str(fixtures_dir / "k2.hg"),
                       "--pi", "{2}")
    assert code == 1
    assert err == "radical unavailable: k2 is not residually thin, valency undefined\n"


def test_verify_s3_passes(capsys, fixtures_dir):
    for pi in ("{2}", "{3}"):
        code, out, _ = run(capsys, "verify", str(fixtures_dir / "s3.cayley"),
                           "--pi", pi)
        assert code == 0
        assert "overall: pass" in out


def test_verify_k2_informational(capsys, fixtures_dir):
    code, out, _ = run(capsys, "verify", str(fixtures_dir / "k2.hg"),
                       "--pi", "{2}")
    assert code == 1
    assert "residually thin: no" in out


def test_verify_machine_deterministic(capsys, fixtures_dir):
    _, out1, _ = run(capsys, "verify", str(fixtures_dir / "s3.cayley"),
                     "--pi", "{2}", "--machine")
    _, out2, _ = run(capsys, "verify", str(fixtures_dir / "s3.cayley"),
                     "--pi", "{2}", "--machine")
    assert out1 == out2
    data = json.loads(out1)
    assert data["all_passed"] is True
    assert data["conclusions"] == {"exists": True, "conjugate": True,
                                   "containment": True}


def test_convert_cayley(capsys, fixtures_dir):
    code, out, _ = run(capsys, "convert", str(fixtures_dir / "z2.cayley"),
                       "--from", "cayley")
    assert code == 0
    body = serialize_hypergroup(fx.cyclic(2))
    assert out[out.index("rank"):] == body[body.index("rank"):]


def test_convert_scheme(capsys, fixtures_dir):
    code, out, _ = run(capsys, "convert", str(fixtures_dir / "k3.scheme"),
                       "--from", "scheme")
    assert code == 0
    body = serialize_hypergroup(fx.k2())
    assert out[out.index("rank"):] == body[body.index("rank"):]


def test_convert_malformed(capsys, tmp_path):
    f = tmp_path / "bad.cayley"
    f.write_text("group bad\norder 2\ne e\ne e\n")
    code, _, err = run(capsys, "convert", str(f), "--from", "cayley")
    assert code == 2


def test_readers_are_looked_up_at_call_time(capsys, fixtures_dir, monkeypatch):
    # A tracer that rebinds a reader in hypergroups.formats must see every
    # document that load_any, validate and convert read.
    calls = []
    for name in ("parse_document", "cayley_to_hypergroup", "scheme_to_hypergroup"):
        real = getattr(formats, name)

        def counting(text, name=name, real=real):
            calls.append(name)
            return real(text)

        monkeypatch.setattr(formats, name, counting)
    for file in ("k2.hg", "z2.cayley", "k3.scheme"):
        formats.load_any((fixtures_dir / file).read_text())
    assert calls == ["parse_document", "cayley_to_hypergroup", "scheme_to_hypergroup"]
    calls.clear()
    for file in ("k2.hg", "z2.cayley", "k3.scheme"):
        code, _, _ = run(capsys, "validate", str(fixtures_dir / file))
        assert code == 0
    assert calls == ["parse_document", "cayley_to_hypergroup", "scheme_to_hypergroup"]
    calls.clear()
    for file, fmt in (("z2.cayley", "cayley"), ("k3.scheme", "scheme")):
        code, _, _ = run(capsys, "convert", str(fixtures_dir / file), "--from", fmt)
        assert code == 0
    assert calls == ["cayley_to_hypergroup", "scheme_to_hypergroup"]


def test_exit_codes_on_corpus_files(capsys, fixtures_dir):
    for name in ("trivial.hg", "k2.hg", "c2.hg", "s3.hg", "d4_mod_refl.hg",
                 "z2.cayley", "s3.cayley", "d4.cayley", "q8.cayley",
                 "a4.cayley", "s4.cayley", "k3.scheme", "z3_color.scheme"):
        code, _, _ = run(capsys, "validate", str(fixtures_dir / name))
        assert code == 0, name


def test_main_builds_one_parser_per_process(capsys, fixtures_dir, monkeypatch):
    # The parser is built on the first call of main and then reused; a
    # usage error (exit 2) leaves it able to parse the next argv.
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    k2 = str(fixtures_dir / "k2.hg")
    assert run(capsys, "validate", k2)[0] == 0
    assert run(capsys, "analyze", k2)[0] == 0
    assert len(built) == 1
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--no-such-flag", k2])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "analyze", "--machine", k2)
    assert code == 0
    assert json.loads(out)["rank"] == 2
    assert len(built) == 1


@pytest.mark.slow
def test_analyze_s6(capsys, tmp_path):
    # S6 (order 720) has 1 455 subgroups, and its 7 750 normal pairs are
    # all strongly normal; the output is the one the product kernel gave.
    table = fx.group_table(((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)))
    path = tmp_path / "s6.cayley"
    path.write_text(fx.cayley_text(table, "s6"))
    code, out, _ = run(capsys, "analyze", "--machine", "--rank-cap", "720", str(path))
    assert code == 0
    assert out == json.dumps({
        "closed_subsets": 1455, "command": "analyze", "is_residually_thin": True,
        "is_thin": True, "normal_pairs": 7750, "rank": 720,
        "strongly_normal_pairs": 7750, "thin_count": 720,
        "thin_elements": list(range(720)), "valency": 720,
    }, sort_keys=True, indent=2) + "\n"
