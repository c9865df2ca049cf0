"""Command-line verbs, exit codes, JSON schema, output stability."""
from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weyldecomp
from weyldecomp.cli import _VERBS, run
from weyldecomp.decompose import (
    canonical_decomposition,
    decomposition_from_roots,
    parabolic_tower,
)
from weyldecomp.errors import InvalidType, TooLarge
from weyldecomp.rootsys import build_root_system, system
from weyldecomp.weyl import classify_longest

from util import clear_package_caches


def invoke(*argv):
    return run(list(argv))


def test_info_text():
    code, out, err = invoke("info", "--type", "F4")
    assert code == 0 and err == ""
    assert out == (
        "type: F4\n"
        "rank: 4\n"
        "positive roots: 24\n"
        "longest length: 24\n"
        "classification: minus_identity\n"
        "highest root: 2a1+3a2+4a3+2a4\n"
    )


def test_info_json():
    code, out, _ = invoke("info", "--type", "G2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "type": "G2",
        "rank": 2,
        "positive_root_count": 6,
        "longest_length": 6,
        "classification": "minus_identity",
        "highest_root": [3, 2],
    }


def test_info_json_reports_automorphism():
    code, out, _ = invoke("info", "--type", "A3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "minus_automorphism"
    assert payload["automorphism"] == [3, 2, 1]


def test_w0_json_minus_identity():
    code, out, _ = invoke("w0", "--type", "G2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "minus_identity"
    assert payload["matrix"] == [[-1, 0], [0, -1]]
    assert payload["length"] == 6


def test_w0_json_minus_automorphism():
    _, out, _ = invoke("w0", "--type", "A3", "--json")
    payload = json.loads(out)
    assert payload["classification"] == "minus_automorphism"
    assert payload["automorphism"] == [3, 2, 1]


def test_decompose_text():
    code, out, _ = invoke("decompose", "--type", "F4")
    assert code == 0
    assert out == (
        "factors: 4\n"
        "1: a2 (simple)\n"
        "2: a2+2a3 (highest of {2,3})\n"
        "3: a2+2a3+2a4 (highest of {2,3,4})\n"
        "4: 2a1+3a2+4a3+2a4 (highest of {1,2,3,4})\n"
    )


def test_decompose_json_schema():
    _, out, _ = invoke("decompose", "--type", "F4", "--json")
    payload = json.loads(out)
    assert payload["factors"] == [
        {"coeffs": [0, 1, 0, 0], "kind": "simple"},
        {"coeffs": [0, 1, 2, 0], "kind": "highest", "support": [2, 3]},
        {"coeffs": [0, 1, 2, 2], "kind": "highest", "support": [2, 3, 4]},
        {"coeffs": [2, 3, 4, 2], "kind": "highest", "support": [1, 2, 3, 4]},
    ]


def test_verify_passes():
    code, out, _ = invoke("verify", "--type", "E7")
    assert code == 0
    assert "result: PASS" in out
    code, out, _ = invoke("verify", "--type", "E7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["checks"] == {
        "orthogonal": True,
        "highest_root_ok": True,
        "chain_ok": True,
        "product_is_w0": True,
        "count_ok": True,
    }


def test_unique_exit_codes_and_bound():
    code, out, _ = invoke("unique", "--type", "B3")
    assert code == 0
    assert "decompositions found: 1" in out
    assert "result: UNIQUE" in out
    # E7 exceeds the default guard -> library error -> exit 1
    code, _, err = invoke("unique", "--type", "E7")
    assert code == 1
    assert "error:" in err
    # raising the bound lets the search run
    code, out, _ = invoke("unique", "--type", "E7", "--bound", "63", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["unique"] is True


def test_unique_with_a_lifted_bound_answers_or_stops_at_the_node_budget():
    code, out, err = invoke("unique", "--type", "A20", "--bound", "100000")
    assert code == 0 and err == ""
    assert out.endswith("result: UNIQUE\n")
    # D30 answers too: the search has no node budget left to run into.
    code, out, err = invoke("unique", "--type", "D30", "--bound", "100000")
    assert code == 0 and err == ""
    assert out.endswith("result: UNIQUE\n")


def test_tower():
    code, out, _ = invoke("tower", "--type", "F4")
    assert code == 0
    assert out == "tower: {2} < {2,3} < {2,3,4} < {1,2,3,4}\n"
    _, out, _ = invoke("tower", "--type", "E8", "--json")
    assert json.loads(out)["tower"] == [
        [2, 3, 4, 5],
        [2, 3, 4, 5, 6, 7],
        [1, 2, 3, 4, 5, 6, 7],
        [1, 2, 3, 4, 5, 6, 7, 8],
    ]


def test_recursion_exit_codes():
    code, out, _ = invoke("recursion", "--type", "C3")
    assert code == 0
    assert out == "recursion relation holds: true\n"
    code, _, err = invoke("recursion", "--type", "G2")
    assert code == 1
    assert "error:" in err


def test_count_words_decimal_string():
    code, out, _ = invoke("count-words", "--type", "A5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == "292864"
    assert isinstance(payload["count"], str)
    code, out, _ = invoke("count-words", "--type", "A5")
    assert "292864" in out


def test_check_identities():
    for t in ["A3", "B3", "C3", "D4", "F4", "G2"]:
        code, out, _ = invoke("check-identities", "--type", t)
        assert code == 0, (t, out)
        assert "result: PASS" in out
    _, out, _ = invoke("check-identities", "--type", "A3", "--json")
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["checks"]["conjugation"] is True
    assert payload["checks"]["intervals"] is True
    _, out, _ = invoke("check-identities", "--type", "D4", "--json")
    assert json.loads(out)["checks"]["cross_pairing"] is True


def test_export_schema():
    code, out, _ = invoke("export", "--type", "F4")
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == [
        "type",
        "rank",
        "positive_root_count",
        "longest_length",
        "w0_classification",
        "factors",
        "tower",
    ]
    assert payload["type"] == "F4"
    assert payload["rank"] == 4
    assert payload["positive_root_count"] == 24
    assert payload["w0_classification"] == "minus_identity"
    assert payload["factors"][0] == {"coeffs": [0, 1, 0, 0], "kind": "simple"}
    assert payload["factors"][1] == {
        "coeffs": [0, 1, 2, 0],
        "kind": "highest",
        "support": [2, 3],
    }


def test_export_format_flag():
    plain = invoke("export", "--type", "B3")
    explicit = invoke("export", "--type", "B3", "--format", "json")
    assert plain == explicit
    code, out, err = invoke("export", "--type", "B3", "--format", "xml")
    assert code == 2 and out == ""
    assert "xml" in err


def test_export_round_trips_to_internal_objects():
    _, out, _ = invoke("export", "--type", "D5")
    payload = json.loads(out)
    rs = system(payload["type"])
    dec = canonical_decomposition(rs)
    assert payload["rank"] == rs.rank
    assert payload["positive_root_count"] == len(rs.positive_roots)
    assert payload["w0_classification"] == classify_longest(rs).kind
    rebuilt = decomposition_from_roots(
        rs, [tuple(f["coeffs"]) for f in payload["factors"]]
    )
    assert rebuilt.factors == dec.factors
    assert [f["kind"] for f in payload["factors"]] == [f.kind for f in dec.factors]
    assert [tuple(J) for J in payload["tower"]] == list(parabolic_tower(rs).supports)


def test_export_includes_automorphism_when_nontrivial():
    _, out, _ = invoke("export", "--type", "E6")
    payload = json.loads(out)
    assert payload["w0_classification"] == "minus_automorphism"
    assert payload["automorphism"] == [6, 2, 5, 4, 3, 1]
    _, out, _ = invoke("export", "--type", "E8")
    assert "automorphism" not in json.loads(out)


def test_output_is_stable():
    first = invoke("export", "--type", "E7")
    second = invoke("export", "--type", "E7")
    assert first == second
    a = invoke("decompose", "--type", "D5", "--json")
    b = invoke("decompose", "--type", "D5", "--json")
    assert a == b


def test_usage_errors_exit_2():
    code, out, err = invoke("verify", "--type", "Z9")
    assert code == 2 and out == ""
    assert "Z9" in err
    code, _, err = invoke("verify", "--type", "A3", "--nope")
    assert code == 2
    assert "--nope" in err
    code, _, err = invoke("verify")
    assert code == 2
    assert "--type" in err
    code, _, err = invoke("frobnicate", "--type", "A3")
    assert code == 2
    assert "frobnicate" in err


def test_help_is_returned_as_stdout():
    code, out, err = invoke("info", "-h")
    assert code == 0 and err == ""
    assert out.startswith("usage: weyldecomp info")


def test_calls_in_one_process_print_what_fresh_processes_print():
    """run keeps one parser for the process; a call after a usage error, a
    help request or a verb prints what the same call prints on its own."""
    env = {**os.environ, "PYTHONPATH": str(Path(weyldecomp.__file__).parents[1])}
    calls = [
        ["verify", "--type", "A3", "--nope"],
        ["info", "-h"],
        ["decompose", "--type", "D5", "--json"],
        ["verify", "--type", "A3", "--nope"],
        ["verify"],
    ]
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "weyldecomp", *argv], capture_output=True, text=True, env=env
        )
        assert run(argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_inadmissible_type_is_usage_error():
    code, _, err = invoke("info", "--type", "E5")
    assert code == 2
    assert "E5" in err


def test_one_based_indices_in_json():
    _, out, _ = invoke("decompose", "--type", "C3", "--json")
    payload = json.loads(out)
    supports = [f["support"] for f in payload["factors"] if f["kind"] == "highest"]
    assert supports == [[2, 3], [1, 2, 3]]


def test_type_digits_must_be_ascii():
    # U+0663 ARABIC-INDIC DIGIT THREE and U+FF13 FULLWIDTH DIGIT THREE
    for text in ("A\u0663", "A\uff13"):
        with pytest.raises(InvalidType):
            system(text)
        code, out, err = invoke("info", "--type", text)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.endswith("\n")


def test_rank_over_the_limit_is_refused():
    with pytest.raises(TooLarge, match="65"):
        system("A65")
    code, out, err = invoke("info", "--type", "A1000")
    assert code == 2 and out == ""
    assert "1000" in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_a_rank_of_more_than_4300_digits_is_a_usage_error():
    code, out, err = invoke("info", "--type", "A" + "9" * 5000)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "_type_arg" not in err


def test_a_rank_of_4300_digits_is_refused_in_one_short_line():
    code, out, err = invoke("info", "--type", "A" + "9" * 4300)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 200 and "(4300 digits)" in err


def test_usage_error_after_a_valid_type_builds_no_system():
    # The type is parsed and its rank checked while parsing; the system is
    # built only once the whole command line has parsed.
    clear_package_caches()
    code, out, err = invoke("verify", "--type", "B64", "--nope")
    assert (code, out, err) == (2, "", "weyldecomp: error: unrecognized arguments: --nope\n")
    assert build_root_system.cache_info().currsize == 0
    code, out, err = invoke("verify", "--type", "A65", "--nope")
    message = "argument --type: A65 has rank 65, over the limit of 64"
    assert (code, out, err) == (2, "", f"weyldecomp verify: error: {message}\n")
    assert build_root_system.cache_info().currsize == 0


def test_count_words_beyond_the_state_bound_is_refused():
    code, out, err = invoke("count-words", "--type", "A32")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.endswith("\n")


EXPORT_GOLDENS = json.loads(
    (Path(__file__).parent / "fixtures" / "export_goldens.json").read_text()
)


@pytest.mark.parametrize("type_name", sorted(EXPORT_GOLDENS))
def test_export_matches_golden(type_name):
    assert invoke("export", "--type", type_name) == (0, EXPORT_GOLDENS[type_name], "")


IDENTITY_GOLDENS = json.loads(
    (Path(__file__).parent / "fixtures" / "identity_goldens.json").read_text()
)


@pytest.mark.parametrize("type_name", sorted(IDENTITY_GOLDENS))
def test_check_identities_matches_golden(type_name):
    golden = IDENTITY_GOLDENS[type_name]
    assert invoke("check-identities", "--type", type_name) == (0, golden["text"], "")
    assert invoke("check-identities", "--type", type_name, "--json") == (0, golden["json"], "")


CLI_GOLDENS = json.loads((Path(__file__).parent / "fixtures" / "cli_goldens.json").read_text())


@pytest.mark.parametrize("argv", sorted(CLI_GOLDENS))
def test_every_verb_matches_golden(argv):
    """Exit code, stdout and stderr of every verb, text and --json, on nine
    types plus a usage and a library error, byte for byte."""
    assert list(invoke(*argv.split())) == CLI_GOLDENS[argv]


RANK64_DIGESTS = json.loads(
    (Path(__file__).parent / "fixtures" / "rank64_digests.json").read_text()
)


@pytest.mark.parametrize("argv", sorted(RANK64_DIGESTS))
def test_rank_64_outputs_match_their_digests(argv):
    """The sha256 of the JSON list [exit code, stdout, stderr] of runs near
    the rank limit, whose outputs are too long to keep whole."""
    result = json.dumps(list(invoke(*argv.split()))).encode()
    assert hashlib.sha256(result).hexdigest() == RANK64_DIGESTS[argv]


# Types for which every verb answers at once, and strings that are no type.
_FUZZ_TYPES = ["A1", "A3", "A5", "B2", "B4", "C3", "C5", "D3", "D5", "F4", "G2"]
_FUZZ_NON_TYPES = ["E5", "G3", "A0", "B1", "X3", "a3", "A65", "A100000", "", "A", "3", "A-1"]
_FUZZ_NOISE = st.one_of(
    st.sampled_from(["--json", "--format", "json", "xml", "--bound", "--type", "--x", "-", "--"]),
    st.sampled_from(_FUZZ_TYPES + _FUZZ_NON_TYPES),
    # no digits, so that noise never names a large rank
    st.text(st.characters(blacklist_categories=("Cs", "Nd", "Nl", "No")), max_size=6),
)


@st.composite
def cli_argv(draw):
    def rarely() -> bool:
        return draw(st.integers(0, 9)) == 0

    verb = draw(_FUZZ_NOISE if rarely() else st.sampled_from(list(_VERBS)))
    groups = []
    if not rarely():
        types = _FUZZ_NON_TYPES if rarely() else _FUZZ_TYPES
        groups.append(["--type", draw(st.sampled_from(types))])
    if draw(st.booleans()):
        groups.append(["--json"])
    if draw(st.booleans()) if verb == "unique" else rarely():
        groups.append(["--bound", str(draw(st.integers(-5, 60)))])
    if draw(st.booleans()) if verb == "export" else rarely():
        groups.append(["--format", draw(st.sampled_from(["json", "xml"]))])
    groups = draw(st.permutations(groups))
    noise = draw(st.lists(_FUZZ_NOISE, max_size=2)) if rarely() else []
    return [verb] + [token for group in groups for token in group] + noise


@settings(deadline=None)
@given(cli_argv())
@example(["info", "--type", "A3", "x\ny"])
def test_cli_run_ends_in_an_exit_code_and_at_most_one_line(argv):
    with redirect_stdout(io.StringIO()):  # --help and -h print directly
        code, out, err = run(argv)
    assert code in (0, 1, 2), argv
    assert err.count("\n") <= 1 and (err == "" or err.endswith("\n")), (argv, err)
    assert (code == 0) <= (err == ""), (argv, err)
