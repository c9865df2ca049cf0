"""Command-line interface.

Verbs operate on one root system selected with ``--type`` (e.g. ``--type F4``)
and print either plain text or, with ``--json``, a stable JSON document.
Exit codes: 0 for success / checks passed, 1 for failed checks or library
errors, 2 for usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys

from .decompose import (
    _frame_suite,
    canonical_decomposition,
    dn_orthogonality_pattern,
    enumerate_max_orthogonal,
    parabolic_tower,
    recursion_relation_check,
    verify_decomposition,
)
from .errors import WeylError
from .rootsys import RootSystemType, _check_rank, build_root_system, format_root, parse_type
from .weyl import classify_longest, count_reduced_words, length_of, longest_element
from .words import _conjugation_suite, _interval_suite


class _Stop(Exception):
    """Ends parsing early with run's (exit code, stdout, stderr)."""


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        raise _Stop(0, self.format_help(), "")

    def error(self, message: str) -> None:  # type: ignore[override]
        # argparse echoes unrecognized arguments verbatim; escape their line
        # breaks so that the diagnostic stays one line.
        message = message.replace("\r", "\\r").replace("\n", "\\n")
        raise _Stop(2, "", f"{self.prog}: error: {message}\n")


def _type_arg(text: str) -> RootSystemType:
    # run builds the system once the whole line has parsed
    try:
        return _check_rank(parse_type(text))
    except WeylError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="weyldecomp", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    for name, (help_text, _) in _VERBS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--type",
            required=True,
            type=_type_arg,
            metavar="TYPE",
            help="root system type, e.g. A5 or F4",
        )
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if name == "export":
            p.add_argument(
                "--format",
                choices=["json"],
                default="json",
                help="output format (json is the only format)",
            )
        if name == "unique":
            p.add_argument(
                "--bound",
                type=int,
                default=40,
                metavar="N",
                help="positive-root-count guard for the exhaustive search (default 40)",
            )
    return parser


def _render_json(value, indent: int) -> str:
    """Deterministic pretty-printing: any value whose compact form is short
    stays on one line (so coefficient vectors read as ``[0,1,2,0]``), longer
    containers expand one level at two-space indentation."""
    flat = json.dumps(value, separators=(",", ":"))
    if not isinstance(value, (dict, list)) or (indent > 0 and len(flat) <= 80):
        return flat
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        rows = [
            f"{inner}{json.dumps(k)}: {_render_json(v, indent + 2)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    rows = [f"{inner}{_render_json(v, indent + 2)}" for v in value]
    return "[\n" + ",\n".join(rows) + "\n" + pad + "]"


def _fmt_set(J) -> str:
    return "{" + ",".join(str(i) for i in J) + "}"


def _factor_payload(factor) -> dict:
    entry: dict = {"coeffs": list(factor.root), "kind": factor.kind}
    if factor.kind == "highest":
        entry["support"] = list(factor.span)
    return entry


def _factor_text(factor) -> str:
    if factor.kind == "highest":
        return f"{format_root(factor.root)} (highest of {_fmt_set(factor.span)})"
    return f"{format_root(factor.root)} (simple)"


def _overview(rs, kind_key: str, length: int) -> dict:
    """The leading fields of info and export: the same facts, with w0's
    classification under ``kind_key`` and its length given."""
    cls = classify_longest(rs)
    payload = {
        "type": str(rs.type),
        "rank": rs.rank,
        "positive_root_count": len(rs.positive_roots),
        "longest_length": length,
        kind_key: cls.kind,
    }
    if cls.kind == "minus_automorphism":
        payload["automorphism"] = list(cls.automorphism)
    return payload


def _cmd_info(rs, ns) -> tuple[int, dict, list[str]]:
    n_pos = len(rs.positive_roots)
    payload = _overview(rs, "classification", n_pos)
    payload["highest_root"] = list(rs.highest_root)
    lines = [
        f"type: {rs.type}",
        f"rank: {rs.rank}",
        f"positive roots: {n_pos}",
        f"longest length: {n_pos}",
        f"classification: {payload['classification']}",
        f"highest root: {format_root(rs.highest_root)}",
    ]
    return 0, payload, lines


def _cmd_w0(rs, ns) -> tuple[int, dict, list[str]]:
    w0 = longest_element(rs)
    cls = classify_longest(rs)
    length = length_of(rs, w0)
    payload = {
        "type": str(rs.type),
        "classification": cls.kind,
        "automorphism": list(cls.automorphism),
        "length": length,
        "matrix": [list(row) for row in w0],
    }
    lines = [f"classification: {cls.kind}"]
    if cls.kind == "minus_automorphism":
        lines.append(
            "automorphism: " + " ".join(f"{i}->{s}" for i, s in enumerate(cls.automorphism, 1))
        )
    lines.append(f"length: {length}")
    lines.append("matrix:")
    width = max(len(str(e)) for row in w0 for e in row)
    for row in w0:
        lines.append("  " + " ".join(f"{e:>{width}}" for e in row))
    return 0, payload, lines


def _cmd_decompose(rs, ns) -> tuple[int, dict, list[str]]:
    dec = canonical_decomposition(rs)
    payload = {"type": str(rs.type), "factors": [_factor_payload(f) for f in dec.factors]}
    lines = [f"factors: {len(dec.factors)}"]
    for i, f in enumerate(dec.factors, 1):
        lines.append(f"{i}: {_factor_text(f)}")
    return 0, payload, lines


def _cmd_verify(rs, ns) -> tuple[int, dict, list[str]]:
    report = verify_decomposition(rs, canonical_decomposition(rs))
    checks = {name: getattr(report, name) for name in report.__slots__}
    ok = report.all_ok()
    lines = [f"{name}: {str(value).lower()}" for name, value in checks.items()]
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1, {"type": str(rs.type), "checks": checks, "ok": ok}, lines


def _cmd_unique(rs, ns) -> tuple[int, dict, list[str]]:
    decs = enumerate_max_orthogonal(rs, size_bound=ns.bound)
    unique = len(decs) == 1
    payload = {
        "type": str(rs.type),
        "count": len(decs),
        "decompositions": [[_factor_payload(f) for f in d.factors] for d in decs],
        "unique": unique,
    }
    lines = [f"decompositions found: {len(decs)}"]
    for i, d in enumerate(decs, 1):
        lines.append(f"{i}: " + " | ".join(format_root(r) for r in d.roots))
    lines.append(f"result: {'UNIQUE' if unique else 'NOT UNIQUE'}")
    return 0 if unique else 1, payload, lines


def _cmd_tower(rs, ns) -> tuple[int, dict, list[str]]:
    supports = parabolic_tower(rs).supports
    payload = {"type": str(rs.type), "tower": [list(J) for J in supports]}
    return 0, payload, ["tower: " + " < ".join(_fmt_set(J) for J in supports)]


def _cmd_recursion(rs, ns) -> tuple[int, dict, list[str]]:
    holds = recursion_relation_check(rs)
    payload = {"type": str(rs.type), "recursion_holds": holds}
    return 0 if holds else 1, payload, [f"recursion relation holds: {str(holds).lower()}"]


def _cmd_count_words(rs, ns) -> tuple[int, dict, list[str]]:
    count = count_reduced_words(rs, longest_element(rs))
    payload = {"type": str(rs.type), "count": str(count)}
    return 0, payload, [f"reduced words for the longest element: {count}"]


def _cmd_check_identities(rs, ns) -> tuple[int, dict, list[str]]:
    ok, pairs, named = _conjugation_suite(rs)
    detail = f" ({pairs} pairs, {named} named cases)"
    suites = [("conjugation", "conjugation identities", ok, detail)]
    if rs.family == "A" and rs.rank >= 2:
        ok, checked = _interval_suite(rs)
        suites.append(("intervals", "interval identities", ok, f" ({checked} pairs)"))
    if rs.family in ("B", "C"):
        suites.append(("coordinate_frame", "coordinate-frame factorization", _frame_suite(rs), ""))
    if rs.family == "D" and rs.rank >= 4:
        suites.append(("cross_pairing", "cross-pairing parity", dn_orthogonality_pattern(rs), ""))
    checks = {key: ok for key, _, ok, _ in suites}
    lines = [f"{label}: {'PASS' if ok else 'FAIL'}{detail}" for _, label, ok, detail in suites]
    all_ok = all(checks.values())
    lines.append(f"result: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1, {"type": str(rs.type), "checks": checks, "ok": all_ok}, lines


def _cmd_export(rs, ns) -> tuple[int, dict, list[str]]:
    payload = _overview(rs, "w0_classification", length_of(rs, longest_element(rs)))
    payload["factors"] = [_factor_payload(f) for f in canonical_decomposition(rs).factors]
    payload["tower"] = [list(J) for J in parabolic_tower(rs).supports]
    return 0, payload, []


# Each verb's help line and handler, in the order --help lists them.
_VERBS = {
    "info": ("basic facts about the root system", _cmd_info),
    "w0": ("the longest element and its classification", _cmd_w0),
    "decompose": ("the canonical orthogonal decomposition", _cmd_decompose),
    "verify": ("check the canonical decomposition (exit 0 iff all pass)", _cmd_verify),
    "unique": (
        "enumerate all qualifying decompositions (exit 0 iff exactly one)",
        _cmd_unique,
    ),
    "tower": ("the ascending parabolic chain behind the decomposition", _cmd_tower),
    "recursion": ("check the cross-rank recursion (exit 0 iff it holds)", _cmd_recursion),
    "count-words": ("count reduced words for the longest element", _cmd_count_words),
    "check-identities": (
        "run the per-family identity suites (exit 0 iff all pass)",
        _cmd_check_identities,
    ),
    "export": ("emit the full JSON document for the system", _cmd_export),
}

# One parser per process: it holds no per-call state, and building it costs
# about 1.8 ms, as much as a small verb.
_PARSER = _build_parser()


def run(argv) -> tuple[int, str, str]:
    """Execute a CLI invocation; returns (exit code, stdout text, stderr text)."""
    try:
        ns = _PARSER.parse_args(list(argv))
        code, payload, lines = _VERBS[ns.verb][1](build_root_system(ns.type), ns)
    except _Stop as stop:
        return stop.args
    except WeylError as exc:
        return 1, "", f"error: {exc}\n"
    # export has no text form: it always renders its payload as JSON.
    if ns.json or ns.verb == "export":
        return code, _render_json(payload, 0) + "\n", ""
    return code, "\n".join(lines) + "\n", ""


def main(argv=None) -> int:
    code, out, err = run(sys.argv[1:] if argv is None else argv)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


def entry() -> None:
    raise SystemExit(main())
