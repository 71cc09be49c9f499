"""Command-line front end: `verify`, `search` and `demo`, whose options
`build_parser` declares.

Exit codes: 0 all checks PASS or NA, 1 any FAIL, 2 input error.  `verify`
takes a batch of manifests, where a directory PATH stands for its *.manifest
files, sorted by name; the batch exits with the worst code of its manifests.
Every input error prints one `error:` line on stderr, from `_error` alone; in
a batch of more than one manifest the line names the manifest's path once,
and the batch goes on.  `verify` writes each report exactly as a run on that
manifest alone would, in argument order, so its JSON output is a stream of
complete documents.  The env var NORDEN_TOLERANCE overrides the default
tolerance; the --tolerance flag wins over the env var.  A tolerance must be a
finite number in (0, 1).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path

from .geometry import ScalarPanel
from .manifests import (
    ManifestError,
    bundled_manifest_path,
    json_number,
    load_manifest,
    save_manifest,
)
from .manifolds import InvalidManifoldError
from .search import SearchConfig, SearchTarget, search_w3_examples
from .suite import (
    CHECK_CATALOG,
    DEFAULT_TOLERANCE,
    FAIL,
    NA,
    PASS,
    VerificationReport,
    run_suite,
)
from .tensors import check_tolerance

TEXT = "text"
STRUCTURED = "json"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT_ERROR = 2


def _panel_dict(report: VerificationReport) -> dict | None:
    panel = report.scalar_panel
    if panel is None:
        return None
    return {name: getattr(panel, name) for name in panel.FIELDS}


# the JSON report as `emit_json` lays out its dict (keys in this order, two
# spaces per level).  A check is written from its head (its encoded id and
# anchor, keyed by `c[:2]`), its residual, the report's tolerance and the tail
# of its status.  The heads of the catalog's checks and the tails of PASS, FAIL
# and NA are made once, at import; any other head or tail is encoded on the
# spot.
_SCALAR_KEYS = tuple(encode_basestring_ascii(name) for name in ScalarPanel.FIELDS)


def _check_head(check_id: str, anchor: str) -> str:
    return (
        f'    {{\n      "id": {encode_basestring(check_id)},\n'
        f'      "anchor": {encode_basestring(anchor)},\n      "residual": '
    )


def _status_tail(status: str) -> str:
    return f',\n      "status": {encode_basestring(status)}\n    }}'


_CHECK_HEADS = {
    (d.check_id, d.anchor): _check_head(d.check_id, d.anchor) for d in CHECK_CATALOG
}
_STATUS_TAILS = {status: _status_tail(status) for status in (PASS, FAIL, NA)}


def _json_report(report: VerificationReport) -> str:
    panel = report.scalar_panel
    if panel is None:
        scalars = "null"
    else:
        scalars = "{\n" + ",\n".join(
            f"    {key}: {json_number(getattr(panel, name))}"
            for key, name in zip(_SCALAR_KEYS, panel.FIELDS)
        ) + "\n  }"
    tolerance = ',\n      "tolerance": ' + json_number(report.tolerance)
    checks = [
        (_CHECK_HEADS.get(c[:2]) or _check_head(*c[:2]))
        + json_number(c.residual)
        + tolerance
        + (_STATUS_TAILS.get(c.status) or _status_tail(c.status))
        for c in report.checks
    ]
    checks = "[\n" + ",\n".join(checks) + "\n  ]" if checks else "[]"
    return (
        f'{{\n  "manifold_id": {encode_basestring(report.manifold_id)},\n'
        f'  "suite_version": {encode_basestring(report.suite_version)},\n'
        f'  "class": {encode_basestring(report.class_label.label.value)},\n'
        f'  "scalars": {scalars},\n'
        f'  "checks": {checks}\n}}\n'
    )


def _format_text(report: VerificationReport, elapsed: float | None) -> str:
    cls = report.class_label
    lines = [
        f"manifold: {report.manifold_id}",
        f"suite: {report.suite_version}",
        f"class: {cls.label.value}",
        (
            "membership residuals: "
            f"F max-abs={cls.f_norm:.17g}, cyclic-F={cls.w3_residual:.17g}, "
            f"cyclic-F(J.,.,.)={report.check('EQ_1_13').residual:.17g}, "
            f"nabla-J defect={report.check('EQ_1_14').residual:.17g}"
        ),
    ]
    panel = _panel_dict(report)
    if panel is None:
        lines.append("scalars: n/a (class OTHER)")
    else:
        lines.append("scalars:")
        for name, value in panel.items():
            lines.append(f"  {name:22s} {value:.17g}")
    lines.append("checks:")
    tolerance = f"{report.tolerance:.1e}"
    for c in report.checks:
        res = "      n/a" if c.residual is None else f"{c.residual:9.2e}"
        note = f"  [{c.reason}]" if c.status == "NA" and c.reason else ""
        lines.append(
            f"  {c.status:4s} {c.check_id:18s} {res}  <=  {tolerance}"
            f"  {c.anchor}{note}"
        )
    lines.append(
        f"summary: {report.n_pass} pass, {report.n_fail} fail, {report.n_na} n/a"
    )
    if elapsed is not None:
        lines.append(f"time: {elapsed * 1000.0:.1f} ms")
    return "\n".join(lines) + "\n"


def emit_report(
    report: VerificationReport, fmt: str = TEXT, elapsed: float | None = None
) -> bytes:
    """Render a report deterministically; the timing line appears only in the
    text format and is the single non-reproducible output line."""
    if fmt == STRUCTURED:
        return _json_report(report).encode("utf-8")
    if fmt == TEXT:
        return _format_text(report, elapsed).encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")


class _InputError(Exception):
    """Bad input found by the CLI itself; printed by `_error`, exit code 2."""


_INPUT_ERRORS = (ManifestError, InvalidManifoldError, _InputError)


def _error(message: object) -> int:
    """Print one input error line on stderr; its exit code."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _resolve_tolerance(arg_value: float | None) -> float:
    """The --tolerance flag, else NORDEN_TOLERANCE, else the default; a value
    outside (0, 1) is an input error."""
    source, value = "--tolerance", arg_value
    if value is None:
        env = os.environ.get("NORDEN_TOLERANCE")
        if env is None:
            return DEFAULT_TOLERANCE
        source = "NORDEN_TOLERANCE"
        try:
            value = float(env)
        except ValueError:
            raise _InputError(f"NORDEN_TOLERANCE={env!r} is not a number") from None
    try:
        return check_tolerance(value, source)
    except ValueError as exc:
        raise _InputError(exc) from None


def _cmd_verify(args: argparse.Namespace) -> int:
    tolerance = _resolve_tolerance(args.tolerance)
    paths = []
    for arg in map(Path, args.paths):
        found = sorted(arg.glob("*.manifest")) if arg.is_dir() else []
        paths += found or [arg]  # a directory without manifests is an input error
    code = EXIT_OK
    for path in paths:
        if path.is_dir():
            code = _error(f"no *.manifest file in directory {path}")
            continue
        try:
            manifest = load_manifest(path)
            start = time.perf_counter()
            report = run_suite(manifest, tolerance)
            elapsed = time.perf_counter() - start
        except _INPUT_ERRORS as exc:
            named = getattr(exc, "path", None) == path
            code = _error(f"{path}: {exc}" if len(paths) > 1 and not named else exc)
            continue
        sys.stdout.buffer.write(emit_report(report, args.format, elapsed=elapsed))
        sys.stdout.buffer.flush()
        code = max(code, EXIT_FAIL if report.n_fail else EXIT_OK)
    return code


def _cmd_search(args: argparse.Namespace) -> int:
    tolerance = _resolve_tolerance(args.tolerance)
    try:
        cfg = SearchConfig(
            dim=args.dim,
            seed=args.seed,
            max_candidates=args.max_candidates,
            target=SearchTarget(args.target),
            max_results=args.max_results,
            tolerance=tolerance,
        )
    except ValueError as exc:
        raise _InputError(exc) from None
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None and out_dir.exists() and not out_dir.is_dir():
        raise _InputError(f"--out {out_dir} exists and is not a directory")
    manifests, stats = search_w3_examples(cfg)
    print(
        f"search: dim={cfg.dim} seed={cfg.seed} target={cfg.target.value} "
        f"candidates={stats.candidates}/{cfg.max_candidates}"
    )
    # every counter but the two that the search: and time: lines print
    counters = " ".join(
        f"{f.name}={getattr(stats, f.name)}" for f in dataclasses.fields(stats)
        if f.name not in ("candidates", "elapsed")
    )
    print(f"stats: {counters}")
    print(f"time: {stats.elapsed:.2f} s")
    if not manifests:
        print("no examples found within the candidate budget")
        return EXIT_OK
    if out_dir is None:
        for manifest in manifests:
            print(f"found: {manifest.id}")
        return EXIT_OK
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for manifest in manifests:
            path = save_manifest(manifest, out_dir / f"{manifest.id}.manifest")
            print(f"found: {manifest.id} -> {path}")
    except OSError as exc:
        raise _InputError(f"cannot write to {out_dir}: {exc}") from None
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="norden",
        description=(
            "Verification engine for quasi-Kahler manifolds with Norden metric "
            "and their skew-torsion connection"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity suite on manifests")
    p_verify.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="a .manifest JSON file, or a directory of them",
    )
    p_verify.add_argument("--tolerance", type=float, default=None)
    p_verify.add_argument("--format", choices=[TEXT, STRUCTURED], default=TEXT)
    p_verify.set_defaults(func=_cmd_verify)

    p_search = sub.add_parser("search", help="search for quasi-Kahler examples")
    p_search.add_argument("--dim", type=int, default=4)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--max-candidates", type=int, default=1000)
    p_search.add_argument(
        "--target",
        choices=[t.value for t in SearchTarget],
        default=SearchTarget.W3.value,
    )
    p_search.add_argument("--out", default=None, help="directory for found manifests")
    p_search.add_argument("--max-results", type=int, default=10)
    p_search.add_argument("--tolerance", type=float, default=None)
    p_search.set_defaults(func=_cmd_search)

    p_demo = sub.add_parser("demo", help="verify the bundled flat example")
    p_demo.add_argument("--tolerance", type=float, default=None)
    p_demo.add_argument("--format", choices=[TEXT, STRUCTURED], default=TEXT)
    p_demo.set_defaults(
        func=_cmd_verify, paths=[bundled_manifest_path("flat_kahler_4")]
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
