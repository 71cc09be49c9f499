"""Command-line front end.

Subcommands:
  verify MANIFEST [--tolerance R] [--format text|json]   run the identity suite
  search [--dim N] [--seed S] [--max-candidates K]
         [--target w3|w3-kahler-rprime] [--out DIR] [--max-results M]
  demo                                                   run the bundled flat example

Exit codes: 0 all checks PASS or NA, 1 any FAIL, 2 input error.
The env var NORDEN_TOLERANCE overrides the default tolerance; the
--tolerance flag wins over the env var.  A tolerance must be a finite
number in (0, 1).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path

from .geometry import ScalarPanel
from .manifests import (
    ManifestError,
    ManifoldManifest,
    bundled_manifest_path,
    json_number,
    load_manifest,
    save_manifest,
)
from .manifolds import InvalidManifoldError
from .search import SearchConfig, SearchTarget, search_w3_examples
from .suite import DEFAULT_TOLERANCE, VerificationReport, run_suite
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
# spaces per level), written with one format string per check
_SCALAR_KEYS = tuple(encode_basestring_ascii(name) for name in ScalarPanel.FIELDS)
_CHECK_JSON = (
    '    {{\n      "id": {},\n      "anchor": {},\n      "residual": {},\n'
    '      "tolerance": {},\n      "status": {}\n    }}'
)


def _json_report(report: VerificationReport) -> str:
    panel = report.scalar_panel
    if panel is None:
        scalars = "null"
    else:
        scalars = "{\n" + ",\n".join(
            f"    {key}: {json_number(getattr(panel, name))}"
            for key, name in zip(_SCALAR_KEYS, panel.FIELDS)
        ) + "\n  }"
    checks = ",\n".join(
        _CHECK_JSON.format(
            encode_basestring(c.check_id),
            encode_basestring(c.anchor),
            json_number(c.residual),
            json_number(c.tolerance),
            encode_basestring(c.status),
        )
        for c in report.checks
    )
    checks = "[\n" + checks + "\n  ]" if checks else "[]"
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
            f"cyclic-F(J.,.,.)={cls.w3_j_residual:.17g}, "
            f"nabla-J defect={cls.w3_defect_residual:.17g}"
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
    for c in report.checks:
        res = "      n/a" if c.residual is None else f"{c.residual:9.2e}"
        note = f"  [{c.reason}]" if c.status == "NA" and c.reason else ""
        lines.append(
            f"  {c.status:4s} {c.check_id:18s} {res}  <=  {c.tolerance:.1e}"
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


def _resolve_tolerance(arg_value: float | None) -> float:
    """The --tolerance flag, else NORDEN_TOLERANCE, else the default; a value
    outside (0, 1) ends the command with exit code 2."""
    source, value = "--tolerance", arg_value
    if value is None:
        env = os.environ.get("NORDEN_TOLERANCE")
        if env is None:
            return DEFAULT_TOLERANCE
        source = "NORDEN_TOLERANCE"
        try:
            value = float(env)
        except ValueError:
            raise SystemExit(
                f"error: NORDEN_TOLERANCE={env!r} is not a number"
            ) from None
    try:
        return check_tolerance(value, source)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _verify_manifest(manifest: ManifoldManifest, tolerance: float, fmt: str) -> int:
    start = time.perf_counter()
    try:
        manifold = manifest.to_manifold()
    except ValueError as exc:
        print(f"error: bad manifold data: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        report = run_suite(manifold, tolerance, manifold_id=manifest.id)
    except InvalidManifoldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    elapsed = time.perf_counter() - start
    sys.stdout.buffer.write(emit_report(report, fmt, elapsed=elapsed))
    sys.stdout.buffer.flush()
    return EXIT_FAIL if report.n_fail else EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    tolerance = _resolve_tolerance(args.tolerance)
    try:
        manifest = load_manifest(args.manifest)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return _verify_manifest(manifest, tolerance, args.format)


def _cmd_demo(args: argparse.Namespace) -> int:
    tolerance = _resolve_tolerance(args.tolerance)
    manifest = load_manifest(bundled_manifest_path("flat_kahler_4"))
    return _verify_manifest(manifest, tolerance, args.format)


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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None and out_dir.exists() and not out_dir.is_dir():
        print(f"error: --out {out_dir} exists and is not a directory", file=sys.stderr)
        return EXIT_INPUT_ERROR
    manifests, stats = search_w3_examples(cfg)
    print(
        f"search: dim={cfg.dim} seed={cfg.seed} target={cfg.target.value} "
        f"candidates={stats.candidates}/{cfg.max_candidates}"
    )
    print(
        f"stats: converged={stats.converged} hits={stats.hits} "
        f"rejected_class={stats.rejected_class} rejected_jacobi={stats.rejected_jacobi} "
        f"rejected_invalid={stats.rejected_invalid} flat_slope={stats.flat_slope} "
        f"stalled={stats.stalled} iteration_cap={stats.iteration_cap} "
        f"collapsed={stats.collapsed} gn_iterations={stats.gn_iterations} "
        f"by_ansatz={stats.by_ansatz}"
    )
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
        print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
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

    p_verify = sub.add_parser("verify", help="run the identity suite on a manifest")
    p_verify.add_argument("manifest", help="path of a .manifest JSON file")
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
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_INPUT_ERROR
        raise


if __name__ == "__main__":
    sys.exit(main())
