"""Command-line surface: generate designs, build frames, verify, analyze,
convert to codes, print bound tables, emit the golden fixtures.

File arguments accept '-' for stdin/stdout so the construction pipeline can
be a single shell line.  Reports go to stdout as JSON (sorted keys, so output
is byte-stable) or as plain text with --format text.  Exit codes: 0 success,
1 verified failure (a report whose verdict is negative), 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import codes as codes_mod
from . import designs as designs_mod
from . import fixtures as fixtures_mod
from . import frames as frames_mod
from . import metrics as metrics_mod
from .errors import EtfkitError, GroupOrderMismatch, NotResolvable
from .flatmat import AbelianGroup, dft, drop_row_simplex, hadamard, simplex_from_characters


def _tolerance(flag: float | None) -> float:
    """--tol, else ETFKIT_TOL, else 1e-9; ValueError unless a finite number >= 0."""
    text = os.environ.get("ETFKIT_TOL", "1e-9") if flag is None else flag
    try:
        if 0 <= float(text) < float("inf"):
            return float(text)
    except ValueError:
        pass
    raise ValueError(f"tolerance (--tol or ETFKIT_TOL) must be a finite number >= 0, got {text!r}")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_report(doc: dict, args) -> int:
    if args.format == "json":
        _write(json.dumps(doc, sort_keys=True) + "\n", args.out)
    else:
        lines = []
        for key, val in doc.items():
            if isinstance(val, (dict, list)):
                val = json.dumps(val, sort_keys=True)
            lines.append(f"{key}: {val}")
        _write("\n".join(lines) + "\n", args.out)
    return 0 if doc.get("passed") is not False else 1


def _frame_text(frame: frames_mod.Frame) -> str:
    lines = [f"# frame {frame.m}x{frame.n}"]
    if frame.exact_ints is not None:
        lines[0] += f" scale 1/sqrt({frame.scale_sq})"
        chars = {1: "+", -1: "-", 0: "0"}
        for row in frame.exact_ints:
            lines.append("".join(chars[int(x)] for x in row))
    else:
        for row in frame.entries:
            lines.append(" ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))
    return "\n".join(lines) + "\n"


def _emit_frame(frame: frames_mod.Frame, args) -> int:
    if args.format == "json":
        _write(frames_mod.frame_to_json(frame) + "\n", args.out)
    else:
        _write(_frame_text(frame), args.out)
    return 0


def _design_text(design: designs_mod.SteinerSystem) -> str:
    lines = [f"# design v={design.v} k={design.k} b={design.b}"]
    if design.resolution is not None:
        for i, cls in enumerate(design.resolution):
            blocks = " ".join("{" + ",".join(map(str, design.blocks[b])) + "}" for b in cls)
            lines.append(f"class {i}: {blocks}")
    else:
        for blk in design.blocks:
            lines.append("{" + ",".join(map(str, blk)) + "}")
    return "\n".join(lines) + "\n"


def _emit_design(design: designs_mod.SteinerSystem, args) -> int:
    if args.format == "json":
        _write(design.to_json() + "\n", args.out)
    else:
        _write(_design_text(design), args.out)
    return 0


def _load_design(path: str) -> designs_mod.SteinerSystem:
    return designs_mod.parse_design(_read(path))


def _load_frame(path: str) -> frames_mod.Frame:
    return frames_mod.parse_frame(_read(path))


def _default_group(q: int, j: int) -> AbelianGroup:
    big_r = (q ** (j + 1) - 1) // (q - 1)
    if q == 2:
        return AbelianGroup((2,) * (j + 1))
    return AbelianGroup((big_r + 1,))


def _build_simplex(args, big_r: int):
    if args.simplex == "dft":
        return drop_row_simplex(dft(big_r + 1), args.drop_row)
    if args.simplex == "hadamard":
        return drop_row_simplex(hadamard(big_r + 1), args.drop_row)
    group = AbelianGroup.parse(args.group) if args.group else AbelianGroup((big_r + 1,))
    if group.order != big_r + 1:  # before any character value is gathered
        raise GroupOrderMismatch(f"group order {group.order} != R+1 = {big_r + 1}")
    return simplex_from_characters(group, group.order - 1)


def _build_basis(kind: str, size: int):
    return dft(size) if kind == "dft" else hadamard(size)


# -- subcommand handlers -------------------------------------------------------

def _cmd_design(args) -> int:
    if args.design_cmd == "affine":
        return _emit_design(designs_mod.affine_design(args.q, args.j), args)
    if args.design_cmd == "round-robin":
        return _emit_design(designs_mod.round_robin_design(args.v), args)
    if args.design_cmd == "kirkman15":
        return _emit_design(designs_mod.kirkman15(), args)
    report = designs_mod.validate(_load_design(args.design))
    return _emit_report(report.as_dict(), args)


def _load_resolvable(path: str) -> designs_mod.SteinerSystem:
    design = _load_design(path)
    if not design.resolution:
        raise NotResolvable("design carries no resolution; frame synthesis needs one")
    return design


def _cmd_frame(args) -> int:
    if args.frame_cmd == "steiner":
        design = _load_resolvable(args.design)
        simplex = _build_simplex(args, len(design.resolution))
        return _emit_frame(frames_mod.steiner_etf(design, simplex), args)
    if args.frame_cmd == "kirkman":
        design = _load_resolvable(args.design)
        simplex = _build_simplex(args, len(design.resolution))
        # S from the blocks of a class, which the document holds, not from its V, which it may only claim
        basis = _build_basis(args.basis, len(design.resolution[0]))
        return _emit_frame(frames_mod.kirkman_etf(design, simplex, basis), args)
    if args.frame_cmd == "harmonic":
        group = AbelianGroup.parse(args.group) if args.group else _default_group(args.q, args.j)
        dset = frames_mod.mcfarland_set(args.q, args.j, group)
        return _emit_frame(frames_mod.harmonic_etf(dset.group, dset), args)
    if args.frame_cmd == "mcfarland-vs-kirkman":
        group = AbelianGroup.parse(args.group) if args.group else _default_group(args.q, args.j)
        _, _, report = frames_mod.mcfarland_as_kirkman(args.q, args.j, group, tol=args.tol)
        return _emit_report(report.as_dict(), args)
    frame = _load_frame(args.frame)
    return _emit_frame(frames_mod.naimark_complement(frame, tol=args.tol), args)


def _cmd_verify(args) -> int:
    cert = metrics_mod.certify_etf(_load_frame(args.frame), tol=args.tol)
    return _emit_report(cert.as_dict(), args)


def _cmd_analyze(args) -> int:
    if args.analyze_cmd == "spark":
        report = metrics_mod.spark(_load_frame(args.frame), max_subset=args.max)
        doc = report.as_dict()
        doc["passed"] = None  # informational: absence of a small spark is not a failure
        return _emit_report(doc, args)
    if args.analyze_cmd == "rip":
        report = metrics_mod.rip_delta(_load_frame(args.frame), args.L)
        return _emit_report(report.as_dict(), args)
    report = metrics_mod.gram_equal(_load_frame(args.a), _load_frame(args.b), tol=args.tol)
    return _emit_report(report.as_dict(), args)


def _cmd_code(args) -> int:
    if args.code_cmd == "from-frame":
        code = codes_mod.frame_to_code(_load_frame(args.frame))
        _write(code.to_text(), args.out)
        return 0
    code = codes_mod.parse_code(_read(args.code))
    grbe = codes_mod.certify_grbe(code)
    linearity = codes_mod.is_linear(code)
    doc = {
        "report": "code-check",
        "passed": grbe.bound_equality and grbe.etf_passed,
        "m": code.m,
        "words": code.count,
        "self_complementary": code.self_complementary,
        "distance": grbe.delta,
        "grbe": grbe.as_dict(),
        "linearity": linearity.as_dict(),
    }
    return _emit_report(doc, args)


def _cmd_bound(args) -> int:
    if args.bound_cmd == "welch":
        doc = {
            "report": "welch-bound",
            "passed": None,
            "m": args.m,
            "n": args.n,
            "value": metrics_mod.welch_bound(args.m, args.n),
            "exact": metrics_mod.welch_bound_exact(args.m, args.n),
        }
        return _emit_report(doc, args)
    report = codes_mod.grey_rankin_bound(args.m, args.delta)
    doc = report.as_dict()
    doc["passed"] = None  # a bound table entry is informational
    return _emit_report(doc, args)


def _cmd_fixtures(args) -> int:
    if args.which == "fig1":
        return _emit_frame(fixtures_mod.fig1(), args)
    if args.which == "fig2":
        return _emit_frame(fixtures_mod.fig2(), args)
    _write(fixtures_mod.fig3().to_text(), args.out)
    return 0


# -- parser ---------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="verification tolerance (default from ETFKIT_TOL or 1e-9)")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", default="-", help="output path, '-' for stdout")

    parser = argparse.ArgumentParser(prog="etfkit")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_design = sub.add_parser("design", help="generate or validate designs")
    dsub = p_design.add_subparsers(dest="design_cmd", required=True)
    p = dsub.add_parser("affine", parents=[common])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p = dsub.add_parser("round-robin", parents=[common])
    p.add_argument("--v", type=int, required=True)
    dsub.add_parser("kirkman15", parents=[common])
    p = dsub.add_parser("validate", parents=[common])
    p.add_argument("design")
    p_design.set_defaults(func=_cmd_design)

    p_frame = sub.add_parser("frame", help="build frames")
    fsub = p_frame.add_subparsers(dest="frame_cmd", required=True)
    for name in ("steiner", "kirkman"):
        p = fsub.add_parser(name, parents=[common])
        p.add_argument("design")
        p.add_argument("--simplex", choices=("dft", "hadamard", "characters"), required=True)
        p.add_argument("--drop-row", type=int, default=0)
        p.add_argument("--group", default=None, help="abelian group spec like 2x2 (characters simplex)")
        if name == "kirkman":
            p.add_argument("--basis", choices=("dft", "hadamard"), required=True)
    for name in ("harmonic", "mcfarland-vs-kirkman"):
        p = fsub.add_parser(name, parents=[common])
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--j", type=int, required=True)
        p.add_argument("--group", default=None, help="abelian group of order R+1 (default: canonical)")
    p = fsub.add_parser("naimark", parents=[common])
    p.add_argument("frame")
    p_frame.set_defaults(func=_cmd_frame)

    p = sub.add_parser("verify", parents=[common], help="run the ETF certificate")
    p.add_argument("frame")
    p.set_defaults(func=_cmd_verify)

    p_analyze = sub.add_parser("analyze", help="spark / RIP / Gram analysis")
    asub = p_analyze.add_subparsers(dest="analyze_cmd", required=True)
    p = asub.add_parser("spark", parents=[common])
    p.add_argument("frame")
    p.add_argument("--max", type=int, default=None,
                   help="largest subset size to search (default: M+1, or R+1 for a design frame)")
    p = asub.add_parser("rip", parents=[common])
    p.add_argument("frame")
    p.add_argument("--L", type=int, required=True)
    p = asub.add_parser("gram-equal", parents=[common])
    p.add_argument("a")
    p.add_argument("b")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_code = sub.add_parser("code", help="binary-code conversion and checks")
    csub = p_code.add_subparsers(dest="code_cmd", required=True)
    p = csub.add_parser("from-frame", parents=[common])
    p.add_argument("frame")
    p = csub.add_parser("check", parents=[common])
    p.add_argument("code")
    p_code.set_defaults(func=_cmd_code)

    p_bound = sub.add_parser("bound", help="bound tables")
    bsub = p_bound.add_subparsers(dest="bound_cmd", required=True)
    p = bsub.add_parser("welch", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p = bsub.add_parser("grey-rankin", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p_bound.set_defaults(func=_cmd_bound)

    p_fix = sub.add_parser("fixtures", help="golden fixture management")
    xsub = p_fix.add_subparsers(dest="fixtures_cmd", required=True)
    p = xsub.add_parser("emit", parents=[common])
    p.add_argument("--which", choices=fixtures_mod.FIXTURE_NAMES, required=True)
    p_fix.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.tol = _tolerance(args.tol)
        return args.func(args)
    except (EtfkitError, ValueError, OSError) as e:
        print(f"etfkit: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
