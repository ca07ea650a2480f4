"""Command line front end.

Subcommands build profiles from expressions or curvature data, revolve
them, classify singular points, and write deterministic artifacts:
BASE.csv for curves, BASE.obj for meshes, BASE.json for reports.

Exit codes: 0 success, 1 argument/config error, contradictory input or
an output path that cannot be written, 2 numerical failure (with a JSON
diagnostic written to BASE.json, or stdout without --out).

A config file given as --config FILE holds key=value lines mirroring the
long flags (grid=0:1:100, beta=cot(t), ...).  Its entries are spliced in
at the position of the --config flag, so flags written after it on the
command line override the file.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict

import numpy as np

from . import export, expr
from .construct import (ConstructionError, GaussRatioProblem,
                        MeanRatioProblem, profile_from_H_phi,
                        profile_from_J_phi, profile_from_JK,
                        profile_from_gauss_ratio, profile_from_mean_ratio)
from .framed import integrability_residual
from .jets import ORDER_CAP, DomainError
from .legendre import (DegenerateCurvatureError, curvature_of,
                       legendre_from_expressions, parallel_curve,
                       reconstruct_from_curvature, verify_legendre)
from .quadrature import uniform_grid
from .revolution import (frontal_front_status, parallel_commutation_check,
                         revolution_evolutes, revolve)
from .singular import (EXACT_TOL, InconsistentInputError,
                       constant_gauss_cusp, constant_mean_cusp,
                       curve_cusp_by_curvature, curve_cusp_by_derivatives,
                       ord_of, revolution_singularity_classify)

NUMERICAL = (ConstructionError, DomainError, DegenerateCurvatureError,
             ValueError, ArithmeticError)


class CliError(Exception):
    """Argument or config problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise CliError(f"grid must be min:max:count, got {spec!r}")
    try:
        t_min, t_max, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliError(f"bad grid spec {spec!r}: {exc}") from None
    if not math.isfinite(t_max - t_min):
        raise CliError(
            f"--grid needs a finite min, max and span, got {spec!r}")
    if not t_min < t_max:
        raise CliError(f"grid needs min < max, got {spec!r}")
    if count < 16:
        raise CliError(f"grid needs at least 16 nodes, got {count}")
    return uniform_grid(t_min, t_max, count)


def _expression(src):
    """argparse type of the expression flags: the text, once it parses."""
    try:
        expr.parse(src)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return src


def _config_argv(path: str):
    out = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key=value")
                key, val = line.split("=", 1)
                out += ["--" + key.strip(), val.strip()]
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    return out


def _expand_config(argv):
    out = []
    i = 0
    expansions = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config" or tok.startswith("--config="):
            if tok == "--config":
                if i + 1 >= len(argv):
                    raise CliError("--config needs a file path")
                path, skip = argv[i + 1], 2
            else:
                path, skip = tok.split("=", 1)[1], 1
            expansions += 1
            if expansions > 32:
                raise CliError("config files nested too deeply")
            # splice in place and rescan, so spliced tokens get the same
            # dash-value treatment as ones typed on the command line
            argv = argv[:i] + _config_argv(path) + argv[i + skip:]
            continue
        if (tok.startswith("--") and "=" not in tok and i + 1 < len(argv)
                and argv[i + 1].startswith("-")
                and not argv[i + 1].startswith("--")):
            # keep values like "-1:1:101" or "-cot(t)" out of argparse's
            # option-detection heuristics
            out.append(tok + "=" + argv[i + 1])
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def _add_common(p, out_required=True, grid_required=True):
    p.add_argument("--grid", required=grid_required, metavar="MIN:MAX:COUNT",
                   help="uniform parameter grid")
    p.add_argument("--order", type=_int_within(0, ORDER_CAP), default=5,
                   help="jet order (0..%d)" % ORDER_CAP)
    p.add_argument("--out", required=out_required, metavar="BASE",
                   help="output path prefix (BASE.csv/.obj/.json)")


def _int_within(lo, hi=None):
    """argparse type of an integer flag: n >= lo, and n <= hi if given."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if n < lo or (hi is not None and n > hi):
            raise argparse.ArgumentTypeError(
                f"must be at least {lo}" if hi is None
                else f"must be between {lo} and {hi}")
        return n
    return parse


def _finite(text):
    """argparse type of the float flags: a finite float."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return x


def _nonnegative_finite(text):
    """argparse type of --tol: a finite float, at least 0."""
    tol = _finite(text)
    if tol < 0.0:
        raise argparse.ArgumentTypeError("must be at least 0")
    return tol


def _unit_interval(text):
    """argparse type of --sin0: a finite float in [-1, 1]."""
    x = _finite(text)
    if not -1.0 <= x <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [-1, 1], got {text!r}")
    return x


def _add_cos_sign(p):
    """--cos-sign, the sign of cos(phi) at t0: 1 or -1, kept a float."""
    p.add_argument("--cos-sign", type=_finite, choices=(1.0, -1.0),
                   default=1.0, dest="cos_sign", metavar="{1,-1}",
                   help="sign of cos(phi) at t0; where |sin(phi)| = 1 at "
                        "t0 it holds for t <= t0 and flips after t0")


def _add_tol(p):
    """--tol, on the commands whose zero tests read it."""
    p.add_argument("--tol", type=_nonnegative_finite, default=EXACT_TOL,
                   help="zero-test tolerance (default 1e-8)")


def _add_theta(p):
    p.add_argument("--theta", type=_int_within(8), default=128, dest="n_theta",
                   help="number of revolution angles (>= 8)")


def _add_profile_source(p):
    p.add_argument("--x", type=_expression, help="profile x(t) expression")
    p.add_argument("--z", type=_expression, help="profile z(t) expression")
    p.add_argument("--a", type=_expression, help="normal first component a(t)")
    p.add_argument("--b", type=_expression, help="normal second component b(t)")
    p.add_argument("--ell", type=_expression,
                   help="normal turning density; implies --beta")
    p.add_argument("--beta", type=_expression,
                   help="tangential speed density; implies --ell")
    p.add_argument("--theta0", type=_finite, default=0.0,
                   help="initial normal angle for --ell/--beta")
    p.add_argument("--x0", type=_finite, default=0.0,
                   help="initial x for --ell/--beta")
    p.add_argument("--z0", type=_finite, default=0.0,
                   help="initial z for --ell/--beta")


def _profile(ns, grid):
    has_xz = any(getattr(ns, f) is not None for f in ("x", "z", "a", "b"))
    has_lb = ns.ell is not None or ns.beta is not None
    if has_xz and has_lb:
        raise CliError("give either --x/--z/--a/--b or --ell/--beta, not both")
    if has_xz:
        missing = [f for f in ("x", "z", "a", "b") if getattr(ns, f) is None]
        if missing:
            raise CliError("profile needs all of --x --z --a --b (missing: "
                           + " ".join("--" + m for m in missing) + ")")
        return legendre_from_expressions(ns.x, ns.z, ns.a, ns.b, grid,
                                         ns.order)
    if has_lb:
        if ns.ell is None or ns.beta is None:
            raise CliError("--ell and --beta must be given together")
        return reconstruct_from_curvature(ns.ell, ns.beta, grid,
                                          theta0=ns.theta0, x0=ns.x0,
                                          z0=ns.z0, order=ns.order)
    raise CliError("no profile source given "
                   "(--x/--z/--a/--b or --ell/--beta)")


def _legendre_report(c):
    rep = verify_legendre(c)
    return {"contact_residual": rep.max_contact_residual,
            "norm_residual": rep.max_norm_residual,
            "passed": rep.passed}


def _write(ns, curve=None, surface=None, payload=None):
    if curve is not None:
        export.write_curve_csv(curve, ns.out + ".csv")
    if surface is not None:
        export.write_surface_obj(surface, ns.out + ".obj")
    if payload is not None:
        if getattr(ns, "out", None):
            export.write_json(payload, ns.out + ".json")
        else:
            sys.stdout.write(export.json_text(payload))


def build_parser() -> _Parser:
    p = _Parser(prog="revfront",
                description="Legendre profiles, surfaces of revolution, "
                            "and their singularities")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("curve", help="plane curve commands")
    csub = pc.add_subparsers(dest="subcommand", required=True)
    cfc = csub.add_parser("from-curvature",
                          help="integrate a curvature pair to a curve")
    cfc.add_argument("--ell", type=_expression, required=True)
    cfc.add_argument("--beta", type=_expression, required=True)
    cfc.add_argument("--theta0", type=_finite, default=0.0)
    cfc.add_argument("--x0", type=_finite, default=0.0)
    cfc.add_argument("--z0", type=_finite, default=0.0)
    _add_common(cfc)

    pr = sub.add_parser("revolve", help="revolve a profile into a mesh")
    pr.add_argument("--axis", choices=("x", "z"), default="z")
    _add_profile_source(pr)
    _add_theta(pr)
    _add_tol(pr)
    _add_common(pr)

    pi = sub.add_parser("invariants",
                        help="per-node J, K, H and immersion status")
    pi.add_argument("--axis", choices=("x", "z"), default="z")
    _add_profile_source(pi)
    _add_tol(pi)
    _add_common(pi, out_required=False)

    pl = sub.add_parser("classify", help="label a singular point")
    pl.add_argument("--t0", type=_finite, required=True)
    pl.add_argument("--family",
                    choices=("auto", "gauss", "mean", "revolution"),
                    default="auto")
    pl.add_argument("--alpha", type=_expression,
                    help="curvature ratio (gauss/mean families)")
    _add_profile_source(pl)
    _add_tol(pl)
    _add_common(pl, out_required=False, grid_required=False)

    pk = sub.add_parser("construct",
                        help="build a profile from prescribed curvature")
    ksub = pk.add_subparsers(dest="subcommand", required=True)

    kg = ksub.add_parser("gauss", help="area ratio K = alpha*J")
    kg.add_argument("--alpha", type=_expression, required=True)
    kg.add_argument("--beta", type=_expression, required=True)
    kg.add_argument("--t0", type=_finite, required=True)
    kg.add_argument("--x0", type=_finite, default=1.0)
    kg.add_argument("--sin0", type=_unit_interval, default=None,
                    help="sin(phi) at t0; default 0, or the in-band unit "
                         "value when beta(t0) = 0")
    _add_cos_sign(kg)
    kg.add_argument("--z0", type=_finite, default=0.0)
    kg.add_argument("--method", choices=("auto", "rk4", "frobenius"),
                    default="auto")

    kj = ksub.add_parser("gauss-jk", help="prescribed densities J and K")
    kj.add_argument("--J", type=_expression, required=True)
    kj.add_argument("--K", type=_expression, required=True)
    kj.add_argument("--x0", type=_finite, required=True)
    kj.add_argument("--t0", type=_finite, default=None)
    kj.add_argument("--sin0", type=_unit_interval, default=0.0)
    _add_cos_sign(kj)
    kj.add_argument("--z0", type=_finite, default=0.0)

    km = ksub.add_parser("mean", help="mean ratio H = alpha*J")
    km.add_argument("--alpha", type=_expression, required=True)
    km.add_argument("--beta", type=_expression, required=True)
    km.add_argument("--c1", type=_finite, required=True)
    km.add_argument("--c2", type=_finite, required=True)
    km.add_argument("--t0", type=_finite, default=None)
    km.add_argument("--z0", type=_finite, default=0.0)

    kp = ksub.add_parser("j-phi", help="prescribed J and normal angle")
    kp.add_argument("--J", type=_expression, required=True)
    kp.add_argument("--phi", type=_expression, required=True)
    kp.add_argument("--x0", type=_finite, default=1.0)
    kp.add_argument("--t0", type=_finite, default=None)
    kp.add_argument("--z0", type=_finite, default=0.0)

    kh = ksub.add_parser("h-phi", help="prescribed H and normal angle")
    kh.add_argument("--H", type=_expression, required=True)
    kh.add_argument("--phi", type=_expression, required=True)
    kh.add_argument("--ca", type=_finite, default=0.0)
    kh.add_argument("--t0", type=_finite, default=None)
    kh.add_argument("--z0", type=_finite, default=0.0)

    for leaf in (kg, kj, km, kp, kh):
        _add_theta(leaf)
        _add_common(leaf)

    pe = sub.add_parser("evolute", help="evolutes of a revolved profile")
    _add_profile_source(pe)
    _add_theta(pe)
    _add_tol(pe)
    _add_common(pe)

    pp = sub.add_parser("parallel", help="offset profile and its revolute")
    pp.add_argument("--lambda", type=_finite, required=True, dest="lam")
    pp.add_argument("--axis", choices=("x", "z"), default="z")
    _add_profile_source(pp)
    _add_theta(pp)
    _add_common(pp)

    ph = sub.add_parser("check",
                        help="integrability, contact, and round-trip suite")
    _add_profile_source(ph)
    # check reads only the revolutes' invariants, which do not depend on
    # theta; --theta stays accepted so check takes the same flags as revolve
    ph.add_argument("--theta", type=_int_within(8), default=128, dest="n_theta",
                    help="ignored by check; accepted (>= 8) for flag "
                         "compatibility with revolve")
    _add_tol(ph)
    _add_common(ph, out_required=False)
    return p


def _curvature_roundtrip(ns, c, grid):
    """Sup distance of the profile's (ell, beta) from --ell and --beta."""
    pair = curvature_of(c)
    return {f"{name}_sup": float(np.max(np.abs(
                np.atleast_1d(getattr(pair, name).value)
                - expr.eval_values(getattr(ns, name), grid))))
            for name in ("ell", "beta")}


def _axis_report(surf, tol):
    """The integrability and front blocks of a revolute's JSON report."""
    rep = integrability_residual(surf.invariants)
    front = frontal_front_status(surf.profile, axis=surf.axis, tol=tol)
    return {"integrability": {"max_residual": rep.max_residual,
                              "residuals": rep.residuals},
            "front": {"is_front": front.is_front,
                      "failures": len(front.failures)}}


def _meta(ns, **extra):
    d = {"command": ns.command}
    if getattr(ns, "subcommand", None):
        d["subcommand"] = ns.subcommand
    if getattr(ns, "grid", None):
        d["grid"] = ns.grid
    d.update(extra)
    return d


def _run_curve(ns):
    grid = _parse_grid(ns.grid)
    c = reconstruct_from_curvature(ns.ell, ns.beta, grid, theta0=ns.theta0,
                                   x0=ns.x0, z0=ns.z0, order=ns.order)
    payload = _meta(ns, legendre=_legendre_report(c),
                    curvature_roundtrip=_curvature_roundtrip(ns, c, grid))
    _write(ns, curve=c, payload=payload)
    return 0


def _run_revolve(ns):
    grid = _parse_grid(ns.grid)
    c = _profile(ns, grid)
    surf = revolve(c, axis=ns.axis, n_theta=ns.n_theta)
    payload = _meta(ns, axis=ns.axis, n_theta=ns.n_theta,
                    frame=surf.validate(),
                    **_axis_report(surf, ns.tol))
    _write(ns, curve=c, surface=surf, payload=payload)
    return 0


def _run_invariants(ns):
    grid = _parse_grid(ns.grid)
    c = _profile(ns, grid)
    records = export.invariants_records(revolve(c, ns.axis).invariants,
                                        tol=ns.tol)
    payload = _meta(ns, axis=ns.axis, records=records)
    _write(ns, payload=payload)
    return 0


def _run_classify(ns):
    if ns.family in ("auto", "revolution"):
        if ns.grid is None:
            raise CliError(f"--family {ns.family} needs --grid")
        grid = _parse_grid(ns.grid)
    if ns.family == "mean":
        if ns.alpha is None or ns.beta is None:
            raise CliError("--family mean needs --alpha and --beta")
        lab = constant_mean_cusp(expr.eval_jet(ns.alpha, ns.t0),
                                 expr.eval_jet(ns.beta, ns.t0),
                                 tol=ns.tol)
        payload = _meta(ns, family="mean",
                        record=export.classification_record(lab, ns.t0))
    elif ns.family == "gauss":
        if ns.a is None or ns.beta is None:
            raise CliError("--family gauss needs --a and --beta "
                           "(expressions for cos(phi) and beta)")
        m = ord_of(expr.eval_jet(ns.a, ns.t0), tol=ns.tol)
        n = ord_of(expr.eval_jet(ns.beta, ns.t0), tol=ns.tol)
        lab = constant_gauss_cusp(m, n)
        payload = _meta(ns, family="gauss", orders=[m, n],
                        record=export.classification_record(lab, ns.t0))
    elif ns.family == "revolution":
        c = _profile(ns, grid)
        lab = revolution_singularity_classify(c, ns.t0, tol=ns.tol)
        payload = _meta(ns, family="revolution",
                        record=export.classification_record(lab, ns.t0))
    else:
        c = _profile(ns, grid)
        d = curve_cusp_by_derivatives(c, ns.t0, tol=ns.tol)
        k = curve_cusp_by_curvature(c, ns.t0, tol=ns.tol)
        payload = _meta(ns, family="auto",
                        derivative=export.classification_record(d, ns.t0),
                        curvature=export.classification_record(k, ns.t0),
                        agree=d.label == k.label)
    _write(ns, payload=payload)
    return 0


def _default_sin0(ns):
    """Pick sin(phi) at t0 when the caller leaves it open.

    Ordinarily 0.  When beta vanishes at t0 the solution with sin0 = 0
    usually leaves the band |sin phi| <= 1 immediately; the branch whose
    |sin phi| peaks at t0 (a singular point of the front sits there) has
    sin0 = -sign(alpha(t0) * x0 * beta'(t0)) of unit size, so use that.
    """
    try:
        jb = expr.eval_jet(ns.beta, ns.t0)
        ja = expr.eval_jet(ns.alpha, ns.t0)
    except DomainError:
        return 0.0
    b0, b1 = float(jb.value), float(jb.derivative(1))
    if b1 == 0.0 or abs(b0 / b1) > 1e-6:
        return 0.0
    sgn = float(ja.value) * ns.x0 * b1
    if sgn == 0.0:
        return 0.0
    return -1.0 if sgn > 0 else 1.0


def _run_construct(ns):
    grid = _parse_grid(ns.grid)
    if ns.subcommand == "gauss":
        sin0 = ns.sin0 if ns.sin0 is not None else _default_sin0(ns)
        prob = GaussRatioProblem(alpha=ns.alpha, beta=ns.beta, t0=ns.t0,
                                 x0=ns.x0, sin_phi0=sin0,
                                 cos_sign=ns.cos_sign, z0=ns.z0,
                                 method=ns.method)
        c = profile_from_gauss_ratio(prob, grid, order=ns.order)
    elif ns.subcommand == "gauss-jk":
        c = profile_from_JK(ns.J, ns.K, x0=ns.x0, grid=grid, t0=ns.t0,
                            sin0=ns.sin0, cos_sign=ns.cos_sign, z0=ns.z0,
                            order=ns.order)
    elif ns.subcommand == "mean":
        prob = MeanRatioProblem(alpha=ns.alpha, beta=ns.beta, c1=ns.c1,
                                c2=ns.c2, t0=ns.t0, z0=ns.z0)
        c = profile_from_mean_ratio(prob, grid, order=ns.order)
    elif ns.subcommand == "j-phi":
        c = profile_from_J_phi(ns.J, ns.phi, x0=ns.x0, grid=grid, t0=ns.t0,
                               z0=ns.z0, order=ns.order)
    else:
        c = profile_from_H_phi(ns.H, ns.phi, grid, c_a=ns.ca, t0=ns.t0,
                               z0=ns.z0, order=ns.order)
    surf = revolve(c, axis="z", n_theta=ns.n_theta)
    report = c.flags["construction"]
    payload = _meta(ns, report=asdict(report),
                    legendre=_legendre_report(c))
    _write(ns, curve=c, surface=surf, payload=payload)
    return 0


def _run_evolute(ns):
    grid = _parse_grid(ns.grid)
    c = _profile(ns, grid)
    bundle = revolution_evolutes(c, n_theta=ns.n_theta, tol=ns.tol)
    payload = _meta(ns, diagnostics=bundle.diagnostics)
    if bundle.axis_flags is not None:
        payload["axis_flagged_nodes"] = [
            int(i) for i in np.flatnonzero(bundle.axis_flags)]
    if bundle.axis_curve is not None:
        payload["axis_curve"] = bundle.axis_curve.tolist()
    _write(ns, curve=bundle.first_profile, surface=bundle.first_surface,
           payload=payload)
    return 0


def _run_parallel(ns):
    grid = _parse_grid(ns.grid)
    c = _profile(ns, grid)
    pc = parallel_curve(c, ns.lam)
    surf = revolve(pc, axis=ns.axis, n_theta=ns.n_theta)
    comm = parallel_commutation_check(c, ns.lam, axis=ns.axis)
    payload = _meta(ns, axis=ns.axis, lam=ns.lam,
                    commutation={"passed": comm.passed,
                                 "max_residuals": comm.max_residuals},
                    legendre=_legendre_report(pc))
    _write(ns, curve=pc, surface=surf, payload=payload)
    return 0


def _run_check(ns):
    grid = _parse_grid(ns.grid)
    c = _profile(ns, grid)
    leg = _legendre_report(c)
    payload = _meta(ns, legendre=leg)
    ok = leg["passed"]
    for axis in ("z", "x"):
        report = _axis_report(revolve(c, axis), ns.tol)
        payload.update({f"{key}_{axis}": block
                        for key, block in report.items()})
        ok = ok and report["integrability"]["max_residual"] <= 1e-8
    if ns.ell is not None and ns.beta is not None:
        roundtrip = _curvature_roundtrip(ns, c, grid)
        payload["curvature_roundtrip"] = roundtrip
        ok = ok and all(sup <= 1e-7 for sup in roundtrip.values())
    payload["passed"] = bool(ok)
    _write(ns, payload=payload)
    return 0 if ok else 2


_RUNNERS = {"curve": _run_curve, "revolve": _run_revolve,
            "invariants": _run_invariants, "classify": _run_classify,
            "construct": _run_construct, "evolute": _run_evolute,
            "parallel": _run_parallel, "check": _run_check}


def _numerical_failure(ns, exc):
    """Exit code 2, with the JSON diagnostic in BASE.json or on stdout."""
    diag = {"error": type(exc).__name__, "message": str(exc)}
    info = getattr(exc, "info", None)
    if info:
        diag["info"] = info
    base = getattr(ns, "out", None)
    if base:
        export.write_json(diag, base + ".json")
        sys.stderr.write(f"revfront: numerical failure: {exc}\n")
    else:
        sys.stdout.write(export.json_text(diag))
    return 2


def run(argv) -> int:
    parser = build_parser()
    ns = None
    try:
        try:
            argv = _expand_config(list(argv))
            ns = parser.parse_args(argv)
            return _RUNNERS[ns.command](ns)
        except InconsistentInputError:   # a ValueError, but exit code 1
            raise
        except NUMERICAL as exc:
            return _numerical_failure(ns, exc)
    except (CliError, InconsistentInputError, OSError) as exc:
        # OSError: an output file, or the diagnostic, cannot be written
        sys.stderr.write(f"revfront: error: {exc}\n")
        return 1


def main() -> int:
    try:
        return run(sys.argv[1:])
    except SystemExit as exc:   # argparse --help
        return 0 if exc.code in (0, None) else int(exc.code)


if __name__ == "__main__":
    sys.exit(main())
