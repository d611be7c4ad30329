"""Command-line interface: cohomology, obstruction, schwinger, chern, verify.

Reports are plain ``key: value`` lines with fixed float formatting, so a
rerun on the same inputs is byte-identical; ``--machine-readable`` emits
the same data as sorted JSON.  Exit codes: 0 success, 2 parse/validation
failure, 3 mathematical invariant violation.

``cohomology`` and ``obstruction`` compute in exact integer arithmetic and
never import numpy.  numpy, ``schwinger`` and ``connection`` are imported
inside the floating-point commands (``schwinger``, ``chern``, ``verify``)
that use them, so importing this module stays numpy-free.
"""

import argparse
import json
import sys

from . import cech, io, lifting, models, nerve as nerve_mod
from .coeffs import (Automorphism, FiniteGroup, SemidirectElement,
                     cyclic_central_extension, semidirect_group, semidirect_mul,
                     verify_extension)
from .errors import GerbeError, ProblemFileError


def _fmt(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, complex):
        return f"{format(value.real, '.12g')}{format(value.imag, '+.12g')}j"
    return str(value)


class Report:
    """Ordered key/value lines plus a JSON mirror."""

    def __init__(self, command):
        self.lines = []
        self.data = {"command": command}
        self.add("command", command)

    def add(self, key, value, raw=None):
        self.lines.append((key, _fmt(value)))
        if raw is None:
            raw = value
        if isinstance(raw, complex):
            raw = [raw.real, raw.imag]
        self.data[key] = raw

    def emit(self, machine):
        if machine:
            sys.stdout.write(json.dumps(self.data, sort_keys=True,
                                        default=_fmt) + "\n")
        else:
            sys.stdout.write("".join(f"{k}: {v}\n" for k, v in self.lines))


def _input_line(report, label, path):
    report.add(f"input-{label}", f"{path} sha256={io.sha256_of(path)}")


def cmd_cohomology(args):
    report = Report("cohomology")
    _input_line(report, "system", args.system)
    system = io.parse_system(args.system)
    report.add("degree", args.degree)
    report.add("coefficients", system.coeff.describe())
    report.add("twist", "trivial" if system.twist_is_trivial() else "nontrivial")
    group = cech.cohomology(system, args.degree)
    report.add("result", group.describe())
    report.emit(args.machine_readable)
    return 0


def _class_order(result):
    """Order of the obstruction class in twisted H^2 over the cyclic kernel."""
    sys_ = result.system
    for m in range(1, result.ext.kernel_order + 1):
        scaled = cech.cochain(sys_, 2, [m * v for v in result.cochain.values])
        if cech.is_coboundary(scaled, sys_).trivial:
            return m
    raise AssertionError("class order must divide the kernel order")


def cmd_obstruction(args):
    report = Report("obstruction")
    _input_line(report, "transition", args.transition)
    _input_line(report, "extension", args.extension)
    td = io.parse_transition(args.transition)
    ext = io.parse_extension(args.extension)
    ext_report = verify_extension(ext)
    if not ext_report.ok:
        raise GerbeError(f"extension invalid: {ext_report.violation} "
                         f"{ext_report.message}")
    cocycle_report = lifting.check_twisted_cocycle(td)
    if not cocycle_report.ok:
        raise GerbeError(cocycle_report.message())
    lifts = None
    if args.lifts:
        _input_line(report, "lifts", args.lifts)
        lifts = io.parse_lifts(args.lifts, td.nerve)
    result = lifting.obstruction(td, ext, lifts)
    triangles = td.nerve.simplices[2]
    report.add("kernel", ext.kernel_coefficients().describe())
    report.add("cocycle", " ".join(
        f"{t}={v}" for t, v in zip(triangles, result.cochain.values)))
    cls = result.class_result()
    if cls.trivial:
        report.add("class", "TRIVIAL")
        fixed = lifting.trivialize(result)
        report.add("lift", " ".join(
            f"{e}={v}" for e, v in zip(td.nerve.simplices[1], fixed.lifts.values)))
        recheck = lifting.obstruction(td, ext, fixed.lifts)
        report.add("lift-verified", all(v == 0 for v in recheck.cochain.values))
    else:
        order = _class_order(result)
        report.add("class", f"NONTRIVIAL (order {order})")
        cert = cls.certificate
        report.add("certificate-functional", " ".join(map(str, cert.functional)))
        report.add("certificate-modulus", cert.modulus)
        report.add("certificate-pairing", cert.pairing)
    report.emit(args.machine_readable)
    return 0


def _load_loops(args, count):
    if args.random:
        try:
            size, band = (int(x) for x in args.random.split(","))
        except ValueError as exc:
            raise ProblemFileError("--random wants 'SIZE,BAND'") from exc
        if size < 1 or band < 0:
            raise ProblemFileError(
                f"--random wants SIZE >= 1 and BAND >= 0, got {args.random!r}")
        import numpy as np
        from . import schwinger
        rng = np.random.default_rng(args.seed)
        return [schwinger.LoopPolynomial.random(rng, size, band)
                for _ in range(count)], "random"
    if len(args.loops) < count:
        raise ProblemFileError(
            f"mode {args.mode} needs {count} loop files (or --random)")
    return [io.parse_loop(p) for p in args.loops[:count]], "files"


_MODE_ARITY = {"trace": 2, "residue": 2, "identity": 3, "jacobi": 3,
               "defect": 1, "curvature": 2}


def cmd_schwinger(args):
    import numpy as np
    from . import schwinger
    report = Report(f"schwinger-{args.mode}")
    count = _MODE_ARITY[args.mode]
    loops, source = _load_loops(args, count)
    if source == "files":
        for idx, path in enumerate(args.loops[:count]):
            _input_line(report, f"loop{idx}", path)
    else:
        report.add("random", args.random)
        report.add("seed", args.seed)
    band = max(x.band for x in loops)
    scale = schwinger.loop_scale(*loops)
    report.add("band", band)
    report.add("scale", scale)
    if args.mode in ("trace", "residue"):
        X, Y = loops
        residue = schwinger.schwinger_residue(X, Y)
        if args.mode == "residue":
            report.add("residue", residue)
        else:
            base = max(band, 1) if args.truncation is None else args.truncation
            for K in (base, base + 1, base + 5):
                value = schwinger.schwinger_trace(
                    X, Y, K, allow_truncated=args.allow_truncated)
                report.add(f"trace-K{K}", value)
            report.add("residue", residue)
            dev = abs(schwinger.schwinger_trace(
                X, Y, base, allow_truncated=args.allow_truncated) - residue)
            report.add("trace-vs-residue", dev)
            report.add("verdict",
                       "PASS" if dev <= 1e-10 * scale else "FAIL",
                       raw=bool(dev <= 1e-10 * scale))
    elif args.mode == "identity":
        defect = schwinger.cocycle_identity_defect(*loops)
        report.add("cyclic-defect", defect)
        report.add("tolerance", 1e-10 * scale)
        report.add("verdict", "PASS" if defect <= 1e-10 * scale else "FAIL")
    elif args.mode == "jacobi":
        elems = [schwinger.CentralElement(x, 0.0) for x in loops]
        defect = schwinger.jacobi_defect(*elems)
        report.add("jacobi-defect", defect)
        report.add("tolerance", 1e-10 * scale)
        report.add("verdict", "PASS" if defect <= 1e-10 * scale else "FAIL")
    elif args.mode == "defect":
        X = loops[0]
        K = X.band + 3 if args.truncation is None else args.truncation
        result = schwinger.dirac_defect(X, K)
        report.add("truncation", K)
        report.add("window", result.window)
        report.add("interior-deviation", result.interior_deviation)
        report.add("verdict",
                   "PASS" if result.interior_deviation <= 1e-12 else "FAIL")
    elif args.mode == "curvature":
        X, Y = loops
        K = 2 * band + 2 if args.truncation is None else args.truncation
        result = schwinger.defect_curvature(X, Y, K)
        flipped = schwinger.defect_curvature(Y, X, K)
        report.add("truncation", K)
        report.add("window", result.window)
        report.add("curvature-norm", float(np.max(np.abs(result.matrix))))
        anti = float(np.max(np.abs(result.matrix + flipped.matrix)))
        report.add("antisymmetry-defect", anti)
        report.add("verdict", "PASS" if anti <= 1e-10 * scale else "FAIL")
    report.emit(args.machine_readable)
    return 0


def cmd_chern(args):
    from . import connection
    if not args.tolerance >= 0:  # also rejects NaN
        raise ProblemFileError(f"--tolerance {args.tolerance} must be >= 0")
    report = Report("chern")
    _input_line(report, "bundle", args.bundle)
    build, options = io.parse_bundle(args.bundle)
    if args.grid is not None:
        options["resolution"] = args.grid
    report.add("model", "two-chart-sphere")
    report.add("clutching", options["clutching"])
    data = build(resolution=options["resolution"])
    psum, pok = data.partition_report()
    report.add("partition-deviation", psum)
    if not pok:
        raise GerbeError(f"partition of unity fails (deviation {psum})")
    tres, tok, where = data.transition_report(tol=args.tolerance)
    report.add("cocycle-residual", tres)
    if not tok:
        report.add("cocycle-location", str(where))
        report.emit(args.machine_readable)
        raise GerbeError(
            f"transition cocycle residual {tres} above {args.tolerance} at {where}")
    res = options["resolution"]
    coarse = build(resolution=res // 2)
    report.add(f"gauge-residual-{res // 2}", connection.gauge_residual(coarse, 0, 1))
    report.add(f"gauge-residual-{res}", connection.gauge_residual(data, 0, 1))
    value = connection.chern_number(data)
    nearest = round(value)
    report.add("chern", value)
    report.add("nearest-integer", nearest)
    report.add("deviation", abs(value - nearest))
    report.add("verdict", "PASS" if abs(value - nearest) <= 1e-3 else "FAIL")
    report.emit(args.machine_readable)
    return 0


def _check(condition, message=""):
    """A verify-suite invariant; unlike ``assert`` it also holds under -O."""
    if not condition:
        raise AssertionError(message)


def _suite_nerve(rng):
    for _ in range(20):
        n = nerve_mod.random_nerve(rng)
        for k in range(1, 5):
            for s in n.simplices[k]:
                for f in nerve_mod.faces(s):
                    _check(f in n.simplices[k - 1], "downward closure violated")
    for dim in range(4):
        sphere = models.boundary_simplex(dim)
        _check(sphere.euler_characteristic() == 1 + (-1) ** dim)
    return "downward closure + Euler characteristics"


def _suite_cech(rng):
    from .coeffs import CoefficientGroup
    for _ in range(30):
        n = nerve_mod.random_nerve(rng)
        coeff = CoefficientGroup.integers(
            involution="negation" if rng.integers(2) else "identity")
        sys_ = _random_system(n, coeff, rng)
        k = int(rng.integers(0, 3))
        c = cech.random_cochain(sys_, k, rng)
        dd = cech.coboundary(cech.coboundary(c, sys_), sys_)
        _check(all(v == 0 for v in dd.values), "delta o delta != 0")
    sysm = models.circle_mobius_system()
    _check(cech.cohomology(sysm, 0).describe() == "free 0, torsion []")
    _check(cech.cohomology(sysm, 1).describe() == "free 0, torsion [2]")
    return "delta o delta = 0 + circle Mobius groups"


def _random_system(nerve_, coeff, rng):
    """Random valid twist: a mod-2 kernel element of the edge coboundary."""
    from .coeffs import CoefficientGroup
    from . import snf as _snf
    mod2 = cech.TwistedLocalSystem(nerve_, CoefficientGroup.integers_mod(2))
    basis = _snf.kernel_basis(_snf.smith_normal_form_mod(
        mod2.delta_matrix(1), 2, nerve_.count(1)))
    signs = [0] * nerve_.count(1)
    for vec in basis:
        if rng.integers(2):
            signs = [(a + b) % 2 for a, b in zip(signs, vec[:len(signs)])]
    eps = {e: -1 if signs[i] else 1
           for i, e in enumerate(nerve_.simplices[1])}
    return cech.TwistedLocalSystem(nerve_, coeff, eps)


def _suite_coeffs(rng):
    z3 = FiniteGroup.cyclic(3)
    neg = Automorphism.negation(z3)
    s3 = semidirect_group(z3, neg)
    _check(s3.order == 6)
    for _ in range(50):
        a = SemidirectElement(int(rng.integers(3)), -1 if rng.integers(2) else 1)
        b = SemidirectElement(int(rng.integers(3)), -1 if rng.integers(2) else 1)
        c = SemidirectElement(int(rng.integers(3)), -1 if rng.integers(2) else 1)
        lhs = semidirect_mul(semidirect_mul(a, b, neg), c, neg)
        rhs = semidirect_mul(a, semidirect_mul(b, c, neg), neg)
        _check(lhs == rhs, "semidirect product not associative")
    _check(verify_extension(cyclic_central_extension(2, 2)).ok)
    _check(verify_extension(cyclic_central_extension(3, 3, twist="negation")).ok)
    return "semidirect associativity + extension laws"


def _suite_lifting(rng):
    ext = cyclic_central_extension(2, 2)
    sphere = models.boundary_simplex(2)
    z2 = FiniteGroup.cyclic(2)
    from .coeffs import CoefficientGroup
    sysb = cech.TwistedLocalSystem(sphere, CoefficientGroup.integers_mod(2))
    pot = cech.cochain(sysb, 0, [int(rng.integers(2)) for _ in range(4)])
    g = cech.coboundary(pot, sysb)
    td = lifting.TransitionData(sphere, z2, Automorphism.identity(z2),
                                list(g.values))
    result = lifting.obstruction(td, ext)
    fixed = lifting.trivialize(result)
    _check(fixed.trivial, "coboundary transition must trivialize")
    return "sphere lifting round-trip"


def _suite_schwinger(rng):
    from . import schwinger
    for _ in range(10):
        X = schwinger.LoopPolynomial.random(rng, 2, 3)
        Y = schwinger.LoopPolynomial.random(rng, 2, 3)
        Z = schwinger.LoopPolynomial.random(rng, 2, 3)
        scale = schwinger.loop_scale(X, Y, Z)
        _check(abs(schwinger.schwinger_trace(X, Y, 3)
                   - schwinger.schwinger_residue(X, Y)) <= 1e-10 * scale)
        _check(schwinger.cocycle_identity_defect(X, Y, Z) <= 1e-10 * scale)
        _check(schwinger.dirac_defect(X, 6).interior_deviation <= 1e-12)
    return "trace=residue + cocycle identity + Dirac defect"


def _suite_connection(rng):
    from . import connection
    data = connection.two_chart_sphere(1, resolution=120)
    _check(data.partition_report()[1])
    _check(data.transition_report()[1])
    value = connection.chern_number(data)
    _check(abs(value - 1.0) <= 5e-3, f"coarse chern estimate {value} too far")
    return "sphere bundle sanity + coarse Chern"


def cmd_verify(args):
    import numpy as np
    report = Report("verify")
    report.add("seed", args.seed)
    suites = [("nerve", _suite_nerve), ("cech", _suite_cech),
              ("coeffs", _suite_coeffs), ("lifting", _suite_lifting),
              ("schwinger", _suite_schwinger), ("connection", _suite_connection)]
    failures = 0
    for name, suite in suites:
        rng = np.random.default_rng(args.seed)
        try:
            detail = suite(rng)
            report.add(f"suite-{name}", f"PASS ({detail})")
        except AssertionError as exc:
            failures += 1
            report.add(f"suite-{name}", f"FAIL ({exc})")
    report.add("failures", failures)
    report.emit(args.machine_readable)
    if failures:
        raise GerbeError(f"{failures} verify suites failed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gerbelab",
        description="Twisted Cech cohomology, lifting obstructions, Schwinger "
                    "cocycles, and discrete Chern-Weil integrals.")
    parser.add_argument("--machine-readable", action="store_true",
                        help="emit the report as sorted JSON")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("cohomology", help="twisted cohomology of a system file")
    p.add_argument("system")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("obstruction", help="lifting obstruction class")
    p.add_argument("transition")
    p.add_argument("extension")
    p.add_argument("--lifts", help="optional lifts file (default: section lifts)")
    p.set_defaults(func=cmd_obstruction)

    p = sub.add_parser("schwinger", help="loop cocycle computations")
    p.add_argument("loops", nargs="*", help="loop files")
    p.add_argument("--mode", required=True, choices=sorted(_MODE_ARITY))
    p.add_argument("--truncation", type=int)
    p.add_argument("--allow-truncated", action="store_true")
    p.add_argument("--random", help="generate loops: 'SIZE,BAND'")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_schwinger)

    p = sub.add_parser("chern", help="Chern number of a bundle file")
    p.add_argument("bundle")
    p.add_argument("--tolerance", type=float, default=1e-6,
                   help="transition cocycle residual threshold (>= 0)")
    p.add_argument("--grid", type=int,
                   help="override the bundle file's grid resolution")
    p.set_defaults(func=cmd_chern)

    p = sub.add_parser("verify", help="run the module invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProblemFileError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except GerbeError as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return 3
    except Exception as exc:  # malformed input must not escape as a traceback
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
