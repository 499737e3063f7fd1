"""Command-line surface for the congruence toolkit.

Every verb prints a machine-readable report (json, csv or plain key:value)
with deterministic byte output: floats are serialized with 17 significant
digits, dictionary keys are sorted, and nothing time- or host-dependent is
emitted.  Exit codes: 0 success, 2 validation error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (
    BudgetExceeded,
    CongruenceLabError,
    UnsupportedCase,
    ValidationError,
    charge,
    resolve_budget,
)
from .modmath import PrimePowerModulus, sqrt_classes_mod_prime_power

# Each verb imports the modules it runs inside its handler, so start-up pays
# only for those: `density` never loads numpy, `expsum-scan` never loads the
# counting stack.
if TYPE_CHECKING:
    from .counting import WeightSpec
    from .densities import DiagonalForm


def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return format(v, ".17g")


def canonical_json(value, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if isinstance(value, dict):
        items = ",".join(
            f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, complex):
        return canonical_json({"re": value.real, "im": value.imag})
    if isinstance(value, Fraction):
        return canonical_json({"num": value.numerator, "den": value.denominator})
    if value is None:
        return "null"
    return json.dumps(str(value))


def _emit(data, fmt: str, out_path: str | None, csv_text: str | None = None) -> None:
    if fmt == "json":
        text = canonical_json(data) + "\n"
    elif fmt == "csv":
        text = csv_text if csv_text is not None else _dict_to_csv(data)
    else:
        text = _to_plain(data)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dict_to_csv(data) -> str:
    if isinstance(data, dict) and isinstance(data.get("rows"), list):
        rows = data["rows"]
        if rows:
            keys = sorted(rows[0])
            lines = [",".join(keys)]
            for row in rows:
                lines.append(",".join(_plain_scalar(row[k]) for k in keys))
            return "\n".join(lines) + "\n"
    if isinstance(data, dict):
        lines = ["key,value"]
        for k in sorted(data):
            lines.append(f"{k},{_plain_scalar(data[k])}")
        return "\n".join(lines) + "\n"
    return _plain_scalar(data) + "\n"


def _plain_scalar(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, complex):
        return f"{format(v.real, '.17g')}{'+' if v.imag >= 0 else ''}{format(v.imag, '.17g')}j"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (dict, list, tuple)):
        return canonical_json(v)
    return str(v)


def _to_plain(data, prefix: str = "") -> str:
    if isinstance(data, dict):
        out = []
        for k in sorted(data, key=str):
            v = data[k]
            if isinstance(v, dict):
                out.append(_to_plain(v, prefix=f"{prefix}{k}."))
            elif isinstance(v, list) and v and isinstance(v[0], dict):
                for i, row in enumerate(v):
                    out.append(_to_plain(row, prefix=f"{prefix}{k}[{i}]."))
            else:
                out.append(f"{prefix}{k}: {_plain_scalar(v)}")
        return "\n".join(out) + ("\n" if not prefix else "")
    return _plain_scalar(data) + "\n"


def _weight_from_args(args) -> WeightSpec:
    from . import counting

    kind = {"gaussian": counting.GAUSSIAN, "bump": counting.BUMP_PAIR, "sharp": counting.SHARP_CUTOFF}[args.weight]
    return counting.WeightSpec(kind, sigma=args.sigma, radius=args.radius)


def _finite_positive(text: str) -> float:
    """argparse type for --N and --theta: a finite positive float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _resolve_N(args, q: int) -> float:
    if args.N is not None:
        return float(args.N)
    if args.theta is not None:
        try:
            return float(math.ceil(q**args.theta))
        except OverflowError:
            raise ValidationError(f"--theta {args.theta} makes N = ceil(q^theta) overflow") from None
    raise ValidationError("give either --N or --theta")


def _parse_range(text: str, flag: str) -> range:
    """LO..HI as the inclusive range LO, ..., HI; malformed or empty is an error."""
    match = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text.strip())
    if not match or int(match[1]) > int(match[2]):
        raise ValidationError(f"{flag} must be LO..HI with integers LO <= HI, got {text!r}")
    return range(int(match[1]), int(match[2]) + 1)


# ---------------------------------------------------------------------------
# verbs


def _cmd_eval_gauss(args) -> dict:
    from . import charsums

    mod = PrimePowerModulus(args.p, args.m)
    closed = charsums.gauss_sum_closed(args.a, args.b, mod)
    value = closed.to_complex()
    brute = None
    if mod.q <= 100_000:
        brute = charsums.gauss_sum_bruteforce(args.a, args.b, mod.q)
    closed_dict = {"is_zero": True} if closed.is_zero else closed._asdict()
    report = {"re": value.real, "im": value.imag, "closed_form": closed_dict}
    if brute is not None:
        report["bruteforce"] = {"re": brute.real, "im": brute.imag}
    return report


def _cmd_eval_kloosterman(args) -> dict:
    from . import charsums

    mod = PrimePowerModulus(args.p, args.m)
    closed_fn = charsums.salie_closed if args.salie else charsums.kloosterman_closed
    brute_fn = charsums.salie_bruteforce if args.salie else charsums.kloosterman_bruteforce
    try:
        closed = closed_fn(args.a, args.b, mod)
        closed_dict, value = {"is_zero": True}, closed.to_complex()
        if not closed.is_zero:
            closed_dict = {**closed._asdict(), "terms": [{"coeff": c, "phase_num": ph} for c, ph in closed.terms]}
    except UnsupportedCase as exc:
        # the literal sum is the only route left
        charge(mod.q, resolve_budget(args.budget), "brute-force sum")
        closed_dict, value = {"unsupported": str(exc)}, brute_fn(args.a, args.b, mod.q)
    return {"re": value.real, "im": value.imag, "closed_form": closed_dict}


def _cmd_density(args) -> dict:
    from .densities import DiagonalForm, density_A, density_B, ternary_C_p

    lams = tuple(args.lam)
    if args.which == "C":
        if len(lams) != 3:
            raise ValidationError("density C takes exactly three coefficients")
        value = ternary_C_p(*lams, args.p)
        return {"num": value.numerator, "den": value.denominator, "value": float(value)}
    if args.which == "A":
        dv = density_A(DiagonalForm(lams), args.p)
    else:
        if len(lams) < 2:
            raise ValidationError("density B takes the n coefficients plus the inhomogeneous term")
        dv = density_B(DiagonalForm(lams[:-1], lams[-1]), args.p)
    return {"num": dv.numerator, "den": dv.denominator, "value": float(dv.as_rational)}


def _form_for_mode(args) -> tuple[DiagonalForm, str]:
    from . import counting
    from .densities import DiagonalForm

    lams = tuple(args.lam)
    if args.mode == "inhom":
        if len(lams) < 2:
            raise ValidationError("inhomogeneous counting needs n coefficients plus the term")
        return DiagonalForm(lams[:-1], lams[-1]), counting.UNIT_COORDS
    return DiagonalForm(lams), counting.NOT_ALL_ZERO


def _cmd_count(args) -> dict:
    from . import counting

    form, mode = _form_for_mode(args)
    mod = PrimePowerModulus(args.p, args.m)
    N = _resolve_N(args, mod.q)
    w = _weight_from_args(args)
    if args.method == "spectral":
        if mode != counting.UNIT_COORDS:
            raise ValidationError("spectral counting supports the inhomogeneous mode only")
        rep = counting.count_weighted_spectral(form, mod, N, w, budget=args.budget)
    else:
        rep = counting.count_weighted_direct(form, mod, N, w, mode, budget=args.budget)
    return {**dataclasses.asdict(rep), "weight": rep.weight.kind}


def _cmd_verify_asymptotic(args) -> dict:
    from . import counting

    form, mode = _form_for_mode(args)
    w = _weight_from_args(args)
    rows = []
    for m in _parse_range(args.m_range, "--m-range"):
        mod = PrimePowerModulus(args.p, m)
        N = _resolve_N(args, mod.q)
        rep = counting.count_weighted_direct(form, mod, N, w, mode, budget=args.budget)
        rows.append({"m": m, "q": mod.q, "N": N, "T": rep.T, "T0": rep.T0, "ratio": rep.ratio})
    return {"rows": rows, "mode": args.mode, "p": args.p, "lambdas": list(args.lam)}


def _cmd_expsum_scan(args) -> tuple[dict, str]:
    from . import sqrt_expsums

    rows = sqrt_expsums.bound_scan(
        args.p,
        _parse_range(args.s_range, "--s-range"),
        args.trials,
        args.seed,
        c_max=args.c_max,
        k_cap=args.k_cap,
        budget=args.budget,
    )
    csv_text = sqrt_expsums.scan_rows_to_csv(rows)
    max_norm = max(r.normalized for r in rows)
    data = {
        "p": args.p,
        "seed": args.seed,
        "trials": args.trials,
        "rows": len(rows),
        "max_normalized": max_norm,
    }
    return data, csv_text


def _cmd_tau(args) -> dict:
    from .representations import DualForm, tau_n

    dual = DualForm(tuple(args.deltas))
    mod = PrimePowerModulus(args.p, args.m)
    w = _weight_from_args(args)
    N = _resolve_N(args, mod.q)
    value = tau_n(args.k, dual, args.r, w, mod, N, budget=args.budget)
    return {"k": args.k, "tau": value}


def _cmd_singular_series(args) -> dict:
    from .representations import DualForm, singular_series

    dual = DualForm(tuple(args.deltas))
    data = singular_series(args.k, dual, args.p, args.q_max, budget=args.budget)
    return {"k": args.k, **dataclasses.asdict(data)}


def _cmd_quad_count(args) -> dict:
    from .representations import quadruple_count

    c = PrimePowerModulus(args.p, args.s).q
    count = quadruple_count(tuple(args.alphas), args.b, c, args.M, p=args.p, budget=args.budget)
    return {"count": count, "c": c, "M": args.M}


# ---------------------------------------------------------------------------
# selftest


def _selftest_lines(quick: bool, seed: int) -> tuple[list[str], bool]:
    from . import charsums, counting, sqrt_expsums
    from .densities import DiagonalForm

    lines: list[str] = []
    ok = True

    def record(name: str, passed: bool, metric: str) -> None:
        nonlocal ok
        ok = ok and passed
        lines.append(f"{'ok' if passed else 'FAIL'} {name} {metric}")

    # Gauss sums: closed vs brute force
    worst = 0.0
    cases = [(3, 1), (3, 2), (5, 1), (5, 2)] if quick else [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)]
    for p, m in cases:
        mod = PrimePowerModulus(p, m)
        for a in range(mod.q):
            for b in range(mod.q):
                gap = abs(
                    charsums.gauss_sum_bruteforce(a, b, mod.q)
                    - charsums.gauss_sum_closed(a, b, mod).to_complex()
                )
                worst = max(worst, gap / max(1.0, math.sqrt(mod.q)))
    record("gauss-closed-vs-brute", worst < 1e-8, f"max_scaled_gap={worst:.3e}")

    # Kloosterman / Salie closed vs brute
    worst = 0.0
    for p, m in ([(3, 2), (5, 2)] if quick else [(3, 2), (3, 3), (5, 2)]):
        mod = PrimePowerModulus(p, m)
        for a in range(mod.q):
            for b in range(mod.q):
                if a % p == 0 and b % p == 0:
                    continue
                gap = abs(
                    charsums.kloosterman_bruteforce(a, b, mod.q)
                    - charsums.kloosterman_closed(a, b, mod).to_complex()
                )
                gap = max(
                    gap,
                    abs(
                        charsums.salie_bruteforce(a, b, mod.q)
                        - charsums.salie_closed(a, b, mod).to_complex()
                    ),
                )
                worst = max(worst, gap / math.sqrt(mod.q))
    record("kloosterman-salie-closed-vs-brute", worst < 1e-8, f"max_scaled_gap={worst:.3e}")

    # F kernel identity on a fixed grid
    worst = 0.0
    grid = [
        (2, (1, 1), 2, 3, 2, 0, (1, 1)),
        (2, (1, 2), 1, 5, 2, 0, (1, 2)),
        (3, (1, 1, 2), 1, 3, 3, 1, (1, 1, 2)),
        (3, (2, 1, 1), 2, 3, 3, 0, (1, 2, 4)),
    ]
    for n, lams, lnext, p, m, r, l in grid:
        mod = PrimePowerModulus(p, m)
        form = DiagonalForm(lams, lnext)
        k = tuple(p**r * x for x in l)
        bf = charsums.F_bruteforce(k, form, mod)
        cf = charsums.F_closed(r, l, form, mod)
        worst = max(worst, abs(bf - cf) / max(1.0, abs(bf)))
    record("f-kernel-closed-vs-brute", worst < 1e-6, f"max_rel_gap={worst:.3e}")

    # root classes vs exhaustive squares
    bad = 0
    for p, m in ([(3, 4), (5, 3)] if quick else [(3, 6), (5, 4), (7, 3)]):
        mod = PrimePowerModulus(p, m)
        sqs: dict[int, list[int]] = {}
        for u in range(mod.q):
            sqs.setdefault(u * u % mod.q, []).append(u)
        for rr in range(mod.q):
            want = sqs.get(rr, [])
            got = sqrt_classes_mod_prime_power(rr, mod).members()
            if got != want:
                bad += 1
    record("sqrt-classes-vs-exhaustive", bad == 0, f"mismatches={bad}")

    # Poisson identity
    worst = 0.0
    w = counting.gaussian_weight()
    for q, a, N in [(5, 2, 10.0), (1, 0, 7.0), (3, 1, 25.0)]:
        worst = max(worst, counting.poisson_identity_check(w, q, a, N, 60).gap)
    record("poisson-identity", worst < 1e-8, f"max_gap={worst:.3e}")

    # direct vs spectral count
    worst = 0.0
    configs = [((1, 1), 2, 5, 2, 25.0)] if quick else [((1, 1), 2, 5, 2, 25.0), ((1, 1, 2), 1, 3, 3, 8.0)]
    for lams, lnext, p, m, N in configs:
        form = DiagonalForm(lams, lnext)
        mod = PrimePowerModulus(p, m)
        rd = counting.count_weighted_direct(form, mod, N, w, counting.UNIT_COORDS)
        rs = counting.count_weighted_spectral(form, mod, N, w)
        worst = max(worst, abs(rs.T - rd.T) / max(rd.T, 1e-12))
    record("spectral-vs-direct", worst < 0.01, f"max_rel_gap={worst:.3e}")

    # scan determinism across runs
    s_hi = 5 if quick else 7
    rows_a = sqrt_expsums.bound_scan(3, range(2, s_hi + 1), 10, seed=seed)
    rows_b = sqrt_expsums.bound_scan(3, range(2, s_hi + 1), 10, seed=seed)
    same = [(r.params, r.value) for r in rows_a] == [(r.params, r.value) for r in rows_b]
    max_norm = max(r.normalized for r in rows_a)
    record("scan-determinism", same and max_norm < 10.0, f"max_normalized={max_norm:.6f}")

    lines.append(f"selftest: {'PASS' if ok else 'FAIL'} seed={seed}")
    return lines, ok


def _cmd_selftest(args) -> int:
    lines, ok = _selftest_lines(args.quick, args.seed)
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser plumbing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["json", "csv", "plain"], default="json")
    sub.add_argument("--output", default=None, help="write the report to a file")
    sub.add_argument("--budget", type=int, default=None, help="inner-loop operation budget")
    sub.add_argument("--threads", type=int, default=1, help="accepted for compatibility; no effect")
    sub.add_argument("--config", default=None, help="key=value defaults file (flags win)")


def _add_weight_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--weight", choices=["gaussian", "bump", "sharp"], default="gaussian")
    sub.add_argument("--sigma", type=float, default=1.0)
    sub.add_argument("--radius", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congruence-lab",
        description="exact and numerical tools for quadratic congruences modulo odd prime powers",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("eval-gauss", help="quadratic Gauss sum, closed form and brute force")
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)
    sp.add_argument("p", type=int)
    sp.add_argument("m", type=int)
    _add_common(sp)
    sp.set_defaults(func=lambda a: _emit(_cmd_eval_gauss(a), a.format, a.output))

    sp = subs.add_parser("eval-kloosterman", help="Kloosterman or Salie sum")
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)
    sp.add_argument("p", type=int)
    sp.add_argument("m", type=int)
    sp.add_argument("--salie", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=lambda a: _emit(_cmd_eval_kloosterman(a), a.format, a.output))

    sp = subs.add_parser("density", help="solution density constants A, B, C")
    sp.add_argument("which", choices=["A", "B", "C"])
    sp.add_argument("--lambda", dest="lam", type=int, nargs="+", required=True)
    sp.add_argument("--p", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=lambda a: _emit(_cmd_density(a), a.format, a.output))

    sp = subs.add_parser("count", help="weighted solution count and main term")
    sp.add_argument("--mode", choices=["inhom", "hom"], required=True)
    sp.add_argument("--lambda", dest="lam", type=int, nargs="+", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--N", type=_finite_positive, default=None)
    sp.add_argument("--theta", type=_finite_positive, default=None, help="N = ceil(q^theta)")
    sp.add_argument("--method", choices=["direct", "spectral"], default="direct")
    _add_weight_args(sp)
    _add_common(sp)
    sp.set_defaults(func=lambda a: _emit(_cmd_count(a), a.format, a.output))

    sp = subs.add_parser("verify-asymptotic", help="ratio table T/T0 over a range of exponents")
    sp.add_argument("--mode", choices=["inhom", "hom"], required=True)
    sp.add_argument("--lambda", dest="lam", type=int, nargs="+", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m-range", required=True, help="like 2..6")
    sp.add_argument("--N", type=_finite_positive, default=None)
    sp.add_argument("--theta", type=_finite_positive, default=None)
    _add_weight_args(sp)
    _add_common(sp)
    sp.set_defaults(func=lambda a: _emit(_cmd_verify_asymptotic(a), a.format, a.output))

    sp = subs.add_parser("expsum-scan", help="square-root exponential sum bound scan")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s-range", default="2..8")
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--c-max", type=int, default=64)
    sp.add_argument("--k-cap", type=int, default=100_000)
    _add_common(sp)

    def run_scan(a):
        data, csv_text = _cmd_expsum_scan(a)
        _emit(data, a.format, a.output, csv_text=csv_text)

    sp.set_defaults(func=run_scan)

    sp = subs.add_parser("tau", help="weighted representation count by the dual form")
    sp.add_argument("k", type=int)
    sp.add_argument("--deltas", type=int, nargs="+", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--N", type=_finite_positive, default=None)
    sp.add_argument("--theta", type=_finite_positive, default=None)
    _add_weight_args(sp)
    _add_common(sp)
    sp.set_defaults(func=lambda a: _emit(_cmd_tau(a), a.format, a.output))

    sp = subs.add_parser("singular-series", help="truncated singular series coefficients")
    sp.add_argument("k", type=int)
    sp.add_argument("--deltas", type=int, nargs="+", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q-max", type=int, default=50)
    _add_common(sp)
    sp.set_defaults(func=lambda a: _emit(_cmd_singular_series(a), a.format, a.output))

    sp = subs.add_parser("quad-count", help="bounded quadruple count for a four-square congruence")
    sp.add_argument("--alphas", type=int, nargs=4, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--M", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=lambda a: _emit(_cmd_quad_count(a), a.format, a.output))

    sp = subs.add_parser("selftest", help="oracle-agreement suites; exit 0 on pass")
    sp.add_argument("--quick", action="store_true")
    sp.add_argument("--seed", type=int, default=1)
    _add_common(sp)
    sp.set_defaults(func=_cmd_selftest)

    for sub in subs.choices.values():
        sub.allow_abbrev = False  # a --config key then names exactly the flag it spells
    return parser


def _with_config(argv: list[str]) -> list[str]:
    """argv followed by the flags its --config file sets and argv does not.

    Each key=value line becomes --key and its values (split on spaces or
    commas; true/false for on/off flags), so the parser checks file values
    like flags and rejects unknown keys.  Appending them after argv keeps a
    list flag from the file from swallowing a positional argument.
    """
    pre = argparse.ArgumentParser(prog="congruence-lab", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if not path:
        return argv
    given = {tok[2:].partition("=")[0] for tok in argv if tok.startswith("--")}
    extra: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            flag = key.strip().replace("_", "-")
            if not sep or not flag:
                raise ValidationError(f"config line {line!r} is not key=value")
            values = raw.replace(",", " ").split()
            switch = [v.lower() for v in values]
            if flag in given or switch == ["false"]:
                continue
            extra += [f"--{flag}", *([] if switch == ["true"] else values)]
    return argv + extra


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        result = args.func(args)
        return int(result) if isinstance(result, int) else 0
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (CongruenceLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
