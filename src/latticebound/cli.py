"""Command-line interface: config parsing, subcommands, CSV emission.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import atlas, oracle, spectrum
from .core import GAMMA_MAX, ORIGIN, ModelParams, TorusPoint, band_edges
from .determinants import (FactorKind, factor_value, gram_blocks, interaction_weights,
                           secular_det, secular_entries)
from .errors import NUMERICAL_ERRORS, ParseError, ValidationError
from .integrals import (Side, predicted_asymptote, watson_integrals,
                        watson_integrals_at, watson_integrals_grid)
from .spectrum import SpectrumReport, spectrum_general, spectrum_k0

CSV_HEADER = ("lambda,mu,gamma,K1,K2,region_s,region_d,region_cplus,"
              "region_cminus,pred_below,pred_above,comp_below,comp_above,"
              "eigs_below,eigs_above,agree,error")


# ---------------------------------------------------------------------------
# run configuration


def _finite(name: str, v: float) -> None:
    if not math.isfinite(v):
        raise ValidationError("must be finite", name)


@dataclass(frozen=True)
class RunConfig:
    gamma: float = 1.0
    lam: float = 0.0
    mu: float = 0.0
    K: tuple[float, float] = (0.0, 0.0)
    grid_N: int = 256
    lambda_range: tuple[float, float] | None = None
    mu_range: tuple[float, float] | None = None
    step: float | None = None
    K_list: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    workers: int = 1
    out: str | None = None

    def validate(self) -> "RunConfig":
        _finite("lambda", self.lam)
        _finite("mu", self.mu)
        if not 0.0 < self.gamma <= GAMMA_MAX:
            raise ValidationError(f"must be positive and at most {GAMMA_MAX:g}", "gamma")
        for v in self.K:
            _finite("K", v)
        if self.grid_N < 16:
            raise ValidationError("must be at least 16", "grid_N")
        if self.grid_N % 2:
            raise ValidationError("must be even", "grid_N")
        if self.step is not None:
            _finite("step", self.step)
            if self.step <= 0.0:
                raise ValidationError("must be positive", "step")
        for rng, name in ((self.lambda_range, "lambda_range"),
                          (self.mu_range, "mu_range")):
            if rng is not None:
                _finite(name, rng[0])
                _finite(name, rng[1])
                if rng[1] < rng[0]:
                    raise ValidationError("upper end below lower end", name)
        if self.workers < 1:
            raise ValidationError("must be at least 1", "workers")
        for pair in self.K_list:
            _finite("K_list", pair[0])
            _finite("K_list", pair[1])
        return self


def _parse_pair(text: str) -> tuple[float, float]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected lo:hi, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_k_list(text: str) -> tuple[tuple[float, float], ...]:
    pairs = [p for p in text.split(";") if p.strip()]
    if not pairs:
        raise ValueError("empty K list")
    return tuple(_parse_pair(p) for p in pairs)


# Every run setting, by config-file key: its command-line flag, its RunConfig
# field, the parser of its text and its help.  Both the config-file parser and
# the command-line options are built from this table.
_SETTINGS = {
    "gamma": ("--gamma", "gamma", float, "mass ratio, positive"),
    "lambda": ("--lambda", "lam", float, "on-site coupling"),
    "mu": ("--mu", "mu", float, "nearest-neighbour coupling"),
    "K": ("--K", "K", _parse_pair, "fiber quasi-momentum K1,K2"),
    "grid_N": ("--N", "grid_N", int, "oracle grid size, even, at least 16"),
    "lambda_range": ("--lambda-range", "lambda_range", _parse_range, "LO:HI"),
    "mu_range": ("--mu-range", "mu_range", _parse_range, "LO:HI"),
    "step": ("--step", "step", float, "grid step of both ranges"),
    "K_list": ("--K-list", "K_list", _parse_k_list, "fibers K1,K2;K1,K2;..."),
    "workers": ("--workers", "workers", int, "worker processes"),
    "out": ("--out", "out", str.strip, "CSV file; standard output if unset"),
}


def parse_config(text: str) -> RunConfig:
    """Parse a `key = value` document into a validated RunConfig.

    Blank lines and `#` comments are skipped; unknown keys are rejected.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SETTINGS:
            raise ParseError(f"unknown key {key!r}", lineno)
        _, attr, conv, _ = _SETTINGS[key]
        try:
            values[attr] = conv(val)
        except ValidationError:
            raise
        except ValueError as exc:
            raise ParseError(f"bad value for {key!r}: {exc}", lineno) from None
    return RunConfig(**values).validate()


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _sanitize(text: str) -> str:
    return text.replace("\n", " ").replace("\r", " ").replace(",", ";")


def emit_csv(rows, out) -> None:
    """Write sweep rows as CSV (fixed header, 12 significant digits, LF)."""

    def write_all(fh) -> None:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            lbl = r.label
            pred = r.pred
            cells = [
                _fmt(r.lam), _fmt(r.mu), _fmt(r.gamma),
                _fmt(r.K.p1), _fmt(r.K.p2),
                lbl.s_region if lbl else "", lbl.d_region if lbl else "",
                lbl.c_plus if lbl else "", lbl.c_minus if lbl else "",
                str(pred.n_below_k0) if pred else "",
                str(pred.n_above_k0) if pred else "",
                str(r.comp_below) if r.comp_below is not None else "",
                str(r.comp_above) if r.comp_above is not None else "",
                ";".join(_fmt(z) for z in r.eigs_below),
                ";".join(_fmt(z) for z in r.eigs_above),
                "true" if r.agree else "false",
                _sanitize(r.error),
            ]
            fh.write(",".join(cells) + "\n")

    if isinstance(out, (str, bytes)):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            write_all(fh)
    else:
        write_all(out)


# ---------------------------------------------------------------------------
# subcommands


def _params(cfg: RunConfig) -> ModelParams:
    return ModelParams(gamma=cfg.gamma, lam=cfg.lam, mu=cfg.mu)


def _point(cfg: RunConfig) -> TorusPoint:
    return TorusPoint(*cfg.K)


def _print_spectrum(rep: SpectrumReport) -> None:
    band = rep.band
    print(f"band: [{_fmt(band.e_min)}, {_fmt(band.e_max)}]"
          + ("  (degenerate)" if band.degenerate else ""))
    for side_name, evs in (("below", rep.below), ("above", rep.above)):
        if not evs:
            print(f"{side_name}: none")
            continue
        parts = []
        for ev in evs:
            tag = f"x{ev.multiplicity}[{ev.factor.value}]"
            if ev.pinned:
                tag += "(edge-model)"
            parts.append(f"{_fmt(ev.z)}{tag}")
        print(f"{side_name} ({sum(e.multiplicity for e in evs)}): "
              + ", ".join(parts))


def _cmd_edges(cfg: RunConfig) -> int:
    band = band_edges(_point(cfg), _params(cfg))
    print(f"E_min = {_fmt(band.e_min)} at ({_fmt(band.argmin.p1)}, "
          f"{_fmt(band.argmin.p2)})")
    print(f"E_max = {_fmt(band.e_max)} at ({_fmt(band.argmax.p1)}, "
          f"{_fmt(band.argmax.p2)})")
    print(f"width = {_fmt(band.width)}"
          + ("  (degenerate point spectrum)" if band.degenerate else ""))
    return 0


def _cmd_integrals(cfg: RunConfig, z: float | None, side: str | None,
                   delta: float | None) -> int:
    if z is not None:
        _finite("z", z)
        s = watson_integrals(z, cfg.gamma)
    else:
        if side is None or delta is None:
            raise ValidationError("need either z or side+delta", "z")
        _finite("delta", delta)
        s = watson_integrals_at(Side(side), delta, cfg.gamma)
    for name in "abcef":
        print(f"{name} = {_fmt(getattr(s, name))}")
    print(f"z = {_fmt(s.z)}")
    return 0


def _cmd_det(cfg: RunConfig, z: float) -> int:
    _finite("z", z)
    params = _params(cfg)
    K = _point(cfg)
    if K == ORIGIN:
        s = watson_integrals(z, params.gamma)
        print(f"even_main = {_fmt(factor_value(FactorKind.MAIN_EVEN, s, params))}")
        print(f"even_sub  = {_fmt(factor_value(FactorKind.SUB_EVEN, s, params))}")
        print(f"odd       = {_fmt(factor_value(FactorKind.ODD, s, params) ** 2)}")
    print(f"det = {_fmt(secular_det(z, K, params))}")
    return 0


def _cmd_spectrum(cfg: RunConfig) -> int:
    params, K = _params(cfg), _point(cfg)
    rep = spectrum_k0(params) if K == ORIGIN else spectrum_general(K, params)
    _print_spectrum(rep)
    return 0


def _cmd_classify(cfg: RunConfig) -> int:
    label = atlas.classify(_params(cfg))
    pred = atlas.predicted_counts(label)
    thr = label.thresholds
    print(f"regions: {label.s_region} {label.d_region} {label.c_plus} "
          f"{label.c_minus}   (S+ = {_fmt(label.s_plus)}, "
          f"S- = {_fmt(label.s_minus)})")
    print(f"thresholds: t_s = {_fmt(thr.t_s)}, t_d = {_fmt(thr.t_d)}")
    print(f"predicted at K=0: below = {pred.n_below_k0}, "
          f"above = {pred.n_above_k0}")
    print(f"lower bounds for K != 0: below >= {pred.lower_bound_below_k}, "
          f"above >= {pred.lower_bound_above_k}"
          + ("  (above exact)" if pred.exact_above_all_k else "")
          + ("  (below exact)" if pred.exact_below_all_k else ""))
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    if cfg.lambda_range is None or cfg.mu_range is None or cfg.step is None:
        raise ValidationError("sweep needs lambda_range, mu_range and step",
                              "lambda_range")
    rows = atlas.sweep(cfg.lambda_range, cfg.mu_range, cfg.step,
                       gamma=cfg.gamma,
                       K_list=[TorusPoint(*k) for k in cfg.K_list],
                       workers=cfg.workers)
    if cfg.out:
        emit_csv(rows, cfg.out)
        n_bad = sum(1 for r in rows if not r.agree)
        print(f"{len(rows)} rows -> {cfg.out} ({n_bad} disagreements)")
    else:
        emit_csv(rows, sys.stdout)
    return 0


def _cmd_oracle(cfg: RunConfig, dense: bool) -> int:
    params = _params(cfg)
    K = _point(cfg)
    rep = (oracle.dense_validate(K, params, n=min(cfg.grid_N, 48)) if dense
           else oracle.oracle_counts(K, params, n=cfg.grid_N))
    _print_spectrum(rep)
    return 0


# ---------------------------------------------------------------------------
# verify


def _check(name: str, ok: bool, detail: str = "") -> tuple[str, bool, str]:
    mark = "ok" if ok else "FAIL"
    print(f"[{mark}] {name}" + (f": {detail}" if detail else ""))
    return name, ok, detail


def _verify() -> int:
    checks: list[tuple[str, bool, str]] = []
    gammas = (0.5, 1.0, 2.0)

    # moment identities on both sides; the moments against the plain grid sum
    worst = excess = 0.0
    for gamma in gammas:
        g = 1.0 + gamma
        for z in (-0.7, 4.0 * g + 0.9, -3.1, 4.0 * g + 2.3):
            s = watson_integrals(z, gamma)
            r1 = abs(s.a - (s.c + s.f))
            r2 = abs(2.0 * g * (s.a - s.b) - (1.0 + z * s.a))
            r3 = abs(s.c + s.e - s.b * (2.0 - z / g))
            scale = max(1.0, abs(s.a))
            worst = max(worst, r1 / scale, r2 / scale, r3 / scale)
            grid = watson_integrals_grid(z, gamma).as_array()
            excess = max(excess, *(abs(x - y) / (1e-10 * abs(y) + 1e-12)
                                   for x, y in zip(s.as_array(), grid)))
    checks.append(_check("moment identities", worst < 1e-9, f"worst {worst:.2e}"))
    checks.append(_check("moments vs grid sum", excess <= 1.0,
                         f"worst {excess:.2e} of rtol 1e-10, atol 1e-12"))

    # the general-fiber Gram matrix against the plain mean of m_i m_j / (E - z)
    # over a 128 x 128 torus grid, which uses no reduction: fibers with
    # R1 > R2, R1 < R2 and R2 = 0, at distances where the mean converges
    # exponentially; both Gram-matrix regimes run.  The solver's curves, read
    # from the parity blocks, against the curves of the mean; above the band
    # the curves at (lam, mu) are those of (-J, -G), the blocks' at (-lam, -mu)
    worst = worst_curves = 0.0
    for gamma, k in ((2.0, (0.4, 2.2)), (2.0, (2.2, 0.4)), (1.0, (0.9, math.pi))):
        params, K = ModelParams(gamma), TorusPoint(*k)
        band, grid = band_edges(K, params), oracle.GridModel.build(K, params, 128)
        modes, diag = grid.modes, grid.diag
        for d in (0.5, 3.0):
            blocks = gram_blocks(K, gamma, d)
            for side, z in ((Side.BELOW, band.e_min - d), (Side.ABOVE, band.e_max + d)):
                j = secular_entries(K, gamma, side, d)
                mean = (modes / (diag - z)) @ modes.T
                worst = max(worst, float(np.max(np.abs(j - mean)) / np.max(np.abs(mean))))
                sign = 1.0 if side is Side.BELOW else -1.0
                for lam, mu in ((6.0, 10.0), (-3.0, 2.0)):
                    below = ModelParams(gamma, sign * lam, sign * mu)
                    curves = spectrum._fiber_curves(K, below, d, blocks)
                    ref = spectrum._threshold_count(sign * mean, interaction_weights(below))[1]
                    err = np.max(np.abs(np.subtract(curves, ref))) / np.max(np.abs(ref))
                    worst_curves = max(worst_curves, float(err))
    checks.append(_check("Gram matrix vs grid sum", worst < 1e-12,
                         f"worst {worst:.2e} of max|J|, bound 1e-12"))
    checks.append(_check("general-fiber curves vs grid sum", worst_curves < 1e-12,
                         f"worst {worst_curves:.2e} of max|eta|, bound 1e-12"))

    # exact edge models against the moments at distance 1e-7, where the
    # neglected d*ln(d) terms are below 2e-7 for gamma >= 0.5
    for gamma in gammas:
        worst = max(abs(getattr(watson_integrals_at(side, 1e-7, gamma), q)
                        - predicted_asymptote(q, side, gamma).value_at(1e-7))
                    for side in Side for q in "abcef")
        checks.append(_check(f"edge constants (gamma={gamma:g})", worst < 1e-6,
                             f"worst {worst:.2e}"))

    # decoupled-even threshold adjudication
    scan = atlas.threshold_scan(1.0)
    checks.append(_check(
        "decoupled-even threshold",
        scan.matches_computed,
        f"appears at mu={scan.appearance_mu:.3f}; candidates "
        f"{scan.candidate_published:.4f} / {scan.candidate_computed:.4f}"))

    # reference spectra at zero quasimomentum
    expected = {(1.0, 10.0): (0, 4), (6.0, 10.0): (0, 5), (1.0, 6.0): (0, 3),
                (-1.0, 0.0): (1, 0), (0.0, -12.0): (4, 0)}
    for (lam, mu), (nb, na) in expected.items():
        rep = spectrum_k0(ModelParams(1.0, lam, mu))
        ok = (rep.n_below, rep.n_above) == (nb, na)
        checks.append(_check(f"counts at ({lam:g},{mu:g})", ok,
                             f"{rep.n_below}/{rep.n_above} expected {nb}/{na}"))

    # continuum vs discrete oracle
    for lam, mu in ((1.0, 10.0), (0.0, -12.0)):
        params = ModelParams(1.0, lam, mu)
        orep = oracle.oracle_counts(TorusPoint(0.0, 0.0), params, n=128)
        crep = spectrum_k0(params)
        ok = (orep.n_below, orep.n_above) == (crep.n_below, crep.n_above)
        checks.append(_check(f"grid oracle agreement ({lam:g},{mu:g})", ok))
    # general-fiber path against the zero-fiber path
    params = ModelParams(1.0, 6.0, 10.0)
    grep = spectrum_general(TorusPoint(1.0, 0.5), params)
    checks.append(_check("top-region count at K=(1,0.5)",
                         grep.n_above == 5, f"{grep.n_above}"))

    failed = [c for c in checks if not c[1]]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 4 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticebound",
        description="Bound states of a two-particle lattice pair operator "
                    "with a rank-five interaction.")
    parser.add_argument("--config", help="key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    # no abbreviations: sweep must not read --K, --lambda or --mu as a
    # prefix of --K-list, --lambda-range or --mu-range
    def command(name: str, text: str, *keys: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        for key in keys:
            flag, dest, conv, help_text = _SETTINGS[key]
            p.add_argument(flag, dest=dest, type=conv, default=None, help=help_text)
        return p

    # each command takes only the settings it reads
    fiber = ("gamma", "lambda", "mu", "K")
    command("edges", "band interval of one fiber", "gamma", "K")
    p_int = command("integrals", "resolvent moments at an energy", "gamma")
    p_int.add_argument("--z", type=float, default=None)
    p_int.add_argument("--side", choices=[s.value for s in Side], default=None)
    p_int.add_argument("--delta", type=float, default=None)
    p_det = command("det", "secular determinant factors", *fiber)
    p_det.add_argument("--z", type=float, required=True)
    command("spectrum", "bound states of one fiber", *fiber)
    command("classify", "coupling-plane region and counts", "gamma", "lambda", "mu")
    command("sweep", "grid sweep to CSV", "gamma", "lambda_range", "mu_range", "step",
            "K_list", "workers", "out")
    p_orc = command("oracle", "discrete-grid reference spectrum", *fiber, "grid_N")
    p_orc.add_argument("--dense", action="store_true",
                       help="full dense eigensolve instead of the secular scan")
    sub.add_parser("verify", help="run the self-check suite")
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    return replace(cfg, **overrides).validate()


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.command == "verify":
            return _verify()
        cfg = _merge_config(args)
        if args.command == "edges":
            return _cmd_edges(cfg)
        if args.command == "integrals":
            return _cmd_integrals(cfg, args.z, args.side, args.delta)
        if args.command == "det":
            return _cmd_det(cfg, args.z)
        if args.command == "spectrum":
            return _cmd_spectrum(cfg)
        if args.command == "classify":
            return _cmd_classify(cfg)
        if args.command == "sweep":
            return _cmd_sweep(cfg)
        if args.command == "oracle":
            return _cmd_oracle(cfg, args.dense)
        parser.error(f"unknown command {args.command!r}")
    except (ParseError, ValidationError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
