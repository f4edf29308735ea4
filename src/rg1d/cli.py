"""Batch front-end: option tables, run orchestration, table emission.

Subcommands: prop, flow, exponents, nu, correlations, g1map, borel,
oracle.  Each subcommand has one declarative option table (oracle has one
per --what mode, because the modes' defaults differ).  The table is the
single source of option names, types, defaults and rules: it builds the
argument parser, and an option's flag name is also its config key.  A
value comes from the command-line flag, else from the INI config file
(flat key=value under a section named after the subcommand, then the
shared [model] section), else from the table default, and must then pass
its row's rule (a choice list or a bound); a float value must be finite.

Every run writes <out-dir>/<command>.csv plus <out-dir>/<command>_summary.txt,
a flat sorted key=value file that is also echoed to stdout.  Identical
(config, seed) pairs produce byte-identical outputs: numbers print with a
fixed %.12g format and summaries are key-sorted.

Exit codes: 0 ok; 2 config error (a bad flag, config entry or input file,
or a value that breaks its rule), with one "config error:" line on stderr;
3 numeric failure; 4 invariant check failure (the summary, failing checks
included, is written before exiting).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import math
import operator
import os
import sys
import warnings
from typing import NamedTuple

import numpy as np

from . import correlations, g1map, nusolver, oracle, propagators, renorm, rgflow
from .model import (InteractionPotential, ModelParams, MomentumGrids, check_positivity,
                    on_site_potential, u_v_potential)

_FMT = "%.12g"


class ConfigError(Exception):
    pass


class Opt(NamedTuple):
    """One option: flag name and config key, type, default, rule, the
    summary key it is reported under (None: not reported) and help text.

    rule is one (op, bound) pair or a tuple of them; op is "in" with a
    tuple of choices (every item of a comma list must be one), or a
    comparison "<", "<=", ">", ">=" against a number or another option's
    name.  None values (derived defaults) skip the rule."""

    name: str
    type: object
    default: object = None
    rule: tuple = ()
    key: str | None = None
    help: str | None = None


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "in": lambda item, choices: item in choices}


# ----------------------------------------------------------------------
# option plumbing
# ----------------------------------------------------------------------


@contextlib.contextmanager
def _config_phase():
    """Re-tag input-construction failures so they exit with code 2."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, KeyError, OSError, configparser.Error) as exc:
        raise ConfigError("; ".join(str(exc).splitlines()))


def _load_config(path):
    cfg = configparser.ConfigParser()
    if path is not None and not cfg.read(path):
        raise ConfigError("config file not found: %s" % path)
    return cfg


def _names(text):
    """A comma-separated list option."""
    return tuple(text.split(","))


def _rules(opt):
    """A row's rule as a tuple of (op, bound) pairs."""
    return (opt.rule,) if opt.rule and isinstance(opt.rule[0], str) else opt.rule


def _resolve(table, args, cfg, section):
    """Option values by precedence: command-line flag, then [section] and
    [model] in the config file, then the table default; each value is then
    checked against its row's rule, and every float value must be finite."""
    values = {}
    for opt in table:
        val = getattr(args, opt.name.replace("-", "_"))
        if val is None:
            val = opt.default
            for sec in (section, "model"):
                if cfg.has_option(sec, opt.name):
                    try:
                        val = opt.type(cfg.get(sec, opt.name))
                    except ValueError as exc:
                        raise ConfigError("[%s] %s: %s" % (sec, opt.name, exc))
                    break
        values[opt.name] = val
    for opt in table:
        val = values[opt.name]
        if opt.type is float and val is not None and not math.isfinite(val):
            raise ConfigError("%s must be finite, got %s" % (opt.name, _fmt(val)))
        for op, bound in _rules(opt) if val is not None else ():
            limit = values[bound] if isinstance(bound, str) else bound
            items = val if isinstance(val, tuple) else (val,)
            if not all(_COMPARE[op](item, limit) for item in items):
                raise ConfigError("%s must be %s %s, got %s" % (
                    opt.name, op, _fmt(bound), _fmt(val)))
    return values


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _FMT % v
    if isinstance(v, complex):
        return (_FMT + "%+sj") % (v.real, _FMT % v.imag)
    if isinstance(v, tuple):
        return ",".join(_fmt(x) for x in v)
    return str(v)


def _parse_grid(text):
    """start:stop:step, endpoints inclusive up to roundoff."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("grid must be start:stop:step, got %r" % text)
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError("grid start, stop and step must be finite, got %r" % text)
    if step == 0.0:
        raise ConfigError("grid step must be nonzero")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    if n <= 0:
        raise ConfigError("empty grid %r" % text)
    return [start + i * step for i in range(n)]


def _potential_from(spec):
    """hubbard[:U] | uv:U:V | path to a potential file."""
    if spec is None or spec == "hubbard":
        return on_site_potential(1.0)
    if spec.startswith("hubbard:"):
        return on_site_potential(float(spec.split(":")[1]))
    if spec.startswith("uv:"):
        _, u, v = spec.split(":")
        return u_v_potential(float(u), float(v))
    return InteractionPotential.from_file(spec)


# Every command returns (csv header, csv rows, summary, checks): summary
# holds the computed keys (main adds the reported options), checks maps
# name -> (passed, margin), or is None for a command without checks.

COMMON = (Opt("out-dir", str, ".", help="output directory"),)
SEED = Opt("seed", int, rule=(">=", 0), key="seed",
           help="seed for any stochastic lanes")
# argparse reads a value that starts with "-" as a flag
GRID_HELP = ("start:stop:step; a negative start needs the = form, "
             "--lambda-grid=-0.02:0.02:0.01")


# ----------------------------------------------------------------------
# prop: free-propagator tables and representation equivalence
# ----------------------------------------------------------------------

PROP_MAX_K0 = 2 ** 22   # cutoff-grid frequency cap, about 100x the default 41722
PROP = (
    Opt("mu", float, 0.5, key="mu"),
    Opt("beta", float, 64.0, key="beta"),
    Opt("L", int, 256, key="L"),
    Opt("M", int, 10, (">=", 1), key="M"),
    Opt("gamma", float, 2.0, key="gamma"),
    Opt("points", str, help="file of 'x x0' rows"),
)


def cmd_prop(o):
    beta = o["beta"]
    with _config_phase():
        params = ModelParams(lam=0.0, mu_bar=o["mu"],
                             potential=on_site_potential(1.0), beta=beta,
                             L=o["L"], gamma=o["gamma"], M_uv=o["M"])
        if o["points"] is None:
            points = [(x, 0.0) for x in range(9)] + [(x, 0.37 * beta) for x in range(5)]
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)   # a file with no rows
                try:
                    table = np.loadtxt(o["points"], comments="#", ndmin=2)
                except UserWarning as exc:
                    raise ConfigError(str(exc))
            points = [(int(x), float(x0)) for x, x0 in table]
        for x, x0 in points:
            if not -beta < x0 < beta:
                raise ConfigError("point (%d, %g) outside the x0 domain "
                                  "(-beta, beta)" % (x, x0))
        with np.errstate(over="ignore"):   # gamma^(M+1) is inf past the float range
            top = np.float64(o["gamma"]) ** (o["M"] + 1)
        n_k0 = MomentumGrids(params.L, beta).matsubara_count(top)
        if n_k0 > PROP_MAX_K0:
            raise ConfigError("the cutoff grid at M = %d has %s frequencies, over the cap %d"
                              % (o["M"], _fmt(n_k0), PROP_MAX_K0))

    by_x0 = {}   # x0 bits (-0.0 apart from 0.0) -> indices of its points
    for i, (_, x0) in enumerate(points):
        by_x0.setdefault(x0.hex(), []).append(i)
    g = np.empty((len(points), 2), dtype=complex)   # kernel_sum, cutoff_sum
    for idx in by_x0.values():
        xs, x0 = np.array([points[i][0] for i in idx]), points[idx[0]][1]
        for j, rep in enumerate(("kernel_sum", "cutoff_sum")):
            g[idx, j] = propagators.free_propagator(xs, x0, params, representation=rep)
    rows, worst = [], 0.0
    for (x, x0), (gk, gc) in zip(points, g.tolist()):
        flagged = propagators.is_discontinuity_point(x, x0, beta)
        diff = abs(gk - gc)
        if not flagged:
            worst = max(worst, diff)
        rows.append((x, x0, gk.real, gk.imag, gc.real, gc.imag, diff, int(flagged)))
    return (("x", "x0", "kernel_re", "kernel_im", "cutoff_re", "cutoff_im",
             "abs_diff", "discontinuity"), rows,
            {"points": len(points), "max_equiv_diff": worst,
             "gamma_minus_M": o["gamma"] ** -o["M"]}, None)


# ----------------------------------------------------------------------
# flow: coupling trajectories with inequality checks
# ----------------------------------------------------------------------

FLOW = (
    SEED,
    Opt("lambda", float, 0.02, key="lambda"),
    Opt("pF", float, math.pi / 3.0, key="p_F"),
    Opt("beta", float, 1024.0),
    Opt("L", int, 1024),
    Opt("h", int, -5000, ("<=", 0), key="target_h", help="target scale (negative)"),
    Opt("remainders", str, "none",
        ("in", ("none", "theta_tail", "finite_size", "both")), key="remainders"),
    Opt("a-mode", str, "exact_limit", ("in", ("exact_limit", "finite_scale")),
        help="finite_scale needs --h >= the box scale h_{L,beta}"),
    Opt("h-lbeta", int, help="box scale (default: the target scale)"),
    Opt("potential", str),
)


def cmd_flow(o):
    target_h = o["h"]
    with _config_phase():
        params = ModelParams.from_p_F(o["lambda"], o["pF"],
                                      _potential_from(o["potential"]),
                                      o["beta"], o["L"])
        # below the box scale no shell is left: a_j = 0 and bAj fails
        h_box = propagators.finite_size_scale(o["beta"], o["L"], params.fermi())
        if o["a-mode"] == "finite_scale" and target_h < h_box:
            raise ConfigError("h must be >= the box scale h_{L,beta} = %d with "
                              "--a-mode finite_scale, got %d" % (h_box, target_h))
        h_lbeta = target_h if o["h-lbeta"] is None else o["h-lbeta"]
        cfg = rgflow.BetaConfig(remainder_model=o["remainders"],
                                a_mode=o["a-mode"], seed=o["seed"],
                                h_lbeta=h_lbeta)

    traj = rgflow.run_flow(params, cfg, target_h)
    rows = []
    for i in range(traj.couplings.shape[0]):
        j = -i
        c = traj.couplings[i]
        gt = traj.g1_approximant(j)
        rows.append((j, c[0].real, c[1].real, c[2].real, c[3].real, c[4].real,
                     traj.eps[i], traj.a_seq[i], gt.real,
                     abs(c[0] - gt)))
    summary = {
        "a": traj.a, "j0": traj.j0, "h_star": traj.h_star,
        "h_lbeta": traj.h_lbeta, "escaped_at": traj.escaped_at,
        "scales": traj.couplings.shape[0],
    }
    checks = {name: (res.ok, res.worst_margin)
              for name, res in traj.checks.items()}
    checks["reached_target"] = (
        traj.escaped_at is None,
        0.0 if traj.escaped_at is None else float(traj.escaped_at - target_h))
    return (("j", "g1", "g2", "g4", "delta", "nu", "eps", "a_j", "g1_approx",
             "g1_approx_err"), rows, summary, checks)


# ----------------------------------------------------------------------
# exponents: lambda sweep of the critical-exponent table
# ----------------------------------------------------------------------

EXPONENTS = (
    Opt("lambda-grid", str, "0.01:0.05:0.01", key="lambda_grid",
        help=GRID_HELP),
    Opt("pF", float, math.pi / 3.0, key="p_F"),
    Opt("beta", float, 4096.0),
    Opt("L", int, 4096),
    Opt("h", int, -400, ("<=", 0)),
    Opt("potential", str, "hubbard", key="potential"),
)


def _fixed_point(params, h):
    """Flow without remainders down to scale h, taken as the box scale, then
    its fixed-point limits and first-order exponents."""
    traj = rgflow.run_flow(params, rgflow.BetaConfig(h_lbeta=h), h)
    limits = rgflow.fixed_point_values(traj, params)
    return traj, limits, renorm.exponents(params, limits)


def cmd_exponents(o):
    with _config_phase():
        pot = _potential_from(o["potential"])
        # every model is built here, so a bad one exits 2 before any numeric work
        models = [ModelParams.from_p_F(lam, o["pF"], pot, o["beta"], o["L"])
                  for lam in _parse_grid(o["lambda-grid"])]

    results = []
    for params in models:
        _, limits, ex = _fixed_point(params, o["h"])
        results.append((params.lam, params.fermi().p_F, ex.eta["z"], ex.eta["C"],
                        ex.eta["S"], ex.eta["SC"], ex.eta["TC"], ex.X["C"], ex.X["S"],
                        ex.X["SC"], ex.X["TC"], ex.X_tilde_SC, ex.f_lambda,
                        ex.c_coefficient,
                        abs(limits.g2_inf - limits.g2_first_order)))
    # a negative-step grid still prints in ascending lambda
    results.sort(key=lambda r: r[0])

    # The gap |g2_inf - g2_first_order| is the difference of two O(lambda)
    # numbers, so its roundoff bar is 4 eps |lambda| (2 |vhat(0)| + |vhat(2 p_F)|).
    # The ratio is taken only where the gate's 3 |lambda|^{3/2} clears that
    # bar, which leaves out lambda = 0 and the |lambda| whose gap is roundoff.
    bar = [4.0 * np.finfo(float).eps * abs(r[0]) * (
        2.0 * abs(pot.fourier(0.0)) + abs(pot.fourier(2.0 * r[1]))) for r in results]
    worst = max((r[-1] / abs(r[0]) ** 1.5 for r, b in zip(results, bar)
                 if 3.0 * abs(r[0]) ** 1.5 > b), default=0.0)
    summary = {
        "points": len(results),
        "c_coefficient": results[0][13],
        "worst_fixed_point_gap_over_lam32": worst,
    }
    return (("lambda", "p_F", "eta_z", "eta_2C", "eta_2S", "eta_2SC",
             "eta_2TC", "X_C", "X_S", "X_SC", "X_TC", "X_tilde_SC",
             "f_lambda", "c_coefficient", "fixed_point_gap"), results, summary,
            {"fixed_point_first_order": (worst <= 3.0, worst - 3.0)})


# ----------------------------------------------------------------------
# nu: counterterm fixed points and chemical-potential inversion
# ----------------------------------------------------------------------

NU = (
    Opt("lambda", float, 0.02),
    Opt("lambda-grid", str, help=GRID_HELP + " (default: --lambda alone)"),
    Opt("mu", float, 0.5, ((">", -1.0), ("<", 1.0)), key="mu_bar"),
    Opt("h-box", int, -40, ("<=", 1), key="h_box"),
    Opt("eps-scale", float, 2.0, (">", 0), key="eps_scale"),
    Opt("c0", float, 0.25, (">", 0), key="c0"),
    Opt("tol", float, 1e-12, (">", 0)),
)


def cmd_nu(o):
    with _config_phase():
        grid = o["lambda-grid"]
        lams = _parse_grid(grid) if grid else [o["lambda"]]

    tol = o["tol"]
    rows = nusolver.inversion_rows(lams, o["mu"], o["h-box"],
                                   eps_scale=o["eps-scale"], c0=o["c0"], tol=tol)
    worst_ratio = max(r[5] for r in rows)
    worst_res = max(r[6] for r in rows)
    summary = {"points": len(rows), "worst_contraction_ratio": worst_ratio,
               "worst_residual": worst_res}
    return (("lambda", "mu_bar", "p_F", "nu1", "iterations",
             "contraction_ratio", "residual"), rows, summary, {
        "contraction": (worst_ratio < 1.0, worst_ratio - 1.0),
        "residual": (worst_res <= 100.0 * tol, worst_res - 100.0 * tol),
    })


# ----------------------------------------------------------------------
# correlations: assembled response functions against closed forms
# ----------------------------------------------------------------------

CORRELATIONS = (
    SEED._replace(default=0),
    Opt("lambda", float, 0.0, key="lambda"),
    Opt("pF", float, math.pi / 3.0, key="p_F"),
    Opt("beta", float, 1e9),
    Opt("L", int, 10 ** 9),
    Opt("x-min", float, 10.0, (">=", 1)),
    Opt("x-max", float, 400.0, (">=", "x-min")),
    Opt("x-count", int, 40, (">=", 1)),
    Opt("x-spacing", str, "log", ("in", ("log", "linear"))),
    Opt("x0", float, 0.0, key="x0"),
    Opt("alphas", _names, correlations.CHANNELS, ("in", correlations.CHANNELS)),
    Opt("tail", float, 1e-3, ((">", 0), ("<", 1))),
    Opt("residuals", str, "none", ("in", ("none", "envelope")), key="residuals"),
    Opt("potential", str),
)


def cmd_correlations(o):
    lam, x0, alphas, tail = o["lambda"], o["x0"], o["alphas"], o["tail"]
    with _config_phase():
        params = ModelParams.from_p_F(lam, o["pF"],
                                      _potential_from(o["potential"]),
                                      o["beta"], o["L"])
        fermi = params.fermi()
        # the exponents and closed forms hold under the positivity hypothesis
        if not check_positivity(params, fermi):
            raise ConfigError("lambda * vhat(2 p_F) must be >= 0, got %s"
                              % _fmt(lam * params.potential.fourier(2.0 * fermi.p_F)))

    spread = np.geomspace if o["x-spacing"] == "log" else np.linspace
    xs = np.unique(np.round(spread(o["x-min"], o["x-max"], o["x-count"])).astype(int))
    xt_max = math.hypot(float(xs.max()), fermi.v_F * x0)
    depth = int(math.ceil(math.log(xt_max / tail) / math.log(fermi.gamma))) + 4

    # the flow draws no remainders: the seed reaches only the Zhat residuals
    traj, limits, ex = _fixed_point(params, -depth)
    rset = renorm.z_flow(traj, limits, residual_mode=o["residuals"],
                         seed=o["seed"])
    ztab = correlations.z_tables(rset, ex, fermi.gamma)
    rows = correlations.correlation_rows(xs, alphas, ztab, ex, fermi, x0=x0,
                                         rset=rset, tail=tail)

    summary = {
        "points": len(xs), "depth": depth,
        "X_C": ex.X["C"], "X_S": ex.X["S"], "X_SC": ex.X["SC"],
        "X_TC": ex.X["TC"], "f_lambda": ex.f_lambda,
    }
    checks = {}
    for alpha in alphas:
        sub = [r for r in rows if r[0] == alpha and abs(r[1]) >= 100.0]
        if sub:
            summary["worst_rel_%s" % alpha] = max(r[7] for r in sub)
    if lam > 0.0:
        budget = 10.0 * math.sqrt(lam)
        worst = max((summary.get("worst_rel_%s" % a, 0.0) for a in alphas))
        checks["closed_form_budget"] = (worst <= budget, worst - budget)
    if o["x-spacing"] == "linear" and x0 == 0.0 and xs.size >= 16:
        step = np.diff(xs)
        if step.max() == step.min():
            vals = np.array([r[3] for r in rows if r[0] == alphas[0]])
            peak, width = correlations.oscillation_peak(xs, vals)
            summary["peak_omega"] = peak
            summary["peak_bin_width"] = width
            summary["two_p_F"] = 2.0 * fermi.p_F
            checks["peak_at_2pF"] = (abs(peak - 2.0 * fermi.p_F) <= width,
                                     abs(peak - 2.0 * fermi.p_F) - width)
    return (("alpha", "x", "x0", "scale_sum_re", "scale_sum_im", "closed_re",
             "closed_im", "rel_err", "X_alpha", "zeta_est"), rows, summary,
            checks)


# ----------------------------------------------------------------------
# g1map: one perturbed quadratic-map trajectory
# ----------------------------------------------------------------------

G1MAP = (
    SEED._replace(default=0),
    Opt("g0-re", float, 0.01, key="g0_re"),
    Opt("g0-im", float, 0.0, key="g0_im"),
    Opt("a", float, 0.25, (">", 0), key="a"),
    Opt("n", int, 10 ** 4, (">=", 1), key="n"),
    Opt("model", str, "zero", ("in", g1map.SIGMA_MODELS), key="model"),
    Opt("delta", float, math.pi / 4.0, key="delta"),
    Opt("epsilon", float, key="epsilon", help="sector radius (default: 1.5 |g0|)"),
    Opt("sigma-scale", float, rule=(">=", 0), key="sigma_scale",
        help="perturbation size (default: from a, epsilon and |g0|)"),
)


def cmd_g1map(o):
    g0 = complex(o["g0-re"], o["g0-im"])
    a, n = o["a"], o["n"]
    if o["epsilon"] is None:
        o["epsilon"] = 1.5 * abs(g0)
    with _config_phase():
        dom = g1map.SectorDomain(o["epsilon"], o["delta"])
    if o["sigma-scale"] is None:
        o["sigma-scale"] = g1map.default_sigma_scale(a, o["epsilon"]) * abs(g0)

    sigma = g1map.sigma_sequence(o["model"], n, o["sigma-scale"], o["seed"])
    state = g1map.iterate(g0, a + sigma, n, dom)
    return (("n", "re_g", "im_g", "re_gtilde", "im_gtilde", "err", "bound"),
            g1map.trajectory_rows(state),
            {"escape_index": state.escape_index}, {
        "closeness": g1map.verify_closeness(state),
        "sector": g1map.verify_sector(state),
    })


# ----------------------------------------------------------------------
# borel: sector sweep over the analyticity domain
# ----------------------------------------------------------------------

BOREL = (
    SEED._replace(default=0),
    Opt("delta", float, math.pi / 4.0, key="delta"),
    Opt("rays", int, 32, (">=", 1), key="rays"),
    Opt("radii", int, len(g1map.RADII), ((">=", 1), ("<=", len(g1map.RADII))),
        key="radii"),
    Opt("n", int, 10 ** 5, (">=", 1), key="n_steps"),
    Opt("a", float, 0.25, (">", 0), key="a"),
    Opt("epsilon", float, key="epsilon",
        help="sector radius (default: g1map.default_eps0(delta))"),
    Opt("models", _names, g1map.SIGMA_MODELS, ("in", g1map.SIGMA_MODELS),
        key="models"),
)


def cmd_borel(o):
    with _config_phase():
        if o["epsilon"] is None:
            o["epsilon"] = g1map.default_eps0(o["delta"])
        g1map.SectorDomain(o["epsilon"], o["delta"])
        if not math.isfinite(g1map.drift_bound(o["a"], o["epsilon"], o["models"])):
            raise ConfigError("drift a_n = a + sigma_n must be finite, got a = %s and "
                              "epsilon = %s" % (_fmt(o["a"]), _fmt(o["epsilon"])))
    report = g1map.sweep_sector(o["delta"], o["epsilon"], n_rays=o["rays"],
                                n_radii=o["radii"], n_steps=o["n"], a=o["a"],
                                models=o["models"], seed=o["seed"])
    rows = [(ln.model, ln.g0.real, ln.g0.imag, int(ln.contained),
             int(ln.close), ln.first_violation if ln.first_violation is not None
             else -1, ln.max_ratio) for ln in report.lanes]
    summary = {"containment_fraction": report.containment_fraction,
               "closeness_fraction": report.closeness_fraction}
    return (("model", "g0_re", "g0_im", "contained", "close",
             "first_violation", "max_ratio"), rows, summary, {
        "containment": (report.containment_fraction == 1.0,
                        report.containment_fraction - 1.0),
        "closeness": (report.closeness_fraction == 1.0,
                      report.closeness_fraction - 1.0),
    })


# ----------------------------------------------------------------------
# oracle: brute-force reference runs
# ----------------------------------------------------------------------


def _oracle_bubble(o):
    h_lo = o["h-min"]
    with _config_phase():
        fermi = ModelParams.from_p_F(0.0, o["pF"], on_site_potential(1.0),
                                     64.0, 256, gamma=o["gamma"]).fermi()
    a = rgflow.bubble_constant(fermi)
    rows = []
    for h in range(o["h-max"], h_lo - 1, -2):
        v = oracle.bubble_quadrature(h, fermi)
        rows.append((h, v.value, v.error, (v.value - a) * abs(h)))
    rich = oracle.bubble_quadrature(h_lo, fermi, extrapolate=True)
    return (("h", "value", "error", "dev_times_h"), rows, {
        "a_exact": a, "richardson_value": rich.value,
        "richardson_error": rich.error, "richardson_vs_a": abs(rich.value - a),
    }, None)


def _oracle_wick(o):
    L, x0 = o["L"], o["x0"]
    with _config_phase():
        params = ModelParams(lam=0.0, mu_bar=o["mu"],
                             potential=on_site_potential(1.0),
                             beta=o["beta"], L=L)
        if not -params.beta < x0 < params.beta:
            raise ConfigError("x0 must lie in (-beta, beta), got %s" % _fmt(x0))
    rows = []
    for alpha in oracle.RESPONSE_CHANNELS:
        for x in range(1, min(L // 2, 12)):
            v = oracle.wick_free_response(x, alpha, params, x0=x0)
            rows.append((alpha, x, x0, v.value, v.error))
    return (("alpha", "x", "x0", "value", "error"), rows, {"rows": len(rows)},
            None)


def _oracle_ed(o):
    L, beta, lam = o["L"], o["beta"], o["lambda"]
    with _config_phase():
        params = ModelParams(lam=lam, mu_bar=o["mu"],
                             potential=_potential_from(o["potential"]),
                             beta=beta, L=L)
    ed = oracle.ed_micro(params)
    free = params.with_(lam=0.0)
    rows = []
    taus = (0.0, 0.25 * beta, 0.7 * beta, -0.4 * beta)
    for alpha in oracle.RESPONSE_CHANNELS:
        table = ed.response(alpha, taus)
        for x in range(L):
            for tau, got in zip(taus, table[x].tolist()):
                ref = oracle.wick_free_response(x, alpha, free, x0=tau).value
                rows.append((alpha, x, tau, got, ref, abs(got - ref)))
    summary = {"ground_energy": float(ed.spectrum()[0]), "filling": ed.filling(),
               "two_point_vs_kernel": "n/a"}
    checks = {}
    if lam == 0.0:   # the kernel is the free propagator only at lambda = 0
        two_point = ed.two_point(taus)
        worst_free = max(abs(g - oracle.free_g(x, tau, free)) for x in range(L)
                         for tau, g in zip(taus, two_point[x].tolist()))
        summary["two_point_vs_kernel"] = worst_free
        checks["free_kernel_match"] = (worst_free <= 1e-12, worst_free - 1e-12)
    # the mirror must be a model too: mu_bar' inside (-1, 1), as ModelParams asks
    if L % 2 == 0 and -1.0 < oracle.particle_hole_mirror(params)[0] < 1.0:
        gap = oracle.particle_hole_gap(ed)
        summary["particle_hole_gap"] = gap
        checks["particle_hole"] = (gap <= 1e-10, gap - 1e-10)
    return (("alpha", "x", "tau", "ed", "wick_free", "abs_diff"), rows,
            summary, checks)


def _oracle_map(o):
    g0 = complex(o["g0-re"], o["g0-im"])
    a, n = o["a"], o["n"]
    traj, val = oracle.mp_map_trajectory(g0, a, n)
    state = g1map.iterate(g0, a, n)
    drift = np.abs(state.trajectory - traj)
    stride = max(1, n // 32)
    rows = [(k, traj[k].real, traj[k].imag, float(drift[k]))
            for k in range(0, n + 1, stride)]
    return (("n", "re_g_mp", "im_g_mp", "float_drift"), rows, {
        "final_drift": float(drift[-1]), "max_drift": float(drift.max()),
        "mp_error_bar": val.error,
    }, None)


# --what -> (run, option table)
ORACLE_MODES = {
    "bubble": (_oracle_bubble, (
        Opt("pF", float, math.pi / 3.0, key="p_F"),
        Opt("gamma", float, 2.0, key="gamma"),
        # the Richardson estimate also evaluates scale ceil(h-min / 2)
        Opt("h-min", int, -16, (("<=", "h-max"),
                                ("<=", 2 * oracle.BUBBLE_MAX_H))),
        Opt("h-max", int, -8, ("<=", oracle.BUBBLE_MAX_H)),
    )),
    "wick": (_oracle_wick, (
        Opt("mu", float, 0.5, key="mu"),
        Opt("beta", float, 32.0, key="beta"),
        # x runs over 1 .. min(L // 2, 12) - 1: L < 4 leaves no row
        Opt("L", int, 64, (">=", 4), key="L"),
        Opt("x0", float, 0.0, key="x0"),
    )),
    "ed": (_oracle_ed, (
        Opt("L", int, 4, ("<=", oracle.ED_MAX_SITES), key="L"),
        Opt("beta", float, 10.0, ("<=", oracle.ED_MAX_BETA), key="beta"),
        Opt("lambda", float, 0.0, key="lambda"),
        Opt("mu", float, 0.3, key="mu"),
        Opt("potential", str),
    )),
    "map": (_oracle_map, (
        Opt("g0-re", float, 0.02, key="g0_re"),
        Opt("g0-im", float, 0.005, key="g0_im"),
        Opt("a", float, 0.25, (">", 0), key="a"),
        Opt("n", int, 10 ** 4, (">=", 0), key="n"),
    )),
}

ORACLE = (Opt("what", str, "bubble", ("in", tuple(ORACLE_MODES)), key="what"),)


# ----------------------------------------------------------------------
# parser and dispatch
# ----------------------------------------------------------------------

# name -> (help, option table, handler)
COMMANDS = {
    "prop": ("free-propagator tables", PROP, cmd_prop),
    "flow": ("coupling flow with checks", FLOW, cmd_flow),
    "exponents": ("exponent table over lambda", EXPONENTS, cmd_exponents),
    "nu": ("counterterm fixed point and inversion", NU, cmd_nu),
    "correlations": ("responses vs closed forms", CORRELATIONS, cmd_correlations),
    "g1map": ("one perturbed quadratic-map run", G1MAP, cmd_g1map),
    "borel": ("sector-boundedness sweep", BOREL, cmd_borel),
    "oracle": ("brute-force reference runs", ORACLE,
               lambda o: ORACLE_MODES[o["what"]][0](o)),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="rg1d", description="renormalization-group engine for 1d "
        "interacting lattice fermions: batch tables and checks")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (text, table, _) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="INI config file (flat key=value "
                       "sections; flags override)")
        tables = [("", COMMON + table)]
        if command == "oracle":
            tables += [(" with --what " + mode, rows)
                       for mode, (_, rows) in ORACLE_MODES.items()]
        flags = {}   # name -> (type, help notes), over every table
        for where, rows in tables:
            for opt in rows:
                notes = flags.setdefault(
                    opt.name, (opt.type, [opt.help] if opt.help else []))[1]
                notes += ["one of %s%s" % (_fmt(bound), where)
                          for op, bound in _rules(opt) if op == "in"]
                if opt.default is not None:
                    notes.append("default %s%s" % (_fmt(opt.default), where))
        for name, (kind, notes) in flags.items():
            p.add_argument("--" + name, type=kind, help="; ".join(notes) or None)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = args.command
    table = COMMON + COMMANDS[command][1]
    try:
        with _config_phase():
            cfg = _load_config(args.config)
            opts = _resolve(table, args, cfg, command)
            if command == "oracle":
                mode_table = ORACLE_MODES[opts["what"]][1]
                opts.update(_resolve(mode_table, args, cfg, command))
                table += mode_table
            os.makedirs(opts["out-dir"], exist_ok=True)
        header, rows, summary, checks = COMMANDS[command][2](opts)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError, np.linalg.LinAlgError,
            ValueError) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 3

    summary.update((opt.key, opts[opt.name]) for opt in table if opt.key)
    if checks is not None:
        for name, (passed, margin) in checks.items():
            summary["check_" + name] = "pass" if passed else "FAIL"
            summary["check_" + name + "_margin"] = margin
        summary["checks_ok"] = all(passed for passed, _ in checks.values())
    stem = os.path.join(opts["out-dir"], command)
    with open(stem + ".csv", "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    lines = ["%s=%s" % (k, _fmt(v)) for k, v in sorted(summary.items())]
    with open(stem + "_summary.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0 if summary.get("checks_ok", True) else 4


if __name__ == "__main__":
    raise SystemExit(main())
