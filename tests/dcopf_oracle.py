"""Independent DC-OPF oracle built on scipy.optimize.linprog.

Deliberately a different formulation from the package's LP builder: no flow
variables at all (branch flows are substituted as B * (theta_u - theta_v)),
explicit production variables per generator, and scipy/HiGHS as the solver.
Works straight off the parsed case records. Used to cross-check the
electrical model at lambda = 1; its case30 value is frozen in the tests.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from gridctl.case_io import RawCase


def sampled_secants(coeffs, p_max: float, points: int):
    """(slope, intercept) secant pieces of the polynomial cost on [0, p_max]."""

    def poly(p):
        acc = 0.0
        for c in coeffs:
            acc = acc * p + c
        return acc

    if p_max <= 0:
        return [(0.0, poly(0.0))]
    xs = [p_max * k / (points - 1) for k in range(points)]
    out = []
    for x0, x1 in zip(xs, xs[1:]):
        a = (poly(x1) - poly(x0)) / (x1 - x0)
        out.append((a, poly(x0) - a * x0))
    return out


def dcopf_generation_cost(raw: RawCase, points: int = 5) -> float:
    """Minimum total generation cost of the DC (B-theta) dispatch."""
    buses = [b.bus_id for b in raw.buses]
    bus_pos = {b: k for k, b in enumerate(buses)}
    nb, ng, nl = len(buses), len(raw.generators), len(raw.branches)

    # columns: theta (nb) | production (ng) | epigraph t (ng)
    n = nb + 2 * ng
    c = np.zeros(n)
    c[nb + ng:] = 1.0

    bounds = [(None, None)] * nb
    for g in raw.generators:
        bounds.append((0.0, g.p_max))
    bounds += [(None, None)] * ng

    a_eq, b_eq, a_ub, b_ub = [], [], [], []

    # bus balance: sum of outgoing B * (theta_u - theta_v) = production - demand
    balance = [np.zeros(n) for _ in range(nb)]
    for br in raw.branches:
        b_val = raw.base_mva / (br.reactance * br.tap)
        u, v = bus_pos[br.from_bus], bus_pos[br.to_bus]
        balance[u][u] += b_val
        balance[u][v] -= b_val
        balance[v][v] += b_val
        balance[v][u] -= b_val
    for k, g in enumerate(raw.generators):
        balance[bus_pos[g.bus]][nb + k] -= 1.0
    for k, bus in enumerate(raw.buses):
        row = balance[k]
        b_eq.append(-bus.demand)
        a_eq.append(row)

    # gauge
    gauge = np.zeros(n)
    gauge[0] = 1.0
    a_eq.append(gauge)
    b_eq.append(0.0)

    # thermal limits on B * (theta_u - theta_v)
    for br in raw.branches:
        if br.rate_a <= 0:
            continue
        row = np.zeros(n)
        b_val = raw.base_mva / (br.reactance * br.tap)
        row[bus_pos[br.from_bus]] = b_val
        row[bus_pos[br.to_bus]] = -b_val
        a_ub.append(row.copy())
        b_ub.append(br.rate_a)
        a_ub.append(-row)
        b_ub.append(br.rate_a)

    # cost epigraph per generator
    for k, g in enumerate(raw.generators):
        if g.cost_model == 1:
            xs = list(g.cost_coefficients[0::2])
            ys = list(g.cost_coefficients[1::2])
            pieces = []
            for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
                a = (y1 - y0) / (x1 - x0)
                pieces.append((a, y0 - a * x0))
        else:
            pieces = sampled_secants(g.cost_coefficients, g.p_max, points)
        for a, c0 in pieces:
            row = np.zeros(n)
            row[nb + k] = a
            row[nb + ng + k] = -1.0
            a_ub.append(row)
            b_ub.append(-c0)

    res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"oracle DC-OPF failed: {res.message}")
    return float(res.fun)
