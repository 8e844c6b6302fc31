#!/usr/bin/env python3
"""Regenerate the embedded Dickey-Fuller quantile tables.

Simulates the null distribution of the Dickey-Fuller t-ratio (driftless
Gaussian random walk started at zero, test regression without lag
augmentation) for each deterministic case and a ladder of regression sample
sizes, then freezes the quantile grids into ``src/tvelast/_dftables.py``
beside the standard normal quantiles of the tabulated probabilities.
An asymptotic row (1/T = 0) is added by extrapolating the four largest
sample sizes linearly in 1/T.

The t-ratio for the lagged level is computed by partialling the
deterministic terms out of both sides (Frisch-Waugh), which matches the
full regression exactly and vectorizes across replications.

Expect a few minutes of run time; replication counts per sample size are
chosen so the 1%..10% quantiles are accurate to roughly +/-0.005.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

SEED = 20250809
PROBS = (
    0.001, 0.005, 0.01, 0.02, 0.025, 0.05, 0.075, 0.10, 0.15, 0.20,
    0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95, 0.975,
    0.99, 0.995, 0.999,
)
# regression sample size -> replications
SIZES = {
    25: 2_000_000,
    50: 2_000_000,
    100: 1_500_000,
    250: 1_000_000,
    500: 800_000,
    1000: 500_000,
    2500: 300_000,
}
CASES = ("none", "constant", "constant+trend")
CHUNK_BUDGET = 40_000_000  # floats per chunk of the innovation matrix


def _tstats_chunk(eps: np.ndarray) -> dict[str, np.ndarray]:
    """t-ratios on the lagged level for one chunk of random-walk innovations.

    eps has shape (reps, n); the walk is x_t = sum of the first t
    innovations with x_0 = 0, so the regression response (the first
    difference) is eps itself and the regressor is the lagged walk.
    """
    reps, n = eps.shape
    x = np.cumsum(eps, axis=1)
    w = np.empty_like(x)
    w[:, 0] = 0.0
    w[:, 1:] = x[:, :-1]
    y = eps

    out = {}
    for case in CASES:
        if case == "none":
            wt, yt, k = w, y, 1
        else:
            if case == "constant":
                z = np.ones((n, 1))
            else:
                z = np.column_stack([np.ones(n), np.arange(1.0, n + 1.0)])
            # residualize w and y on the shared deterministic columns
            ztz_inv = np.linalg.inv(z.T @ z)
            proj = z @ ztz_inv @ z.T  # (n, n), shared across reps
            wt = w - w @ proj
            yt = y - y @ proj
            k = 1 + z.shape[1]
        sww = np.einsum("ij,ij->i", wt, wt)
        swy = np.einsum("ij,ij->i", wt, yt)
        syy = np.einsum("ij,ij->i", yt, yt)
        coef = swy / sww
        ssr = syy - coef * swy
        s2 = ssr / (n - k)
        out[case] = coef / np.sqrt(s2 / sww)
    return out


def simulate_size(n: int, reps: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    chunk = max(1, min(reps, CHUNK_BUDGET // n))
    stats = {case: np.empty(reps) for case in CASES}
    done = 0
    while done < reps:
        m = min(chunk, reps - done)
        eps = rng.standard_normal((m, n))
        for case, t in _tstats_chunk(eps).items():
            stats[case][done:done + m] = t
        done += m
    return stats


def tables_source(rows) -> str:
    """The text of _dftables.py for {case: [(inv_t, quantiles), ...]}.

    NORMAL_QUANTILES are scipy.special.ndtri(PROBS), frozen beside PROBS so
    that the package computes its ADF p-values without scipy.
    """
    from scipy.special import ndtri

    lines = [
        '"""Embedded quantile tables for the Dickey-Fuller t-ratio.',
        "",
        "Generated by scripts/gen_adf_tables.py (Monte Carlo under the",
        f"unit-root null, seed {SEED}); do not edit by hand. Each table row",
        "is keyed by 1/T for regression sample size T; the 1/T = 0 row is",
        "the asymptotic limit extrapolated from the largest sizes.",
        "NORMAL_QUANTILES are the standard normal quantiles of PROBS",
        "(scipy.special.ndtri).",
        '"""',
        "",
        f"PROBS = {PROBS!r}",
        "",
        "NORMAL_QUANTILES = (" + ", ".join(repr(float(v)) for v in ndtri(PROBS)) + ")",
        "",
        "TABLES = {",
    ]
    for case in CASES:
        lines.append(f"    {case!r}: (")
        for inv_t, q in rows[case]:
            qtup = "(" + ", ".join(repr(float(v)) for v in q) + ")"
            lines.append(f"        ({inv_t!r}, {qtup}),")
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> None:
    rng = np.random.default_rng(SEED)
    # case -> list of (inv_t, quantile tuple), finite sizes first
    rows: dict[str, list[tuple[float, np.ndarray]]] = {c: [] for c in CASES}
    for n, reps in SIZES.items():
        t0 = time.time()
        stats = simulate_size(n, reps, rng)
        for case in CASES:
            q = np.quantile(stats[case], PROBS)
            rows[case].append((1.0 / n, q))
        print(f"n={n:5d} reps={reps} done in {time.time() - t0:.1f}s", flush=True)

    # asymptotic row: per-quantile OLS of q on 1/n over the largest sizes
    for case in CASES:
        big = [(it, q) for it, q in rows[case] if it <= 1.0 / 250]
        inv = np.array([it for it, _ in big])
        qs = np.vstack([q for _, q in big])
        design = np.column_stack([np.ones_like(inv), inv])
        coefs, *_ = np.linalg.lstsq(design, qs, rcond=None)
        q_inf = np.maximum.accumulate(coefs[0])  # keep monotone in prob
        rows[case].insert(0, (0.0, q_inf))
        rows[case].sort(key=lambda r: r[0])

    out_path = Path(__file__).resolve().parents[1] / "src" / "tvelast" / "_dftables.py"
    out_path.write_text(tables_source(rows))
    print(f"wrote {out_path}", flush=True)


if __name__ == "__main__":
    main()
