"""Identity suites: every operator fact the laboratory relies on.

Each suite measures the worst violation of an identity and reports it
against the identity's tolerance.  Exact identities run on fixed,
nontrivial input at tolerance 0.0; the others draw reproducible random
input from the suite's seed, its only setting.  Sample sizes and inputs are
fixed in each suite body.  The CLI `verify` subcommand prints one line per
check, and the acceptance criteria that share a check with a suite
(tests/test_acceptance.py: c01, c02, c05, c06, c09, c10, c11, c14 and c15)
call that suite with the criterion's seed and assert that every check it
returns passes.

The adjoint, isometry and Dirichlet suites and the Cauchy-Schwarz loop of
the semigroup suite work on row stacks, one random series per row, instead
of one series at a time.  Rows come in blocks whose widest array holds at
most ``_STACK_BYTES``; each block takes its inputs in one
``rng.standard_normal((rows, 2 * series, length))`` call, which is the
same stream, in the same order, as one :func:`random_series` call per
series.  Transforms run once per block through the array kernels of
:mod:`hardylab.semigroup`, while every norm and inner product is still
taken per row (:func:`~hardylab.series.array_norm`, ``np.vdot``) on the
same numbers as before, so every check value is the same bit for bit
whatever the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .projection import non_cyclicity_witness
from .semigroup import (
    kernel_intersection_basis,
    kernel_vector,
    semiconjugacy_residual,
    weighted_dilation,
    weighted_dilation_adjoint,
    weighted_dilation_adjoint_array,
    weighted_dilation_array,
)
from .series import CoeffSeries, array_norm, from_coeffs, inner, norm, one, pad
from .special import dirichlet_energy_at_one, hk_closed_form, hk_oracle
from .spectral import (
    adjoint_eigenvector,
    eigenvector_norm_sq,
    level_for_degree,
    shift_decay,
)

__all__ = [
    "CheckResult",
    "random_series",
    "adjoint_duality_gap",
    "suite_adjoint",
    "suite_isometry",
    "suite_semigroup",
    "suite_semiconjugacy",
    "suite_hk",
    "suite_kernel",
    "suite_dirichlet",
    "suite_spectral",
    "suite_cyclic",
    "SUITES",
    "run_suites",
]


# Upper bound on the bytes of the widest row stack a suite holds at once.
# Several stacks of that size are live together, so 128 KiB keeps the
# suites' extra peak memory near half a MiB.
_STACK_BYTES = 1 << 17


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_err: float
    tol: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.note}]" if self.note else ""
        return f"{status}  {self.name}: max_err={self.max_err:.3e} tol={self.tol:.1e}{extra}"


def _row_blocks(rows: int, row_bytes: int) -> list[int]:
    """Sizes of consecutive blocks of ``rows`` rows, each row stack within ``_STACK_BYTES``.

    ``row_bytes`` is the width of one row of the suite's widest stack; a
    block holds at least one row.
    """
    step = max(1, _STACK_BYTES // row_bytes)
    return [min(step, rows - start) for start in range(0, rows, step)]


def _random_rows(
    rng: np.random.Generator, rows: int, series: int, valid_degree: int
) -> np.ndarray:
    """``rows`` x ``series`` random series as a complex (rows, series, valid_degree + 1) stack.

    One draw gives the same numbers as ``rows * series`` calls of
    :func:`random_series` in row-major order: each series takes its real
    parts, then its imaginary parts.
    """
    parts = rng.standard_normal((rows, 2 * series, valid_degree + 1))
    out = np.empty((rows, series, valid_degree + 1), dtype=np.complex128)
    out.real = parts[:, 0::2]
    out.imag = parts[:, 1::2]
    return out


def random_series(rng: np.random.Generator, valid_degree: int) -> CoeffSeries:
    """Complex coefficients with standard-normal real and imaginary parts."""
    return from_coeffs(_random_rows(rng, 1, 1, valid_degree)[0, 0])


def adjoint_duality_gap(n: int, f: np.ndarray, g: np.ndarray) -> list[float]:
    """|<Wf, g> - <f, W*g>| for each row pair of ``f`` and ``g``, on matched exact windows.

    ``f`` and ``g`` are 2-d arrays holding one pair per row; the result has
    one float per pair, each inner product taken on its pair.  The adjoint
    of g only reports complete blocks, so the left pairing is restricted to
    the degrees those blocks cover; without that matching a dangling partial
    block would show up as a spurious duality violation.
    """
    adj = weighted_dilation_adjoint_array(n, g)
    m = min(f.shape[-1], adj.shape[-1])
    head = f[:, :m]
    return [
        abs(complex(np.vdot(b[: len(w)], w)) - complex(np.vdot(a[:m], h)))
        for h, w, b, a in zip(head, weighted_dilation_array(n, head), g, adj)
    ]


def suite_adjoint(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for rows in _row_blocks(200, 2 * 513 * 16):
        f, g = _random_rows(rng, rows, 2, 512).transpose(1, 0, 2)
        scales = [array_norm(a) * array_norm(b) for a, b in zip(f, g)]
        for n in (2, 3, 5, 7):
            for gap, scale in zip(adjoint_duality_gap(n, f, g), scales):
                worst = max(worst, gap / scale)
    return [CheckResult("adjoint duality <Wf,g> = <f,W*g>", worst, 1e-10)]


def suite_isometry(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_iso = 0.0
    worst_wsw = 0.0
    for rows in _row_blocks(100, 10 * 257 * 16):
        f = _random_rows(rng, rows, 1, 256)[:, 0]
        norms = [array_norm(row) for row in f]
        for n in range(2, 11):
            wf = weighted_dilation_array(n, f)
            back = weighted_dilation_adjoint_array(n, wf)
            for w, d, nf in zip(wf, back - n * f, norms):
                worst_iso = max(
                    worst_iso, abs(array_norm(w) - math.sqrt(n) * nf) / (math.sqrt(n) * nf)
                )
                worst_wsw = max(worst_wsw, array_norm(d) / nf)
    return [
        CheckResult("isometry ||Wf|| = sqrt(n)||f||", worst_iso, 1e-12),
        CheckResult("adjoint inversion W*Wf = n f", worst_wsw, 1e-13),
    ]


def suite_semigroup(seed: int = 0) -> list[CheckResult]:
    # A repeat of a repeat is a repeat: the law holds exactly on any input.
    f = from_coeffs(np.exp(1j * np.arange(129)) / np.arange(1, 130))
    worst = 0.0
    for m, n in [(2, 2), (2, 5), (3, 2), (3, 5), (2, 3)]:
        lhs = weighted_dilation(m, weighted_dilation(n, f))
        rhs = weighted_dilation(m * n, f)
        worst = max(worst, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
    results = [CheckResult("semigroup law W_m W_n = W_mn", worst, 0.0)]

    # Cauchy-Schwarz gap: the index-2 dilation moves every nonzero vector off
    # its own line, so ||Wf||^2||f||^2 - |<Wf,f>|^2 stays strictly positive.
    rng = np.random.default_rng(seed)
    min_gap = np.inf
    for rows in _row_blocks(100, 2 * 65 * 16):
        f = _random_rows(rng, rows, 1, 64)[:, 0]
        for row, wf in zip(f, weighted_dilation_array(2, f)):
            nf = array_norm(row)
            pairing = complex(np.vdot(row, wf[: len(row)]))  # <Wf, f>
            gap = array_norm(wf) ** 2 * nf**2 - abs(pairing) ** 2
            min_gap = min(min_gap, gap / nf**4)
    results.append(
        CheckResult("no-eigenvector gap (index 2) stays positive", 1e-12 - min_gap, 0.0,
                    note=f"min normalized gap {min_gap:.3e}")
    )
    return results


def suite_semiconjugacy(seed: int = 0) -> list[CheckResult]:
    # Both sides put the same difference f_k - f_(k-1) at degree nk, and zeros
    # elsewhere, so the residual is exactly zero on any input.
    f = from_coeffs(np.exp(1j * np.arange(201)) / np.arange(1, 202))
    worst = max(semiconjugacy_residual(n, f) for n in (2, 3, 5))
    return [CheckResult("semiconjugacy of plain and weighted dilations", worst, 0.0)]


def suite_hk(seed: int = 0) -> list[CheckResult]:
    n_trunc = 4096
    j = np.arange(1, n_trunc + 1)
    worst_osc = 0.0
    worst_decay = 0.0
    worst_first = 0.0
    for k in (2, 3, 5, 10, 30):
        closed = hk_closed_form(k, n_trunc)
        oracle = hk_oracle(k, n_trunc)
        worst_osc = max(worst_osc, float(np.max(np.abs(closed.coeffs - oracle.coeffs))))
        worst_decay = max(
            worst_decay, float(np.max(np.abs(closed.coeffs[1:]) * (j + 1) / k))
        )
        worst_first = max(worst_first, float(abs(closed.coeffs[0] - closed.coeffs[1] + 1.0)))
    results = [
        CheckResult("h_k closed form vs formal-log oracle", worst_osc, 1e-12),
        CheckResult("h_k decay |c_j| <= k/(j+1)", worst_decay, 1.0),
        CheckResult("h_k first difference c_0 - c_1 = -1", worst_first, 1e-14),
    ]

    worst_fun = 0.0
    for n in (2, 3):
        for k in (2, 3, 5):
            hk = hk_closed_form(k, 500)
            lhs = weighted_dilation(n, hk)
            rhs_deg = lhs.valid_degree
            rhs = from_coeffs(
                hk_closed_form(n * k, rhs_deg).coeffs - hk_closed_form(n, rhs_deg).coeffs
            )
            worst_fun = max(worst_fun, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
    results.append(
        CheckResult("dilation identity W_n h_k = h_nk - h_n", worst_fun, 1e-12)
    )
    return results


def suite_kernel(seed: int = 0) -> list[CheckResult]:
    worst_kill = 0.0
    worst_orth = 0.0
    for n in (2, 3, 5):
        vecs = [kernel_vector(n, k) for k in range(6)]
        for v in vecs:
            img = weighted_dilation_adjoint(n, pad(v, n * 8))
            worst_kill = max(worst_kill, float(np.max(np.abs(img.coeffs))))
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                worst_orth = max(worst_orth, abs(inner(vecs[i], vecs[j])))
    results = [
        CheckResult("adjoint annihilates its kernel vectors", worst_kill, 0.0),
        CheckResult("kernel vectors pairwise orthogonal", worst_orth, 0.0),
    ]

    worst_basis = 0.0
    for j in range(1, 4):
        member = pad(kernel_intersection_basis(3)[j - 1], 16)
        for n in range(j + 1, 8):
            img = weighted_dilation_adjoint(n, member)
            worst_basis = max(worst_basis, float(np.max(np.abs(img.coeffs))))
    results.append(
        CheckResult("1 - z^j killed by every adjoint of index > j", worst_basis, 0.0)
    )

    witness = weighted_dilation_adjoint(2, pad(kernel_intersection_basis(2)[1], 3))
    escape_err = float(np.max(np.abs(witness.coeffs - np.array([1.0, -1.0]))))
    results.append(
        CheckResult("1 - z^2 escapes the index-2 adjoint kernel", escape_err, 0.0,
                    note="image is 1 - z")
    )
    return results


def suite_dirichlet(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    sharp_holds = True
    # ker W_2* has one direction per block, so every member of it has ratio
    # exactly 1/16; only n >= 3 leaves the ratio free to move with the draws.
    for n in (3, 4):
        for rows in _row_blocks(50, 21 * n * 16):
            # random members of ker W_n* on 21 blocks: each block minus its mean
            c = _random_rows(rng, rows, 1, 21 * n - 1).reshape(rows, 21, n)
            for acc in (c - c.mean(axis=-1, keepdims=True)).reshape(rows, 21 * n):
                f = from_coeffs(acc)
                energy = dirichlet_energy_at_one(f)
                worst_ratio = max(worst_ratio, energy / (2**n * n * norm(f) ** 2))
                if energy > n**2 * norm(f) ** 2:
                    sharp_holds = False
    # The tails of kernel_vector(n, 0) are -1, -2, .., -(n-1), all exact.
    closed_err = max(
        abs(dirichlet_energy_at_one(kernel_vector(n, 0)) - (n - 1) * n * (2 * n - 1) // 6)
        for n in range(2, 9)
    )
    return [
        CheckResult(
            "kernel combinations have energy <= 2^n n ||f||^2",
            worst_ratio,
            1.0,
            note=f"sharper n^2 bound held: {sharp_holds}",
        ),
        CheckResult("energy of kernel_vector(n, 0) is (n-1)n(2n-1)/6", closed_err, 0.0,
                    note="n = 2..8"),
        CheckResult(
            "energy of 1 - z is exactly 1",
            abs(dirichlet_energy_at_one(from_coeffs([1.0, -1.0])) - 1.0),
            0.0,
        ),
        CheckResult("energy of the constant is 0", dirichlet_energy_at_one(one()), 0.0),
    ]


def suite_spectral(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_resid = 0.0
    worst_norm = 0.0
    for n in (2, 3):
        level = level_for_degree(n, 4096)
        # the same stream, in the same order, as one rng.uniform() call at a time
        draws = rng.uniform(size=(100, 2)).tolist()
        lams = [0.95 * np.sqrt(n) * np.sqrt(u) * np.exp(2j * np.pi * t) for u, t in draws]
        for lam, closed in zip(lams, eigenvector_norm_sq(n, np.array(lams), level).tolist()):
            pair = adjoint_eigenvector(n, lam, level)
            vector_norm = norm(pair.vector)
            worst_resid = max(worst_resid, pair.residual / vector_norm)
            worst_norm = max(worst_norm, abs(vector_norm ** 2 - closed) / closed)
    results = [
        CheckResult("adjoint eigenvector residual", worst_resid, 1e-10),
        CheckResult("eigenvector norm matches closed form", worst_norm, 1e-12),
    ]

    decay = shift_decay(2, one(2**10 - 1), 10)
    expected = [2 ** (-m / 2) for m in range(1, 11)]
    results.append(
        CheckResult(
            "rescaled adjoint decay on the constant is 2^(-m/2)",
            float(np.max(np.abs(np.array(decay) - np.array(expected)))),
            1e-14,
        )
    )

    f = random_series(rng, 3**6 - 1)
    d = shift_decay(3, f, 5)
    monotone_err = float(np.max(np.diff([norm(f)] + d)))
    results.append(
        CheckResult("shift decay sequence is nonincreasing", monotone_err, 1e-12)
    )
    return results


def suite_cyclic(seed: int = 0) -> list[CheckResult]:
    # W_n f starts f_0, f_0 for every n >= 2, and f_1 = f_0 settles n = 1.
    c = np.exp(1j * np.arange(8)) / np.arange(1, 9)
    c[1] = c[0]
    worst = non_cyclicity_witness(from_coeffs(c), 100)
    return [
        CheckResult("orbit of f with equal leading coefficients avoids 1 - z", worst, 0.0)
    ]


SUITES = {
    "adjoint": suite_adjoint,
    "isometry": suite_isometry,
    "semigroup": suite_semigroup,
    "semiconjugacy": suite_semiconjugacy,
    "hk": suite_hk,
    "kernel": suite_kernel,
    "dirichlet": suite_dirichlet,
    "spectral": suite_spectral,
    "cyclic": suite_cyclic,
}


def run_suites(names: list[str], seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    for name in names:
        out.extend(SUITES[name](seed=seed))
    return out
