"""Identity suites: every operator fact the laboratory relies on.

Each suite measures the worst violation of an identity and reports it
against the identity's tolerance.  Exact identities run on fixed,
nontrivial input at tolerance 0.0; the others draw reproducible random
input from the suite's seed, its only setting.  Sample sizes and inputs are
fixed in each suite body.  The CLI `verify` subcommand prints one line per
check, and the acceptance criteria that share a check with a suite
(tests/test_acceptance.py: c01 to c07, c09, c10, c11, c14 and c15) call
that suite with the criterion's seed and assert the checks they share pass.

The adjoint, isometry, Dirichlet and spectral suites and the Cauchy-Schwarz
loop of the semigroup suite work on row stacks, one random series or one
eigenvalue per row.  Rows come in blocks whose widest array holds at most
``_STACK_BYTES``; each block takes its inputs in one
``rng.standard_normal((rows, 2 * series, length))`` call, the same stream,
in the same order, as one :func:`random_series` call per series.  Each
quantity is one call per block: the transforms go through the array
kernels of :mod:`hardylab.semigroup` and
:func:`~hardylab.special.dirichlet_energy_at_one_array`, every row norm
through :func:`~hardylab.series._row_norms`, the kernel of
:func:`~hardylab.series.array_norm`, and every pairing through
``np.vecdot``, which runs the same BLAS dot per row as ``np.vdot``.  The
scalar rounding rules carry over to the rows: the modulus of a complex
value is ``np.hypot``, as Python's ``abs`` rounds it (``np.abs`` differs in
the last bit), and a power of a float is ``np.float_power``, libm ``pow`` as
Python's ``**`` (``x * x`` differs).  The spectral suite builds one band
table per index with :func:`~hardylab.spectral._eigen_bands`, for all its
points, and expands a block of its rows per call of
:func:`~hardylab.spectral._eigenvectors`, the path behind
:func:`~hardylab.spectral.adjoint_eigenvector`, without the series copy; its
blocks count a row's vector, adjoint and ``lam * v`` window together, 16
(n + 2) n^(level-1) bytes.

Each check is the NaN-propagating ``np.max`` (or ``np.min``) of the values
it collects: the per-block arrays of a row-stack suite, the per-case
arrays or floats of a fixed-input one.  Python's ``max`` would drop a NaN;
numpy's keeps it, so the check fails.  Max and min are exact, so every
check value is the same bit for bit whatever the block size or the order,
and the same as one series at a time gives.

``_STACK_BYTES`` is 512 KiB.  There the isometry and adjoint suites, the
largest, peak at 1.49 and 1.47 MiB of traced allocations (``tracemalloc``,
seed 1), the spectral suite at 0.77 MiB.  A spectral block counts every
array that lives with its vector, not the vector alone: blocks near 1 MiB
pass the threshold at which glibc's malloc (2 x the largest mapped block
freed so far) returns the freed top of its heap to the kernel, and each
block then faults its pages in again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .semigroup import (
    dilation,
    kernel_intersection_basis,
    kernel_vector,
    weighted_dilation,
    weighted_dilation_adjoint,
    weighted_dilation_adjoint_array,
    weighted_dilation_array,
)
from .series import CoeffSeries, _row_norms, from_coeffs, inner, norm, one, pad
from .special import (
    dirichlet_energy_at_one,
    dirichlet_energy_at_one_array,
    hk_closed_form,
    hk_oracle,
)
from .spectral import (
    _eigen_bands,
    _eigenvectors,
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
# Several stacks of that size are live together; see the module docstring
# for the peak this budget gives.
_STACK_BYTES = 1 << 19


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


def _worst(values, pick=np.max) -> float:
    """``pick`` (``np.max`` or ``np.min``) of every entry of the arrays in ``values``.

    A NaN anywhere makes the result NaN.  Scalars come as one array, not one each.
    """
    return float(pick(np.concatenate(values, axis=None)))


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


def adjoint_duality_gap(n: int, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """|<Wf, g> - <f, W*g>| for each row pair of ``f`` and ``g``, on matched exact windows.

    ``f`` and ``g`` are stacks holding one pair per row on their last axis;
    the result has one float per pair, each inner product taken on its
    pair.  The adjoint of g only reports complete blocks, so the left
    pairing is restricted to the degrees those blocks cover; without that
    matching a dangling partial block would show up as a spurious duality
    violation.
    """
    adj = weighted_dilation_adjoint_array(n, g)
    m = min(f.shape[-1], adj.shape[-1])
    head = f[..., :m]
    wf = weighted_dilation_array(n, head)
    # np.vecdot conjugates its first argument, as np.vdot does
    d = np.vecdot(g[..., : wf.shape[-1]], wf) - np.vecdot(adj[..., :m], head)
    return np.hypot(d.real, d.imag)


def _isometry_errors(n: int, f: np.ndarray, nf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relative errors of ||Wf|| = sqrt(n)||f|| and W*Wf = n f for each row of ``f``.

    ``nf`` holds the rows' norms.
    """
    wf = weighted_dilation_array(n, f)
    back = weighted_dilation_adjoint_array(n, wf)
    root = math.sqrt(n) * nf
    return np.abs(_row_norms(wf) - root) / root, _row_norms(back - n * f) / nf


def _cauchy_schwarz_gaps(f: np.ndarray) -> np.ndarray:
    """(||Wf||^2||f||^2 - |<Wf,f>|^2) / ||f||^4 at index 2 for each row of ``f``."""
    wf = weighted_dilation_array(2, f)
    nf = _row_norms(f)
    pairing = np.vecdot(f, wf[..., : f.shape[-1]])  # <Wf, f>
    gap = (np.float_power(_row_norms(wf), 2) * np.float_power(nf, 2)
           - np.float_power(np.hypot(pairing.real, pairing.imag), 2))
    return gap / np.float_power(nf, 4)


def _dirichlet_ratios(n: int, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """energy / (2^n n ||f||^2) for each row f of ``c``, and whether energy <= n^2 ||f||^2."""
    energy = dirichlet_energy_at_one_array(c)
    norm_sq = np.float_power(_row_norms(c), 2)
    return energy / (2**n * n * norm_sq), energy <= n**2 * norm_sq


def _eigenvector_errors(n: int, lams: np.ndarray, bands: np.ndarray, counts: list[int],
                        closed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relative residual and relative error of ||v||^2 against ``closed`` for each eigenvector."""
    v, residual = _eigenvectors(n, lams, bands, counts)
    vector_norm = _row_norms(v)
    return residual / vector_norm, np.abs(np.float_power(vector_norm, 2) - closed) / closed


def suite_adjoint(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    gaps = []
    for rows in _row_blocks(200, 2 * 513 * 16):
        f, g = _random_rows(rng, rows, 2, 512).transpose(1, 0, 2)
        scales = _row_norms(f) * _row_norms(g)
        gaps += [adjoint_duality_gap(n, f, g) / scales for n in (2, 3, 5, 7)]
    return [CheckResult("adjoint duality <Wf,g> = <f,W*g>", _worst(gaps), 1e-10)]


def suite_isometry(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    errors = []
    for rows in _row_blocks(100, 10 * 257 * 16):
        f = _random_rows(rng, rows, 1, 256)[:, 0]
        nf = _row_norms(f)
        errors += [_isometry_errors(n, f, nf) for n in range(2, 11)]
    iso, wsw = zip(*errors)
    return [
        CheckResult("isometry ||Wf|| = sqrt(n)||f||", _worst(iso), 1e-12),
        CheckResult("adjoint inversion W*Wf = n f", _worst(wsw), 1e-13),
    ]


def suite_semigroup(seed: int = 0) -> list[CheckResult]:
    # A repeat of a repeat is a repeat: the law holds exactly on any input.
    f = from_coeffs(np.exp(1j * np.arange(129)) / np.arange(1, 130))
    diffs = []
    for m, n in [(2, 2), (2, 5), (3, 2), (3, 5), (2, 3)]:
        lhs = weighted_dilation(m, weighted_dilation(n, f))
        rhs = weighted_dilation(m * n, f)
        diffs.append(np.abs(lhs.coeffs - rhs.coeffs))

    # Cauchy-Schwarz gap: the index-2 dilation moves every nonzero vector off
    # its own line, so ||Wf||^2||f||^2 - |<Wf,f>|^2 stays strictly positive.
    rng = np.random.default_rng(seed)
    min_gap = _worst([_cauchy_schwarz_gaps(_random_rows(rng, rows, 1, 64)[:, 0])
                      for rows in _row_blocks(100, 2 * 65 * 16)], np.min)
    return [
        CheckResult("semigroup law W_m W_n = W_mn", _worst(diffs), 0.0),
        CheckResult("no-eigenvector gap (index 2) stays positive", 1e-12 - min_gap, 0.0,
                    note=f"min normalized gap {min_gap:.3e}"),
    ]


def suite_semiconjugacy(seed: int = 0) -> list[CheckResult]:
    # (1 - z^n) f(z^n) = (1 - z) W_n f, compared on degrees 0 .. n*valid: both
    # sides put the same difference f_k - f_(k-1) at degree nk, and zeros
    # elsewhere, so the residual is exactly zero on any input.
    f = from_coeffs(np.exp(1j * np.arange(201)) / np.arange(1, 202))
    diffs = []
    for n in (2, 3, 5):
        fz = dilation(n, f).coeffs
        lhs = fz - np.pad(fz, (n, 0))[: len(fz)]  # fz minus itself moved up n degrees
        # np.diff(c, prepend=0) is c times (1 - z) on its valid window
        rhs = np.diff(weighted_dilation_array(n, f.coeffs), prepend=0)[: len(fz)]
        diffs.append(np.abs(lhs - rhs))
    return [CheckResult("semiconjugacy of plain and weighted dilations", _worst(diffs), 0.0)]


def suite_hk(seed: int = 0) -> list[CheckResult]:
    n_trunc = 4096
    j = np.arange(1, n_trunc + 1)
    # each case's 4097-entry arrays are reduced on the spot, not kept
    osc, decay, first = [], [], []
    for k in (2, 3, 5, 10, 30):
        closed = hk_closed_form(k, n_trunc)
        oracle = hk_oracle(k, n_trunc)
        osc.append(np.max(np.abs(closed.coeffs - oracle.coeffs)))
        decay.append(np.max(np.abs(closed.coeffs[1:]) * (j + 1) / k))
        first.append(abs(closed.coeffs[0] - closed.coeffs[1] + 1.0))

    fun = []
    for n in (2, 3):
        for k in (2, 3, 5):
            lhs = weighted_dilation(n, hk_closed_form(k, 500))
            deg = lhs.valid_degree
            rhs = hk_closed_form(n * k, deg).coeffs - hk_closed_form(n, deg).coeffs
            fun.append(np.max(np.abs(lhs.coeffs - rhs)))
    return [
        CheckResult("h_k closed form vs formal-log oracle", _worst([np.array(osc)]), 1e-12),
        CheckResult("h_k decay |c_j| <= k/(j+1)", _worst([np.array(decay)]), 1.0),
        CheckResult("h_k first difference c_0 - c_1 = -1", _worst([np.array(first)]), 1e-14),
        CheckResult("dilation identity W_n h_k = h_nk - h_n", _worst([np.array(fun)]), 1e-12),
    ]


def suite_kernel(seed: int = 0) -> list[CheckResult]:
    images, pairings = [], []
    for n in (2, 3, 5):
        vecs = [kernel_vector(n, k) for k in range(6)]
        images += [np.abs(weighted_dilation_adjoint(n, pad(v, n * 8)).coeffs) for v in vecs]
        pairings += [abs(inner(v, w)) for i, v in enumerate(vecs) for w in vecs[i + 1:]]

    basis_images = []
    for j, member in enumerate(kernel_intersection_basis(3), start=1):
        member = pad(member, 16)
        basis_images += [np.abs(weighted_dilation_adjoint(n, member).coeffs)
                         for n in range(j + 1, 8)]

    witness = weighted_dilation_adjoint(2, pad(kernel_intersection_basis(2)[1], 3))
    return [
        CheckResult("adjoint annihilates its kernel vectors", _worst(images), 0.0),
        CheckResult("kernel vectors pairwise orthogonal", _worst([np.array(pairings)]), 0.0),
        CheckResult("1 - z^j killed by every adjoint of index > j", _worst(basis_images), 0.0),
        CheckResult("1 - z^2 escapes the index-2 adjoint kernel",
                    _worst([np.abs(witness.coeffs - [1.0, -1.0])]), 0.0, note="image is 1 - z"),
    ]


def suite_dirichlet(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    blocks = []
    # ker W_2* has one direction per block, so every member of it has ratio
    # exactly 1/16; only n >= 3 leaves the ratio free to move with the draws.
    for n in (3, 4):
        for rows in _row_blocks(50, 21 * n * 16):
            # random members of ker W_n* on 21 blocks: each block minus its mean
            c = _random_rows(rng, rows, 1, 21 * n - 1).reshape(rows, 21, n)
            members = (c - c.mean(axis=-1, keepdims=True)).reshape(rows, 21 * n)
            blocks.append(_dirichlet_ratios(n, members))
    ratios, sharp = zip(*blocks)
    # The tails of kernel_vector(n, 0) are -1, -2, .., -(n-1), all exact.
    closed_err = _worst([np.array([
        abs(dirichlet_energy_at_one(kernel_vector(n, 0)) - (n - 1) * n * (2 * n - 1) // 6)
        for n in range(2, 9)
    ])])
    return [
        CheckResult(
            "kernel combinations have energy <= 2^n n ||f||^2",
            _worst(ratios),
            1.0,
            # a NaN energy fails the sharper bound too
            note=f"sharper n^2 bound held: {all(map(np.all, sharp))}",
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
    errors = []
    for n in (2, 3):
        level = level_for_degree(n, 4096)
        # the same stream, in the same order, as one rng.uniform() call at a time
        u, t = rng.uniform(size=(100, 2)).T
        lams = 0.95 * np.sqrt(n) * np.sqrt(u) * np.exp(2j * np.pi * t)
        # one band table for every point: its fixed numpy cost is paid once per n
        lams, bands, counts = _eigen_bands(n, lams, level)
        closed = eigenvector_norm_sq(n, lams, level)
        # a row's vector, and its adjoint and lam * v windows, live together
        step = _row_blocks(100, 16 * (n + 2) * n ** (level - 1))[0]
        errors += [_eigenvector_errors(n, lams[i : i + step], bands[i : i + step], counts,
                                       closed[i : i + step])
                   for i in range(0, 100, step)]
    resid, norm_err = zip(*errors)

    decay = shift_decay(2, one(2**10 - 1), 10)
    expected = [2 ** (-m / 2) for m in range(1, 11)]

    f = random_series(rng, 3**6 - 1)
    d = shift_decay(3, f, 5)
    return [
        CheckResult("adjoint eigenvector residual", _worst(resid), 1e-10),
        CheckResult("eigenvector norm matches closed form", _worst(norm_err), 1e-12),
        CheckResult("rescaled adjoint decay on the constant is 2^(-m/2)",
                    _worst([np.abs(np.subtract(decay, expected))]), 1e-14),
        CheckResult("shift decay sequence is nonincreasing",
                    _worst([np.diff([norm(f)] + d)]), 1e-12),
    ]


def suite_cyclic(seed: int = 0) -> list[CheckResult]:
    # W_n f starts f_0, f_0 for every n >= 2, and f_1 = f_0 settles n = 1.
    c = np.exp(1j * np.arange(8)) / np.arange(1, 9)
    c[1] = c[0]
    # the pairing reads W_n f at degrees 0 and 1 only, built from f_0 and f_1
    head, one_minus_z = from_coeffs(c[:2]), from_coeffs([1.0, -1.0])
    pairings = np.array([abs(inner(weighted_dilation(n, head), one_minus_z))
                         for n in range(1, 101)])
    return [CheckResult("orbit of f with equal leading coefficients avoids 1 - z",
                        _worst([pairings]), 0.0)]


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
