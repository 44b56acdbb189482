"""State vectors and additive Pauli operators for a chain of spin-1/2 sites.

Basis convention, fixed once for the whole package: basis index b stores
site l in bit n-l (site 1 is the most significant bit), and bit value 0
means sigma_z eigenvalue +1.  A StateVector's amplitudes are always
complex; the internal kernels also run on real arrays.  All public
operations are pure functions on immutable inputs and are safe to call
from several threads at once.

One kernel applies every single-site Pauli operator: _apply_axis writes
the sigma_x, sigma_x sigma_z or sigma_z row of a site as a signed copy, on
real or complex arrays, vectors or matrices, into a buffer the caller may
own.  The three rows are real, and sigma_y = i sigma_x sigma_z is
_ROW_PHASE[Y] = i times its row, the package's one convention for that
phase.  The Hamiltonian's field term, the correlation matrices' Pauli rows
and the public apply functions all go through the kernel.

Real states stay real.  A state whose imaginary part is all zero is read
through its real view (_real_if_real), and an additive operator runs one
loop of real arithmetic for real and complex amplitudes alike, each
sigma_x sigma_z row landing in the other part of the result.  Each term
rounds c psi[b] once and the terms add in one order, so a real array has
the bits of its complex cast.

Every dot and norm over 2^N amplitudes goes through _vdot and _norm,
summed pairwise by np.sum, and none through BLAS.  OpenBLAS runs level-1
calls of 2^14 entries or more on two threads (not at 2^13, on 2 cores).
Its second thread then busy-waits between calls, about doubling the CPU
time of a run, and once the pool has gone to sleep each threaded call
stalls on its wake-up: such dots and norms were seen to take ~8 ms
instead of ~0.01 ms.  np.sum runs on one thread and its pairwise
summation is at least as accurate as a BLAS dot.

The one threaded LAPACK call of the pure-state paths, the LU of
eigensolve's symmetric-block solves (102 to 362 unknowns at N=12..14,
threaded from 100), runs inside _blas.one_thread(): OpenBLAS on one
thread, the caller's count restored on exit.  _blas's module docstring is
the one list of the scopes pinned that way, and says what a pin means for
the BLAS calls of other threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ContractError, DomainError

# Norm deviation tolerated on states fed to expectation-style operations.
NORM_TOL = 1e-9
# Hermitian expectation values may carry at most this much imaginary residue.
IMAG_TOL = 1e-12
# Variances this far below zero indicate a real defect, not roundoff.
VARIANCE_FLOOR = -1e-10


class PauliAxis(IntEnum):
    """The three Pauli axes.  The integer value doubles as the flattening
    index used by correlation matrices: row 3*(l-1) + axis for site l."""

    X = 0
    Y = 1
    Z = 2


# The kernel's rows are sigma_x, sigma_x sigma_z and sigma_z, all real;
# sigma_a = _ROW_PHASE[a] times row a, since sigma_y = i sigma_x sigma_z.
_ROW_PHASE = np.array([1.0, 1.0j, 1.0])


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> of two arrays of one shape, conjugate on a, summed pairwise by
    np.sum instead of BLAS (see the module docstring).  The products go
    into the one array the conjugate allocates."""
    products = np.conjugate(a, dtype=np.result_type(a, b))
    products *= b
    return complex(np.sum(products))


def _norm(a: np.ndarray) -> float:
    """The 2-norm of an array, summed pairwise like _vdot; a complex array
    is read as its interleaved real and imaginary parts."""
    if np.iscomplexobj(a):
        a = np.ascontiguousarray(a).view(np.float64)
    return math.sqrt(np.sum(a * a))


def _require_unit_norm(amps: np.ndarray, tol: float = NORM_TOL) -> None:
    """ContractError unless the array's 2-norm is 1 within ``tol``."""
    dev = abs(_norm(amps) - 1.0)
    if dev > tol:
        raise ContractError(
            f"state norm deviates from 1 by {dev:.3e} (tolerance {tol:.1e})"
        )


def _real_if_real(amps: np.ndarray) -> np.ndarray:
    """The real part of a complex array whose imaginary part is all zero,
    else the array itself: the one test by which a real-valued state takes
    the real-arithmetic kernels."""
    if np.iscomplexobj(amps) and not amps.imag.any():
        return amps.real
    return amps


class StateVector:
    """Complex amplitude vector over the z basis of ``n_sites`` spins.

    Instances are immutable; the amplitude array is a read-only copy of the
    input.  Construction does not require unit norm (intermediate vectors,
    projector outputs), but operations that compute expectation values do.
    """

    __slots__ = ("n_sites", "amplitudes")

    def __init__(self, n_sites: int, amplitudes) -> None:
        if not isinstance(n_sites, (int, np.integer)) or n_sites < 1:
            raise DomainError(f"n_sites must be a positive integer, got {n_sites!r}")
        amps = np.array(amplitudes, dtype=np.complex128, copy=True).reshape(-1)
        if amps.shape != (1 << n_sites,):
            raise ContractError(
                f"amplitude vector has length {amps.size}, expected {1 << n_sites}"
            )
        if not np.all(np.isfinite(amps)):
            raise ContractError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "n_sites", int(n_sites))
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def dim(self) -> int:
        return 1 << self.n_sites

    def norm(self) -> float:
        return _norm(self.amplitudes)

    def require_normalized(self, tol: float = NORM_TOL) -> None:
        _require_unit_norm(self.amplitudes, tol)

    def normalized(self) -> "StateVector":
        nrm = self.norm()
        if nrm == 0.0:
            raise DomainError("cannot normalize the zero vector")
        return StateVector(self.n_sites, self.amplitudes / nrm)

    def inner(self, other: "StateVector") -> complex:
        """<self|other> with the conjugate on self."""
        if other.n_sites != self.n_sites:
            raise DomainError("site counts differ")
        return _vdot(self.amplitudes, other.amplitudes)

    def __repr__(self) -> str:
        return f"StateVector(n_sites={self.n_sites})"


def basis_state(n_sites: int, index: int = 0) -> StateVector:
    """The z-basis state |index> on ``n_sites`` spins (default all spins up)."""
    if not isinstance(n_sites, (int, np.integer)) or n_sites < 1:
        raise DomainError(f"n_sites must be a positive integer, got {n_sites!r}")
    if not 0 <= index < (1 << n_sites):
        raise DomainError(f"basis index {index} out of range for {n_sites} sites")
    amps = np.zeros(1 << n_sites, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n_sites, amps)


def ghz_state(n_sites: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if n_sites < 2:
        raise DomainError("a GHZ state needs at least 2 sites")
    amps = np.zeros(1 << n_sites, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return StateVector(n_sites, amps)


def site_bits(n_sites: int, site: int) -> np.ndarray:
    """Bit value of ``site`` in every basis index, shape (2^n,): site l is
    bit n-l, so site 1 is the most significant bit."""
    return (np.arange(1 << n_sites) >> (n_sites - site)) & 1


def popcounts(n_sites: int, idx: np.ndarray | None = None) -> np.ndarray:
    """Number of set bits among the low ``n_sites`` bits of each entry of
    ``idx``, by default of every basis index, shape (2^n,).  A shift-and-mask
    loop, since np.bitwise_count needs numpy 2."""
    if idx is None:
        idx = np.arange(1 << n_sites)
    counts = np.zeros(idx.shape, dtype=np.int64)
    for k in range(n_sites):
        counts += (idx >> k) & 1
    return counts


def mz_diagonal(n_sites: int) -> np.ndarray:
    """Total z magnetization of each basis state: N - 2 * popcount."""
    return (n_sites - 2 * popcounts(n_sites)).astype(np.float64)


def _check_site(n_sites: int, site: int) -> int:
    if not 1 <= site <= n_sites:
        raise DomainError(f"site {site} out of range 1..{n_sites}")
    return site - 1


def _apply_axis(
    amps: np.ndarray, n_sites: int, axis: PauliAxis, site: int, out: np.ndarray | None = None
) -> np.ndarray:
    """The sigma_x, sigma_x sigma_z = -i sigma_y or sigma_z row of ``site``:
    that operator applied to the leading 2^n index of ``amps``, written
    into ``out`` (C-contiguous, of the same shape and dtype; a new array by
    default) and returned.

    The package's one single-site Pauli kernel.  Each row is a signed copy
    of the input's two halves, so it works on real and complex arrays,
    flat state vectors and matrices alike, and never rounds; sigma_y is
    _ROW_PHASE[Y] = i times its row.
    """
    k = _check_site(n_sites, site)
    src = amps.reshape(1 << k, 2, -1)  # site k+1 occupies bit n-1-k, counted from the top
    if out is None:
        out = np.empty(amps.shape, dtype=amps.dtype)
    dst = out.reshape(src.shape)
    if axis == PauliAxis.X:
        dst[:, 0] = src[:, 1]
        dst[:, 1] = src[:, 0]
    elif axis == PauliAxis.Y:
        np.negative(src[:, 1], out=dst[:, 0])
        dst[:, 1] = src[:, 0]
    else:
        dst[:, 0] = src[:, 0]
        np.negative(src[:, 1], out=dst[:, 1])
    return out


def _sigma(amps: np.ndarray, n_sites: int, axis: PauliAxis, site: int) -> np.ndarray:
    """sigma_axis(site) applied to complex amplitudes, as a new array: the
    kernel's row, times _ROW_PHASE[Y] for sigma_y."""
    row = _apply_axis(amps, n_sites, axis, site)
    if axis == PauliAxis.Y:
        row *= _ROW_PHASE[axis]
    return row


def apply_pauli(state: StateVector, axis: PauliAxis, site: int) -> StateVector:
    """Return sigma_axis(site)|state>.  Norm preserved, input untouched."""
    axis = PauliAxis(axis)
    return StateVector(
        state.n_sites, _sigma(state.amplitudes, state.n_sites, axis, site)
    )


def expectation(state: StateVector, axis: PauliAxis, site: int) -> float:
    """<state|sigma_axis(site)|state>, a real number in [-1, 1]."""
    state.require_normalized()
    axis = PauliAxis(axis)
    val = _vdot(state.amplitudes, _sigma(state.amplitudes, state.n_sites, axis, site))
    if abs(val.imag) > IMAG_TOL:
        raise ContractError(
            f"Hermitian expectation carries imaginary residue {val.imag:.3e}"
        )
    return float(min(1.0, max(-1.0, val.real)))


def two_point(
    state: StateVector,
    axis_a: PauliAxis,
    site_a: int,
    axis_b: PauliAxis,
    site_b: int,
) -> complex:
    """<state|sigma_a(site_a) sigma_b(site_b)|state>, b applied first."""
    state.require_normalized()
    n = state.n_sites
    right = _sigma(state.amplitudes, n, PauliAxis(axis_b), site_b)
    left = _sigma(state.amplitudes, n, PauliAxis(axis_a), site_a)
    return _vdot(left, right)


@dataclass(frozen=True)
class AdditiveOperator:
    """Sum of single-site Pauli terms: coeffs[l-1][axis] multiplies
    sigma_axis on site l.  Coefficients are real; identity components are
    omitted since they cancel in every variance."""

    n_sites: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not isinstance(self.n_sites, (int, np.integer)) or self.n_sites < 1:
            raise DomainError(f"n_sites must be a positive integer, got {self.n_sites!r}")
        c = np.asarray(self.coeffs)
        if np.iscomplexobj(c):
            raise ContractError("coefficients must be real")
        c = np.array(c, dtype=np.float64, copy=True)
        if c.shape != (self.n_sites, 3):
            raise ContractError(
                f"coefficient table has shape {c.shape}, expected ({self.n_sites}, 3)"
            )
        if not np.all(np.isfinite(c)):
            raise ContractError("coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "n_sites", int(self.n_sites))
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def total(cls, n_sites: int, axis: PauliAxis) -> "AdditiveOperator":
        """Uniform sum over sites, e.g. the total z magnetization for Z."""
        c = np.zeros((n_sites, 3))
        c[:, int(PauliAxis(axis))] = 1.0
        return cls(n_sites, c)

    @classmethod
    def staggered(cls, n_sites: int, axis: PauliAxis) -> "AdditiveOperator":
        """Alternating-sign sum, site l weighted by (-1)^l."""
        c = np.zeros((n_sites, 3))
        c[:, int(PauliAxis(axis))] = [(-1.0) ** l for l in range(1, n_sites + 1)]
        return cls(n_sites, c)

    def weight(self) -> float:
        """Sum of squared coefficients."""
        return float(np.sum(self.coeffs**2))

    def normalized(self) -> "AdditiveOperator":
        """Rescale so the squared coefficients sum to n_sites."""
        w = self.weight()
        if w == 0.0:
            raise DomainError("cannot normalize the zero operator")
        return AdditiveOperator(self.n_sites, self.coeffs * math.sqrt(self.n_sites / w))

    def apply(self, state: StateVector) -> StateVector:
        """The additive operator applied to a state (unnormalized result)."""
        if state.n_sites != self.n_sites:
            raise DomainError("operator and state disagree on the site count")
        return StateVector(self.n_sites, self._apply_to(state.amplitudes))

    def _apply_to(self, amps: np.ndarray) -> np.ndarray:
        """The operator applied to 2^N amplitudes, as a new complex array
        that callers reading only a norm or an overlap need not copy into
        a StateVector.

        Real and imaginary parts run through one loop in real arithmetic.
        Each term of each part is one kernel row in one reused buffer,
        scaled once by its coefficient and added to the real or the
        imaginary accumulator: sigma_y = i sigma_x sigma_z, so a sigma_x
        sigma_z row of the real part lands in the imaginary one, and one
        of the imaginary part is subtracted from the real one.  Every
        entry rounds c psi[b] once and the terms add in table order, so
        a float64 array has the bits of the same array cast to complex."""
        n = self.n_sites
        parts = (amps.real, amps.imag) if np.iscomplexobj(amps) else (amps,)
        acc = np.zeros((2, *amps.shape))  # real and imaginary parts
        term = np.empty(amps.shape)
        for i, a in zip(*np.nonzero(self.coeffs)):
            axis = PauliAxis(a)
            to_imag = axis == PauliAxis.Y
            for p, part in enumerate(parts):
                _apply_axis(part, n, axis, i + 1, out=term)
                term *= self.coeffs[i, a]
                if to_imag and p:
                    acc[0] -= term
                else:
                    acc[p ^ to_imag] += term
        out = acc[0].astype(np.complex128)
        out.imag = acc[1]
        return out


def additive_variance(state: StateVector, op: AdditiveOperator) -> float:
    """<A^2> - <A>^2 for an additive operator A.  Nonnegative; tiny negative
    roundoff is clamped to zero."""
    state.require_normalized()
    if op.n_sites != state.n_sites:
        raise DomainError("operator and state disagree on the site count")
    amps = _real_if_real(state.amplitudes)
    phi = op._apply_to(amps)
    mean = _vdot(amps, phi).real
    # A is Hermitian with real coefficients, so <A^2> = ||A psi||^2
    var = _vdot(phi, phi).real - mean * mean
    if var < VARIANCE_FLOOR:
        raise ContractError(f"variance {var:.3e} below the roundoff floor")
    return max(var, 0.0)
