"""Class functions, central elements, pairing, integrals, and the Fourier transform.

Class functions live in the basis of irreducible characters chi_i and multiply
through the fusion ring; central elements live in the basis of primitive
idempotents E_i and multiply coordinatewise.  The two spaces pair by
<chi_i, E_j> = d_i delta_ij and are exchanged by the Fourier transform
chi_i <-> (dim/d_i) E_{i*}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fusion_ring import FusionRingData, FusionSubcategory
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "ClassFunction",
    "CentralElement",
    "chi",
    "idempotent",
    "unit_class_function",
    "unit_central_element",
    "cf_star_table",
    "cf_star_blocks",
    "cf_multiply",
    "ce_multiply",
    "pairing",
    "integral",
    "cointegral",
    "antipodal",
    "fourier_inverse",
    "fourier_forward",
    "cf_right_action",
    "tau",
    "beta_tau",
    "pairing_trace_residual",
    "subcategory_cointegral",
    "ell_D",
]


def _freeze(ring: FusionRingData, coeffs) -> np.ndarray:
    c = np.ascontiguousarray(np.asarray(coeffs, dtype=complex))
    if c.shape != (ring.rank,):
        raise ValueError(f"coefficient vector must have length {ring.rank}, got {c.shape}")
    c.setflags(write=False)
    return c


@dataclass(frozen=True, eq=False)
class ClassFunction:
    """Element of CF(C): coordinates in the irreducible-character basis."""

    ring: FusionRingData
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _freeze(self.ring, self.coeffs))

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        _same_ring(self, other)
        return ClassFunction(self.ring, self.coeffs + other.coeffs)

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        _same_ring(self, other)
        return ClassFunction(self.ring, self.coeffs - other.coeffs)

    def __rmul__(self, scalar: complex) -> "ClassFunction":
        return ClassFunction(self.ring, complex(scalar) * self.coeffs)

    def __repr__(self) -> str:
        return f"ClassFunction({np.array2string(self.coeffs, precision=6)})"


@dataclass(frozen=True, eq=False)
class CentralElement:
    """Element of CE(C): coordinates in the primitive-idempotent basis."""

    ring: FusionRingData
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _freeze(self.ring, self.coeffs))

    def __add__(self, other: "CentralElement") -> "CentralElement":
        _same_ring(self, other)
        return CentralElement(self.ring, self.coeffs + other.coeffs)

    def __sub__(self, other: "CentralElement") -> "CentralElement":
        _same_ring(self, other)
        return CentralElement(self.ring, self.coeffs - other.coeffs)

    def __rmul__(self, scalar: complex) -> "CentralElement":
        return CentralElement(self.ring, complex(scalar) * self.coeffs)

    def __repr__(self) -> str:
        return f"CentralElement({np.array2string(self.coeffs, precision=6)})"


def _same_ring(a, b) -> None:
    if a.ring is not b.ring:
        raise ValueError("operands belong to different rings")


def _basis_vector(ring: FusionRingData, i: int) -> np.ndarray:
    v = np.zeros(ring.rank, dtype=complex)
    v[i] = 1.0
    return v


def chi(ring: FusionRingData, i: int) -> ClassFunction:
    """The i-th irreducible character as a class function."""
    return ClassFunction(ring, _basis_vector(ring, i))


def idempotent(ring: FusionRingData, i: int) -> CentralElement:
    """The i-th primitive idempotent E_i as a central element."""
    return CentralElement(ring, _basis_vector(ring, i))


def unit_class_function(ring: FusionRingData) -> ClassFunction:
    """The unit of CF(C): the character of the unit object."""
    return chi(ring, 0)


def unit_central_element(ring: FusionRingData) -> CentralElement:
    """The unit u of CE(C): the sum of all primitive idempotents."""
    return CentralElement(ring, np.ones(ring.rank, dtype=complex))


def cf_star_table(ring: FusionRingData, F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """All star products of two stacks of coefficient vectors: out[a, b] = F[a] * G[b].

    ``F @ N.reshape(r, r*r)`` contracts the first factor in one BLAS product
    (real and imaginary parts separately, so the float N is never cast to
    complex), and one batched ``matmul`` with G contracts the second.  The
    output has shape (len(F), len(G), r); callers with many rows pass F in
    row blocks to bound the len(F) * r * r temporary.
    """
    F = np.asarray(F)
    r = ring.rank
    N = ring.N_float.reshape(r, r * r)
    if np.iscomplexobj(F):
        T = np.empty((F.shape[0], r * r), dtype=complex)
        T.real = F.real @ N
        T.imag = F.imag @ N
    else:
        T = F @ N
    return np.matmul(np.asarray(G), T.reshape(F.shape[0], r, r))


# Cap on the rows * r * r entries of one cf_star_blocks block; it binds for r > 161.
_STAR_BLOCK_ENTRIES = 2**18


def cf_star_blocks(ring: FusionRingData, F: np.ndarray, G: np.ndarray):
    """Yield (lo, cf_star_table(ring, F[lo:hi], G)) over row blocks of F.

    A block has at most r // 16 rows (at least one), fewer when its r * r
    slices would pass ``_STAR_BLOCK_ENTRIES`` entries, so even when F and G
    each hold r vectors no temporary reaches r**3 entries.
    """
    r = ring.rank
    step = max(1, min(r // 16, _STAR_BLOCK_ENTRIES // (r * r)))
    for lo in range(0, len(F), step):
        yield lo, cf_star_table(ring, F[lo : lo + step], G)


def cf_star(ring: FusionRingData, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Raw star product of coefficient vectors through the fusion tensor."""
    return cf_star_table(ring, np.asarray(f)[None], np.asarray(g)[None])[0, 0]


def cf_multiply(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    """Star product: bilinear extension of chi_i * chi_j = sum_k N[i][j][k] chi_k."""
    _same_ring(f, g)
    return ClassFunction(f.ring, cf_star(f.ring, f.coeffs, g.coeffs))


def ce_multiply(a: CentralElement, b: CentralElement) -> CentralElement:
    """Coordinatewise product (the E_i are orthogonal idempotents)."""
    _same_ring(a, b)
    return CentralElement(a.ring, a.coeffs * b.coeffs)


def pairing(f: ClassFunction, a: CentralElement) -> complex:
    """Evaluation pairing, bilinear extension of <chi_i, E_j> = d_i delta_ij."""
    _same_ring(f, a)
    return complex(np.sum(f.coeffs * a.coeffs * f.ring.dims))


def integral(ring: FusionRingData) -> CentralElement:
    """The idempotent integral: the idempotent of the unit object, E_0."""
    return idempotent(ring, 0)


def cointegral(ring: FusionRingData) -> ClassFunction:
    """The idempotent cointegral: coefficients d_{i*}/dim(C) on chi_i."""
    dual = np.array(ring.dual)
    return ClassFunction(ring, ring.dims[dual] / ring.global_dim)


def antipodal(a: CentralElement) -> CentralElement:
    """Linear extension of E_i -> E_{i*}; an involution."""
    dual = np.array(a.ring.dual)
    return CentralElement(a.ring, a.coeffs[dual])


def _fourier_inverse_raw(ring: FusionRingData, f: np.ndarray) -> np.ndarray:
    """Inverse Fourier image of each coefficient vector along the last axis of f."""
    dual = np.array(ring.dual)
    return f[..., dual] * ring.global_dim / ring.dims[dual]


def fourier_inverse(f: ClassFunction) -> CentralElement:
    """Inverse Fourier transform: chi_i -> (dim(C)/d_i) E_{i*}, extended linearly."""
    return CentralElement(f.ring, _fourier_inverse_raw(f.ring, f.coeffs))


def fourier_forward(a: CentralElement) -> ClassFunction:
    """Fourier transform CE -> CF, the exact inverse of :func:`fourier_inverse`."""
    ring = a.ring
    dual = np.array(ring.dual)
    return ClassFunction(ring, a.coeffs[dual] * ring.dims / ring.global_dim)


def cf_right_action(f: ClassFunction, b: CentralElement) -> ClassFunction:
    """Right action of CE on CF; diagonal in the matched bases: chi_i <- E_j = delta_ij chi_i."""
    _same_ring(f, b)
    return ClassFunction(f.ring, f.coeffs * b.coeffs)


def tau(f: ClassFunction) -> complex:
    """Multiplicity of the unit object: the chi_0 coordinate."""
    return complex(f.coeffs[0])


def beta_tau(f: ClassFunction, g: ClassFunction) -> complex:
    """The trace form tau(f * g); {chi_i, chi_{i*}} are dual bases for it."""
    _same_ring(f, g)
    return complex(cf_star(f.ring, f.coeffs, g.coeffs)[0])


def pairing_trace_residual(f: ClassFunction, g: ClassFunction) -> float:
    """Residual of <f, F^{-1}(g)> = dim(C) tau(f*g); zero in exact arithmetic."""
    _same_ring(f, g)
    lhs = pairing(f, fourier_inverse(g))
    rhs = f.ring.global_dim * beta_tau(f, g)
    return abs(lhs - rhs)


def subcategory_cointegral(D: FusionSubcategory) -> ClassFunction:
    """Idempotent cointegral of a fusion subcategory, embedded in CF(C)."""
    ring = D.ring
    coeffs = np.zeros(ring.rank, dtype=complex)
    for i in D.indices:
        coeffs[i] = ring.dims[ring.dual[i]] / D.fpdim
    return ClassFunction(ring, coeffs)


def ell_D(D: FusionSubcategory, tol: Tolerance = DEFAULT_TOL) -> CentralElement:
    """Inverse Fourier image of the subcategory cointegral.

    Equals (dim(C)/fpdim(D)) * sum of the idempotents indexed by D; the closed
    form is verified against the transform before returning.
    """
    ring = D.ring
    out = fourier_inverse(subcategory_cointegral(D))
    closed = np.zeros(ring.rank, dtype=complex)
    closed[list(D.indices)] = ring.global_dim / D.fpdim
    if not tol.allclose(out.coeffs, closed):
        raise ArithmeticError("closed form for the subcategory integral image failed")
    return out
