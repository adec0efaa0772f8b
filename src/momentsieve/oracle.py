"""Synthetic ground truth from prescribed finite zero sets.

A finite list of nonzero complex values lambda_n (closed under conjugation,
so that the product has real coefficients) determines the polynomial

    f(z) = prod_n (1 + z / lambda_n),

whose moments, log-derivative data, and admissibility constants are all
available in closed form.  Every identity the rest of the library relies on
is term-wise, so finite truncations exercise the full code paths:

* :func:`product_to_series` expands the product by convolution,
* :func:`moments_from_zeros` sums lambda^(-(k+2)) directly,
* :func:`even_moments_from_zeros` is the even-function reduction
  (g(z) with zeros +-z_n maps to f with lambda_n = z_n^2),
* :func:`logderiv_identity_check` evaluates (-1)^k (f'/f)^(k)(x) once by
  symbolic polynomial differentiation and once as the partial-fraction sum
  k!/(x+lambda)^(k+1), for use as a consistency oracle,
* :func:`admissibility` computes the real-part domination ratio beta_0 and
  the threshold gamma_0 = min Re(lambda), accepting only gamma_0 > 1 and
  suggesting the rescale f(z/L), L > 1/gamma_0, otherwise.

Zero sets are loadable from text fixtures: one zero per line as decimal
"re im" (or a single "re" for a real zero), '#' starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from mpmath import mp, mpf, mpc
import mpmath

from .moments import MomentSequence, SeriesPrefix
from .numkernel import (
    ConsistencyError,
    DomainError,
    decimal_str,
    to_mpc,
    to_mpf,
)

__all__ = [
    "AdmissibilityReport",
    "EvenZeroSet",
    "ZeroSet",
    "admissibility",
    "even_moments_from_zeros",
    "load_zeros",
    "logderiv_identity_check",
    "moments_from_zeros",
    "parse_zeros",
    "product_to_series",
    "save_zeros",
]


def _imag_threshold(bits: Optional[int] = None) -> mpf:
    if bits is None:
        bits = mp.prec
    return mpf(2) ** (-(bits - 16))


def _pair_conjugates(raw: Sequence, complete: bool) -> Tuple[mpc, ...]:
    """Canonicalize a zero list into exact conjugate pairs plus reals.

    Non-real entries are matched to a conjugate partner within a relative
    tolerance of 2^-(prec-16); with ``complete=True`` missing partners are
    added, otherwise they are an error.  Each matched pair is stored as
    (z, conj(z)) exactly, so downstream imaginary parts cancel analytically.
    """
    tol = _imag_threshold()
    reals: List[mpf] = []
    upper: List[mpc] = []
    lower: List[mpc] = []
    for i, z in enumerate(raw):
        z = to_mpc(z)
        if z == 0:
            raise DomainError(f"zero at index {i} is 0")
        if abs(z.imag) <= tol * abs(z):
            reals.append(z.real)
        elif z.imag > 0:
            upper.append(z)
        else:
            lower.append(z)
    pairs: List[mpc] = []
    for z in upper:
        match = None
        for j, w in enumerate(lower):
            if abs(mpmath.conj(z) - w) <= tol * abs(z):
                match = j
                break
        if match is not None:
            lower.pop(match)
        elif not complete:
            raise DomainError(f"zero {z} lacks a conjugate partner")
        pairs.append(z)
    for w in lower:
        if not complete:
            raise DomainError(f"zero {w} lacks a conjugate partner")
        pairs.append(mpmath.conj(w))
    zeros: List[mpc] = [mpc(r) for r in reals]
    for z in pairs:
        zeros.append(z)
        zeros.append(mpmath.conj(z))
    zeros.sort(key=lambda z: (z.real, abs(z.imag), z.imag < 0))
    return tuple(zeros)


@dataclass(frozen=True)
class ZeroSet:
    """Finite zero list -lambda_n of f, closed under conjugation.

    ``beta0`` is the maximal admissible real-part domination ratio
    min Re(lambda)/|lambda| (equal to 1 for all-real sets); ``gamma0`` is
    min Re(lambda).  Construction requires Re(lambda) > 0 for every zero.
    """

    zeros: Tuple[mpc, ...]
    beta0: mpf
    gamma0: mpf

    @classmethod
    def from_zeros(cls, raw: Sequence, complete: bool = True) -> "ZeroSet":
        zeros = _pair_conjugates(raw, complete)
        beta0 = mpf(1)
        gamma0 = mpf("inf")
        for i, z in enumerate(zeros):
            if not z.real > 0:
                raise DomainError(
                    f"zero at index {i} has nonpositive real part ({z})")
            beta0 = min(beta0, z.real / abs(z))
            gamma0 = min(gamma0, z.real)
        return cls(zeros=zeros, beta0=beta0, gamma0=gamma0)

    def __len__(self) -> int:
        return len(self.zeros)


@dataclass(frozen=True)
class EvenZeroSet:
    """Zeros +-z_n of an even function, one representative per sign pair.

    Requires Re(z) > 0, Re(z^2) > 1 and bounded imaginary parts; under
    lambda = z^2 this is exactly the admissible situation of the general
    criterion.
    """

    zeros: Tuple[mpc, ...]
    bound_M: mpf

    @classmethod
    def from_zeros(cls, raw: Sequence, complete: bool = True) -> "EvenZeroSet":
        zeros = _pair_conjugates(raw, complete)
        bound = mpf(0)
        for i, z in enumerate(zeros):
            if not z.real > 0:
                raise DomainError(
                    f"even zero at index {i} has Re(z) <= 0 ({z})")
            if not (z * z).real > 1:
                raise DomainError(
                    f"even zero at index {i} has Re(z^2) <= 1 ({z})")
            bound = max(bound, abs(z.imag))
        return cls(zeros=zeros, bound_M=bound)

    def squared_zero_set(self) -> ZeroSet:
        return ZeroSet.from_zeros([z * z for z in self.zeros])

    def __len__(self) -> int:
        return len(self.zeros)


# ---------------------------------------------------------------------------
# Closed forms

def _real_part_checked(value: mpc, scale, what: str) -> mpf:
    tol = _imag_threshold()
    bound = tol * (to_mpf(scale) + tol)
    if abs(value.imag) > bound:
        raise ConsistencyError(
            f"residual imaginary part of {what} is {value.imag} "
            f"(allowed {decimal_str(bound)})")
    return value.real


def product_to_series(zs: ZeroSet) -> SeriesPrefix:
    """Expand prod (1 + z/lambda) by successive convolution.

    Conjugate closure makes every coefficient analytically real; the
    imaginary residue is checked against 2^-(prec-16) relative to the
    coefficient and then discarded.  The result is normalized (a_0 = 1 by
    construction).  The radius of a_i, 8 (Z+1) 2^-prec times a_i of the
    product over the Z moduli |lambda|, bounds the convolution rounding.
    """
    coeffs: List[mpc] = [mpc(1)]
    sizes: List[mpf] = [mpf(1)]
    for z in zs.zeros:
        r = 1 / z
        coeffs = [c + p * r for c, p in zip(coeffs + [0], [0] + coeffs)]
        sizes = [c + p / abs(z) for c, p in zip(sizes + [0], [0] + sizes)]
    real = tuple(_real_part_checked(c, abs(c), f"coefficient a_{i}")
                 for i, c in enumerate(coeffs))
    u = 8 * (len(zs.zeros) + 1) * mpf(2) ** -mp.prec
    return SeriesPrefix(real, tuple(u * c for c in sizes))


def moments_from_zeros(zs: ZeroSet, M: int) -> MomentSequence:
    """m_k = sum_n lambda_n^(-(k+2)) for k = 0..M, the defining zero sums.

    Radius: the rounding bound (k+4) sum_n |lambda_n|^-(k+2) 2^-(prec-4).
    """
    if M < 0:
        raise DomainError("M must be >= 0")
    inv = [1 / z for z in zs.zeros]
    powers = [r * r for r in inv]
    out, radii = [], []
    for k in range(M + 1):
        total = mpmath.fsum(powers)
        scale = mpmath.fsum(abs(p) for p in powers)
        out.append(_real_part_checked(mpc(total), scale, f"moment m_{k}"))
        radii.append((k + 4) * scale * mpf(2) ** -(mp.prec - 4))
        powers = [p * r for p, r in zip(powers, inv)]
    return MomentSequence(tuple(out), source="zero-sum", radii=tuple(radii))


def even_moments_from_zeros(zs: EvenZeroSet, M: int) -> MomentSequence:
    """m_k = sum_n z_n^(-(2k+4)), the even-function reduction of the sums."""
    return moments_from_zeros(zs.squared_zero_set(), M)


# polynomial helpers over real mpf coefficient lists (ascending powers)

def _poly_mul(p, q):
    out = [mpf(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_diff(p):
    return [i * c for i, c in enumerate(p)][1:] or [mpf(0)]


def _poly_sub(p, q):
    n = max(len(p), len(q))
    p = p + [mpf(0)] * (n - len(p))
    q = q + [mpf(0)] * (n - len(q))
    return [a - b for a, b in zip(p, q)]


def _poly_eval(p, x):
    acc = mpf(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def logderiv_identity_check(zs: ZeroSet, x, k: int) -> Tuple[mpf, mpf]:
    """Both sides of the log-derivative identity at x >= 0.

    Returns ``(lhs, rhs)`` where lhs is (-1)^k (f'/f)^(k)(x) obtained by
    symbolic quotient-rule differentiation of the expanded polynomial f, and
    rhs is the direct partial-fraction sum k! / (x+lambda)^(k+1).  The two
    are analytically equal; callers assert how close.
    """
    if k < 0:
        raise DomainError("k must be >= 0")
    x = to_mpf(x)
    f = list(product_to_series(zs).coeffs)
    df = _poly_diff(f)
    # track (f'/f)^(j) = N_j / f^(j+1)
    num = df
    for j in range(k):
        num = _poly_sub(_poly_mul(_poly_diff(num), f),
                        [(j + 1) * c for c in _poly_mul(num, df)])
        while len(num) > 1 and num[-1] == 0:
            num.pop()
    lhs = (-1) ** k * _poly_eval(num, x) / _poly_eval(f, x) ** (k + 1)
    fact = mpf(mpmath.factorial(k))
    rhs_c = mpmath.fsum(fact / (x + z) ** (k + 1) for z in zs.zeros)
    scale = mpmath.fsum(fact / abs(x + z) ** (k + 1) for z in zs.zeros)
    rhs = _real_part_checked(mpc(rhs_c), scale, "log-derivative sum")
    return lhs, rhs


# ---------------------------------------------------------------------------
# Admissibility

@dataclass(frozen=True)
class AdmissibilityReport:
    accepted: bool
    beta0: Optional[mpf]
    gamma0: Optional[mpf]
    zero_set: Optional[ZeroSet]
    reason: str
    rejected_index: Optional[int] = None
    suggested_scale_gt: Optional[mpf] = None

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "beta0": decimal_str(self.beta0) if self.beta0 is not None else None,
            "gamma0": decimal_str(self.gamma0) if self.gamma0 is not None else None,
            "reason": self.reason,
            "rejected_index": self.rejected_index,
            "suggested_scale_gt": (decimal_str(self.suggested_scale_gt)
                                   if self.suggested_scale_gt is not None else None),
            "zeros": ([[decimal_str(z.real), decimal_str(z.imag)]
                       for z in self.zero_set.zeros]
                      if self.zero_set is not None else None),
        }


def admissibility(raw: Sequence) -> AdmissibilityReport:
    """Check the admissibility gates on a raw complex zero list.

    Computes the maximal domination ratio beta_0 = min Re(lambda)/|lambda|
    and gamma_0 = min Re(lambda) over the conjugate-completed list.  Accepts
    iff every real part is positive (so some beta_0 in (0,1) works) and
    gamma_0 > 1; when 0 < gamma_0 <= 1 the report suggests rescaling by any
    L > 1/gamma_0, which multiplies every zero by L.
    """
    zeros = [to_mpc(z) for z in raw]
    for i, z in enumerate(zeros):
        if z == 0:
            return AdmissibilityReport(
                accepted=False, beta0=None, gamma0=None, zero_set=None,
                reason=f"zero at index {i} is 0", rejected_index=i)
        if not z.real > 0:
            return AdmissibilityReport(
                accepted=False, beta0=None, gamma0=None, zero_set=None,
                reason=f"nonpositive real part at index {i}",
                rejected_index=i)
    zs = ZeroSet.from_zeros(zeros, complete=True)
    if not zs.gamma0 > 1:
        return AdmissibilityReport(
            accepted=False, beta0=zs.beta0, gamma0=zs.gamma0, zero_set=None,
            reason=f"gamma0 = {decimal_str(zs.gamma0)} <= 1; "
                   "rescale f(z/L) before applying the criterion",
            suggested_scale_gt=1 / zs.gamma0)
    return AdmissibilityReport(
        accepted=True, beta0=zs.beta0, gamma0=zs.gamma0, zero_set=zs,
        reason="admissible")


# ---------------------------------------------------------------------------
# Fixture I/O

def parse_zeros(text: str) -> List[mpc]:
    """Parse zero-fixture text: one "re im" (or "re") per line, '#' comments."""
    zeros = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (1, 2):
            raise DomainError(
                f"line {lineno}: expected 're im' decimal fields, got {raw_line!r}")
        try:
            re = mpf(parts[0])
            im = mpf(parts[1]) if len(parts) == 2 else mpf(0)
        except ValueError as exc:
            raise DomainError(f"line {lineno}: {exc}") from None
        zeros.append(mpc(re, im))
    return zeros


def load_zeros(path: Union[str, Path]) -> List[mpc]:
    return parse_zeros(Path(path).read_text())


def save_zeros(path: Union[str, Path], zeros: Sequence,
               header: Optional[str] = None) -> None:
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    for z in zeros:
        z = to_mpc(z)
        lines.append(f"{decimal_str(z.real)} {decimal_str(z.imag)}")
    Path(path).write_text("\n".join(lines) + "\n")
