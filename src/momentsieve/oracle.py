"""Synthetic ground truth from prescribed finite zero sets.

A finite list of nonzero complex values lambda_n (closed under conjugation,
so that the product has real coefficients) determines the polynomial

    f(z) = prod_n (1 + z / lambda_n),

whose moments, log-derivative data, and admissibility constants are all
available in closed form.  Every identity the rest of the library relies on
is term-wise, so finite truncations exercise the full code paths:

* :func:`product_to_series` expands the product by convolution,
* :func:`moments_from_zeros` sums lambda^(-(k+2)) directly,
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
    "ZeroSet",
    "admissibility",
    "load_zeros",
    "moments_from_zeros",
    "parse_zeros",
    "product_to_series",
    "save_zeros",
]


def _imag_threshold() -> mpf:
    return mpf(2) ** (-(mp.prec - 16))


def _pair_conjugates(raw: Sequence) -> Tuple[mpc, ...]:
    """Canonicalize a zero list into exact conjugate pairs plus reals.

    Non-real entries are matched to a conjugate partner within a relative
    tolerance of 2^-(prec-16); missing partners are added.  Each pair is
    stored as (z, conj(z)) exactly, so downstream imaginary parts cancel
    analytically.  A zero that is not finite or has a nonpositive real
    part is rejected by its index in ``raw``.
    """
    tol = _imag_threshold()
    reals: List[mpf] = []
    upper: List[mpc] = []
    lower: List[mpc] = []
    for i, z in enumerate(raw):
        z = to_mpc(z)
        if not mpmath.isfinite(z):
            raise DomainError(f"zero at index {i} is not finite: {z}")
        if z == 0:
            raise DomainError(f"zero at index {i} is 0")
        if not z.real > 0:
            raise DomainError(
                f"zero at index {i} has nonpositive real part ({z})")
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
        pairs.append(z)
    pairs.extend(mpmath.conj(w) for w in lower)
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
    def from_zeros(cls, raw: Sequence) -> "ZeroSet":
        zeros = _pair_conjugates(raw)
        beta0 = min([mpf(1)] + [z.real / abs(z) for z in zeros])
        gamma0 = min((z.real for z in zeros), default=mpf("inf"))
        return cls(zeros=zeros, beta0=beta0, gamma0=gamma0)

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

    Conjugate closure makes every coefficient analytically real.  A set
    with a conjugate pair convolves in complex arithmetic, and each
    coefficient's imaginary residue is checked against 2^-(prec-16)
    relative to the coefficient and then discarded.  An all-real set
    convolves in real arithmetic, on the real parts of the same
    reciprocals, so it gets the same values.  The result is normalized
    (a_0 = 1 by construction).  The radius of a_i, 8 (Z+1) 2^-prec times
    a_i of the product over the Z moduli |lambda|, bounds the convolution
    rounding; for an all-real set (positive lambda) that product is the
    series itself.
    """
    u = 8 * (len(zs.zeros) + 1) * mpf(2) ** -mp.prec
    if not any(z.imag for z in zs.zeros):
        real: List[mpf] = [mpf(1)]
        for z in zs.zeros:
            r = (1 / z).real
            real = [c + p * r for c, p in zip(real + [0], [0] + real)]
        return SeriesPrefix(tuple(real), tuple(u * c for c in real))
    coeffs: List[mpc] = [mpc(1)]
    sizes: List[mpf] = [mpf(1)]
    for z in zs.zeros:
        r = 1 / z
        coeffs = [c + p * r for c, p in zip(coeffs + [0], [0] + coeffs)]
        sizes = [c + p / abs(z) for c, p in zip(sizes + [0], [0] + sizes)]
    real = tuple(_real_part_checked(c, abs(c), f"coefficient a_{i}")
                 for i, c in enumerate(coeffs))
    return SeriesPrefix(real, tuple(u * c for c in sizes))


def moments_from_zeros(zs: ZeroSet, M: int) -> MomentSequence:
    """m_k = sum_n lambda_n^(-(k+2)) for k = 0..M, the defining zero sums.

    Real zeros are summed in real arithmetic, conjugate pairs in complex;
    only a set with a pair has an imaginary residue to check.  Radius:
    the rounding bound (k+4) sum_n |lambda_n|^-(k+2) 2^-(prec-4).
    """
    if M < 0:
        raise DomainError("M must be >= 0")
    inv = [1 / z if z.imag else 1 / z.real for z in zs.zeros]
    pairs = any(z.imag for z in zs.zeros)  # else every power is positive
    powers = [r * r for r in inv]
    u = mpf(2) ** -(mp.prec - 4)
    out, radii = [], []
    for k in range(M + 1):
        total = mpmath.fsum(powers)
        if pairs:
            scale = mpmath.fsum(abs(p) for p in powers)
            total = _real_part_checked(mpc(total), scale, f"moment m_{k}")
        else:  # a real sum by construction
            scale = total
        out.append(total)
        radii.append((k + 4) * scale * u)
        powers = [p * r for p, r in zip(powers, inv)]
    return MomentSequence(tuple(out), radii=tuple(radii))


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
    zs = ZeroSet.from_zeros(zeros)
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
        if not (mpmath.isfinite(re) and mpmath.isfinite(im)):
            raise DomainError(f"line {lineno}: non-finite value {raw_line!r}")
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
