"""Physical parameters, conventions, shared validation and the artifact writer.

Natural units (hbar = c = 1) throughout; the worldsheet parameters tau and
sigma are dimensionless and mode amplitudes carry dimension sqrt(alpha').
The single dimensionful constant is the Regge slope alpha', which doubles
as the diffusion scale of the stochastic process: every non-zero normal
mode diffuses with constant 2*alpha', the zero mode with alpha'.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable


# more float64 values than any machine holds (4 EiB): a larger array is out of
# memory. numpy refuses one near sys.maxsize // 8 values with a ValueError
# that names no size, so callers check this bound before they allocate
MAX_FLOATS = 2**59


class ValidationError(ValueError):
    """Raised when parameters or state data violate an invariant."""


@dataclass(frozen=True)
class StringParams:
    """Immutable physical constants of one string setup.

    Parameters
    ----------
    alpha_prime : float
        Regge slope (length squared, natural units). Must be positive.
    dims : int
        Spacetime dimension D >= 3; the transverse sector has D - 2
        directions.
    mode_cutoff : int
        Largest retained oscillator mode N_max >= 1.
    """

    alpha_prime: float
    dims: int = 26
    mode_cutoff: int = 4

    @property
    def transverse_count(self) -> int:
        return self.dims - 2

    def diffusion(self, n: int) -> float:
        """Diffusion constant of mode ``n``: 2*alpha' for n >= 1, alpha' for n = 0."""
        if n < 0:
            raise ValidationError(f"mode index must be >= 0, got {n}")
        return self.alpha_prime if n == 0 else 2.0 * self.alpha_prime

    def validate(self) -> None:
        errors = validate(self)
        if errors:
            raise ValidationError("; ".join(errors))


def validate(params: StringParams) -> list[str]:
    """Check every parameter invariant; return one message per violation."""
    errors = []
    if not 0 < params.alpha_prime < math.inf:
        errors.append(f"alpha_prime must be finite and positive, got {params.alpha_prime}")
    elif not math.isfinite(4.0 * params.alpha_prime):
        # the oscillator length sqrt(4 alpha' / n) and the diffusion 2 alpha' need it
        errors.append(f"alpha_prime = {params.alpha_prime} is too large: 4 alpha' overflows")
    elif 4.0 * params.alpha_prime < sys.float_info.min:
        # a subnormal 4 alpha' makes the inverse oscillator length n / (4 alpha') overflow
        errors.append(f"alpha_prime = {params.alpha_prime} is too small: 4 alpha' is subnormal")
    if params.dims < 3:
        errors.append(
            f"dims must be >= 3 (no transverse directions otherwise), got {params.dims}"
        )
    if params.mode_cutoff < 1:
        errors.append(f"mode_cutoff must be >= 1, got {params.mode_cutoff}")
    return errors


@dataclass(frozen=True)
class ModeStateSpec:
    """A stationary string state: per-(mode, direction) occupation numbers.

    ``occupations`` maps (n, i) with mode n >= 1 and transverse direction
    i in 1..D-2 to a non-negative excitation number. Directions absent
    from the map are in their ground state. ``zero_mode_momentum`` maps a
    transverse direction i in 1..D-2 to its zero-mode momentum component;
    directions absent from the map carry none.
    """

    occupations: dict[tuple[int, int], int] = field(default_factory=dict)
    zero_mode_momentum: dict[int, float] = field(default_factory=dict)

    def occupation(self, n: int, i: int) -> int:
        return self.occupations.get((n, i), 0)

    def validate(self, params: StringParams) -> None:
        for (n, i), k in self.occupations.items():
            if n < 1:
                raise ValidationError(f"occupation k = {k} needs a mode n >= 1, got n = {n}")
            if n > params.mode_cutoff:
                raise ValidationError(
                    f"mode n = {n} exceeds mode_cutoff {params.mode_cutoff}"
                )
            if not 1 <= i <= params.transverse_count:
                raise ValidationError(
                    f"direction = {i} outside 1..{params.transverse_count}"
                )
            if k < 0:
                raise ValidationError(f"occupation must be >= 0, got k = {k} at ({n},{i})")
        for i in self.zero_mode_momentum:
            if not 1 <= i <= params.transverse_count:
                raise ValidationError(
                    f"direction = {i} outside 1..{params.transverse_count}"
                )

    def momentum_component(self, i: int) -> float:
        return self.zero_mode_momentum.get(i, 0.0)


def write_artifact(path: str | Path, header_lines: Iterable[str], chunks: Iterable[str]) -> Path:
    """Write ``# `` header lines, then the text ``chunks`` (may be a generator) verbatim."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in header_lines)
        fh.writelines(chunks)
    return path
