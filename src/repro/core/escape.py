"""Escape certificates (Proposition 1 and Algorithm 1 line 15 of the paper).

For a compact set ``T`` and mode field ``f_q``, a differentiable certificate
``E`` with ``∇E · f_q <= -delta`` (``delta > 0``) everywhere on ``T`` proves
that every trajectory flowing in that mode leaves ``T`` in finite time
(bounded by ``(max_T E - min_T E) / delta``).  The paper uses this for the
sub-region where bounded advection stays inconclusive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import CertificateError
from ..polynomial import Polynomial
from ..sdp import SolveContext, cone_for_relaxation
from ..sos import (
    SemialgebraicSet,
    SOSProgram,
    add_positivity_on_set,
    validate_nonnegativity,
)
from ..utils import get_logger
from .config import StageConfig

LOGGER = get_logger("core.escape")


@dataclass
class EscapeOptions(StageConfig):
    """Options of the escape-certificate search.

    Inherits the shared stage knobs (``multiplier_degree``,
    ``solver_settings``, ``relaxation``) from
    :class:`~repro.core.config.StageConfig`.
    """

    certificate_degree: int = 2
    decrease_rate: float = 1e-2          # the delta of Proposition 1
    validate_samples: int = 1500
    validation_tolerance: float = 1e-4


@dataclass
class EscapeCertificate:
    """A certified escape function for one mode / region pair."""

    mode_name: str
    certificate: Polynomial
    decrease_rate: float
    region: SemialgebraicSet
    synthesis_time: float
    validation_passed: bool = True

    def escape_time_bound(self, bounds: Sequence[Tuple[float, float]],
                          num_samples: int = 4000, seed: int = 0) -> float:
        """Sampled upper bound ``(max_T E - min_T E) / delta`` on the escape time."""
        rng = np.random.default_rng(seed)
        lows = np.array([b[0] for b in bounds])
        highs = np.array([b[1] for b in bounds])
        points = rng.uniform(lows, highs, size=(num_samples, len(bounds)))
        mask = np.array([self.region.contains(p) for p in points])
        if not np.any(mask):
            return 0.0
        values = self.certificate.evaluate_many(points[mask])
        return float((values.max() - values.min()) / self.decrease_rate)


class EscapeCertificateSynthesizer:
    """Search an escape certificate with an SOS feasibility program."""

    def __init__(self, options: Optional[EscapeOptions] = None,
                 context: Optional[SolveContext] = None):
        self.options = options or EscapeOptions()
        self.context = context

    def synthesize(self, mode_name: str, vector_field: Sequence[Polynomial],
                   region: SemialgebraicSet,
                   bounds: Optional[Sequence[Tuple[float, float]]] = None,
                   ) -> EscapeCertificate:
        """Find ``E`` with ``∇E · f <= -delta`` on ``region``.

        One search under the Gram cone of ``options.relaxation``.  The
        certificate is returned even when its sampling validation failed
        (``validation_passed`` records it); a failed search raises
        :class:`CertificateError` — the SOS relaxation being sound but
        incomplete, that does not prove that no escape certificate exists.
        """
        options = self.options
        start = time.perf_counter()
        variables = region.variables

        program = SOSProgram(name=f"escape_{mode_name}",
                             default_cone=cone_for_relaxation(options.relaxation),
                             context=self.context)
        certificate = program.new_polynomial_variable(
            variables, options.certificate_degree, name="E", min_degree=1)
        lie = certificate.lie_derivative(
            [f.with_variables(variables) for f in vector_field])
        # -lie - delta >= 0 on the region.
        add_positivity_on_set(
            program, -lie - options.decrease_rate, region,
            multiplier_degree=options.multiplier_degree,
            name=f"escape_decrease_{mode_name}",
        )
        solution = program.solve(**options.solver_settings)
        if not solution.is_success:
            raise CertificateError(
                f"no escape certificate found for {mode_name!r}: {solution.status.value}"
            )
        certificate_poly = solution.polynomial(certificate).truncate(1e-12)

        validation_passed = True
        if options.validate_samples > 0 and bounds is not None:
            lie_numeric = certificate_poly.lie_derivative(
                [f.with_variables(variables) for f in vector_field])
            report = validate_nonnegativity(
                -lie_numeric - options.decrease_rate * 0.5, region, bounds,
                num_samples=options.validate_samples,
                tolerance=options.validation_tolerance,
                name=f"escape[{mode_name}]",
            )
            validation_passed = report.passed

        elapsed = time.perf_counter() - start
        LOGGER.info("escape certificate for %s found in %.2fs", mode_name, elapsed)
        return EscapeCertificate(
            mode_name=mode_name,
            certificate=certificate_poly,
            decrease_rate=options.decrease_rate,
            region=region,
            synthesis_time=elapsed,
            validation_passed=validation_passed,
        )


def escape_region_from_advection(final_set: Polynomial,
                                 invariant_sublevel: Polynomial,
                                 region_box: Optional[SemialgebraicSet] = None,
                                 ) -> SemialgebraicSet:
    """The paper's inconclusive region ``X2_adv \\ (X1 ∩ X2_adv)``.

    Semialgebraically: ``{final_set <= 0} ∩ {invariant_sublevel >= 0}`` —
    inside the last advected set but not (certifiably) inside the attractive
    invariant — optionally intersected with the region-of-interest box.
    """
    variables = final_set.variables.union(invariant_sublevel.variables)
    inequalities = [(-final_set).with_variables(variables),
                    invariant_sublevel.with_variables(variables)]
    region = SemialgebraicSet(variables, inequalities=tuple(inequalities),
                              name="escape_region")
    if region_box is not None:
        box = SemialgebraicSet(
            variables,
            inequalities=tuple(p.with_variables(variables)
                               for p in region_box.inequalities),
            equalities=tuple(p.with_variables(variables)
                             for p in region_box.equalities),
            name=region_box.name,
        )
        region = region.intersect(box)
    return region
