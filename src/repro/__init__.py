"""repro — SOS-based verification of inevitability of phase-locking in CP PLLs.

Reproduction of: Ul Asad, H. & Jones, K. D., "Verifying inevitability of
phase-locking in a charge pump phase lock loop using sum of squares
programming", DAC 2015.

Subpackages
-----------
``repro.polynomial``
    Multivariate polynomial algebra (variables, monomials, calculus, Gram forms).
``repro.sdp``
    Pure numpy/scipy conic solvers (ADMM, and an interior-point method that
    proves infeasibility with a checked Farkas certificate) and the
    ``SolveContext`` that owns their cache and counters.
``repro.sos``
    SOS programming layer: constraints, S-procedure, certificate validation.
``repro.hybrid``
    Hybrid dynamical systems (Goebel-Sanfelice-Teel flavour) and simulation.
``repro.pll``
    Charge-pump PLL behavioural and verification models (3rd and 4th order).
``repro.core``
    The paper's contribution: multiple Lyapunov certificates, level-set
    maximisation, bounded advection, escape certificates and the end-to-end
    inevitability verification pipeline.
``repro.analysis``
    Projections, sampling-based validation and falsification utilities.
``repro.scenarios``
    Declarative registry of verification workloads (PLLs, buck converter,
    continuous polynomial systems) consumed by the engine and the CLI.
``repro.engine``
    Verification engine: per-scenario job DAGs run inline or across a local
    process pool, with a persistent content-addressed certificate cache and
    metrics snapshots of every run (``python -m repro``).
``repro.sweep``
    Parameter sweeps: certified feasibility frontiers over scenario axes,
    sharded through the engine's executors.

Embedding the verifier takes a ``repro.sdp.SolveContext`` (cache and
counters) and one of three entry points: ``repro.core.InevitabilityVerifier``
(one problem, in-process), ``repro.engine.VerificationEngine`` (registered
scenarios, inline or on a process pool) and ``repro.sweep.SweepRunner``
(parameter sweeps).
"""

from .exceptions import CertificateError, ModelError, ReproError, VerificationInconclusive

__version__ = "1.1.0"

__all__ = [
    "ReproError",
    "ModelError",
    "CertificateError",
    "VerificationInconclusive",
    "__version__",
]
