"""Strongly quasiconvex minimization: verifiers, flows, solvers, certificates.

The package is organized around five capabilities:

* ``catalog``   ready-made oracles with known moduli and combinators
* ``verify``    sampled checkers for the convexity / monotonicity ladder
* ``flows``     first- and second-order gradient-flow integrators with
                exponential-envelope certificates
* ``solvers``   gradient descent and heavy ball with per-step linear-rate
                certificates
* ``estimate``  empirical constants: sublevel Lipschitz, modulus, curvature
                ratio, reference minimizer

``cli`` ties them together behind the ``sqcflow`` command.  Importing the
package itself loads no numpy; the shared types live in ``core``.
"""

__version__ = "0.1.0"
