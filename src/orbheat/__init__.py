"""Heat-trace expansion coefficients and spectral invariants of closed 2-orbifolds.

The package computes the five leading heat-trace asymptotic coefficients
of closed 2-dimensional Riemannian orbifolds of constant curvature,
parses and prints the compact orbifold notation, verifies the
coefficients numerically against the exact spectra of the five flat
square-torus quotients, and implements the classification procedures
that decide when the spectral invariants distinguish two orbifolds.

Each name is imported from the submodule that defines it, its one import
path: `notation` (parse, render), `signature` (orbifold signatures, chi
and the spectral constant c), `heat` (the expansion coefficients), `flat`
(the flat-model spectra and the fit), `classify` (class rosters, scans
and pair verdicts), `tables` (the golden tables) and `cli` (the `orbheat`
command).  `import orbheat` itself loads none of them.
"""
