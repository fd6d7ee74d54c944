"""Every threshold qorbit compares a computed value against.

Each comment says what the constant bounds and whether it is absolute or relative to a scale.
Modules import the names they use, so ``qorbit.<module>.NAME`` still resolves. The ``1e-300``
guards against division by zero are not thresholds and stay where they are used.
"""

# states: Hermiticity deviation max|m - m^H|, relative to max|m|.
HERMITICITY_RTOL = 1e-12
# states: trace deviation |tr m - 1|, absolute.
TRACE_TOL = 1e-12
# states: lowest eigenvalue a valid density matrix may have, absolute.
EIGENVALUE_FLOOR = -1e-10
# states: diagonal shift of the Cholesky positivity proof, absolute. A factorisation of
# m - POSITIVITY_SHIFT * I succeeds only if lambda_min(m) > -5e-11 - O(D eps |m|), which
# stays above EIGENVALUE_FLOOR by far more than eigvalsh's own O(D eps |m|) error.
POSITIVITY_SHIFT = EIGENVALUE_FLOOR / 2

# bloch: imaginary residue of a Pauli expansion coefficient, absolute.
IMAG_RESIDUE_TOL = 1e-12

# local_action: unitarity of LocalUnitary factors, orthogonality and det of rotations, absolute.
UNITARITY_TOL = 1e-12
# local_action: the same residues of an adjoint_rotation or lift_rotation input, absolute.
SPECIAL_TOL = 1e-10
# local_action: unit-quaternion component counted as zero when fixing the lift branch, absolute.
LIFT_BRANCH_TOL = 1e-12

# invariants: lowest Gram eigenvalue accepted as roundoff, absolute.
GRAM_PSD_TOL = -1e-12
# invariants: disagreement of the two 2-qubit Gram spectra, absolute.
GRAM_PAIR_SPECTRA_TOL = 1e-12
# invariants: single-qubit purity identity |tr rho^2 - (1/2 + 2|alpha|^2)|, absolute.
PURITY_IDENTITY_TOL = 1e-12
# invariants: a degree-k invariant difference, relative to scale^k of the coefficient scale.
COMPARE_RTOL = 1e-8
# invariants: the smallest invariant difference ever counted, absolute.
COMPARE_ABS_FLOOR = 1e-12
# invariants: lowest coefficient scale, absolute, so scale^k stays above zero.
COEFFICIENT_SCALE_FLOOR = 1e-30

# canonical: Gram eigengap, relative to the Gram trace.
EIGENGAP_RTOL = 1e-8
# canonical: smallest |component| of a canonical site vector, absolute.
COMPONENT_TOL = 1e-8
# canonical: |degree-9 sign invariant| of a site, absolute.
SIGN_INVARIANT_TOL = 1e-24
# canonical: component counted as zero when picking a Klein element, relative to 1 + max|component|.
KLEIN_SIGN_RTOL = 1e-12

# equivalence: largest global eigenvalue difference of two states, absolute.
SPECTRUM_TOL = 1e-10
# equivalence: largest canonical component deviation of an equivalent pair, absolute.
CANONICAL_TOL = 1e-6
# equivalence: max|rho1 - rho2| of an identical pair, relative to the largest entry.
IDENTICAL_TOL = 1e-14
# equivalence: BFGS gradient norm at which an oracle restart stops, absolute.
ORACLE_GTOL = 1e-12
# cli: Frobenius residual at which `equiv --oracle` stops restarting, absolute.
ORACLE_STOP_RESIDUAL = 1e-8

# orbit_dim: singular value counted in the orbit dimension, relative to the largest.
RANK_RTOL = 1e-9

# reconstruction: most negative squared component accepted, relative to the largest |square|.
NEGATIVE_SQUARE_HARD = -1e-6
# reconstruction: off-diagonal Gram entry of the recovered triple, relative to the largest diagonal.
DIAGONALITY_RTOL = 1e-6
# reconstruction: recovered vs given sign invariant, relative to the given one.
SIGN_CONSISTENCY_RTOL = 1e-6
# reconstruction: direct vs product-formula Vandermonde determinant, relative to the larger.
VANDER_DET_RTOL = 1e-10
# reconstruction: site factor determinant vs sign invariant, relative to the sign invariant.
DET_PRODUCT_RTOL = 1e-8
# reconstruction: most negative cubic discriminant accepted, absolute on traces over their scale.
CUBIC_DISCRIMINANT_TOL = -1e-9
# reconstruction: largest positive depressed cubic coefficient accepted, absolute as above.
CUBIC_DEPRESSED_TOL = 1e-9
# reconstruction: depressed coefficient from which the cubic has one triple root, absolute as above.
CUBIC_TRIPLE_ROOT_TOL = -1e-30
# reconstruction: lowest recovered Gram eigenvalue, relative to max(1, |tr M|).
NEGATIVE_ROOT_RTOL = -1e-10
# reconstruction: smallest component re-derived vs from its square root, relative to the larger.
PINNED_DRIFT_RTOL = 1e-3
