"""Desk-scale numerical laboratory for the planar Monge-Ampere inverse source problem.

The claim map. The paper proves that on a convex planar domain the
Dirichlet-to-Neumann map of det D^2 u = F determines a positive source F.
Its argument is a chain of steps; each entry below names the functions
that realize one step, the functions that certify it (each returns a
measured residual or slope of the step's identity) and the tests that
hold it to a bound. Functions are module.name under malab, tests are
file::test under tests/. tests/test_packaging.py resolves every name
here. It fails on a public name of malab that no step names, no other
module of malab imports and no benchmark workload in perfbench/ uses;
on a public method or property that no step names and no code in src/
or perfbench/ reads; on a dataclass field that nothing reads; and on a
keyword default that no caller sets (a refused test call sets nothing):
a fixed choice is a module constant, named at its step.

1. The Monge-Ampere DN map phi -> d_nu u, with det D^2 u = F, u = phi.
   Realized by dnmap.dn_full over maforward.solve_ma: damped Newton on
   the 9-point stencil (maforward.CUT_FRACTION), inexact GMRES steps
   (maforward.KRYLOV_RESTART, maforward.KRYLOV_CYCLES) and the stopping
   rules maforward.NEWTON_TOL, maforward.NEWTON_MAX_ITER and
   maforward.DAMPING_MIN; maforward.eval_boundary_data reads the data.
   Tests: test_maforward.py::test_manufactured_quartic,
   test_dnmap.py::test_dn_full_quartic_solution.
2. The boundary Hessian of u from the DN map.
   Realized by dnmap.recover_boundary_hessian and
   dnmap.recover_boundary_third.
   Tests: test_dnmap.py::test_recover_hessian_quartic_base,
   test_dnmap.py::test_recover_third_quartic_base.
3. The Hessian metric g = D^2 u.
   Realized by linearize.metric_from_solution, the inverse of
   linearize.solution_hessian, the Newton stencil's own Hessian.
   Tests: test_linearize.py::test_metric_from_solution_deep_accuracy,
   test_linearize.py::test_newton_jacobian_is_F_times_the_linearized_operator.
4. The DN map of g^{ab} d_ab v = 0, the linearization of step 1.
   Realized by dnmap.dn_lin, dnmap.dn_lin_matrix (a dnmap.DNMatrix),
   linearize.nondiv_solve_many, which refuses metrics beyond
   linearize.ANISOTROPY_LIMIT, and linearize.drift_field; its system,
   like step 1's Newton Jacobian, is assembled once by a
   maforward.StencilOps.
   Certified by dnmap.dn_full_derivative (the derivative of step 1),
   linearize.divergence_form_apply (the divergence form with the drift)
   and linearize.eps_consistency (a linearize.EpsReport of the expansion
   slopes, at the data steps linearize.EPS1 and linearize.EPS2).
   Tests: test_dnmap.py::test_dn_full_derivative_quadratic_remainder,
   test_linearize.py::test_divergence_form_identity_deep,
   test_linearize.py::test_eps_consistency_quartic_base,
   test_dnmap.py::test_dn_lin_steklov_diagonal.
5. The conformal class of g, without diffeomorphism invariance.
   Realized by geomkit.isothermal (the isothermal chart, conformal to
   geomkit.CONFORMAL_TOL over the core disk; its Beltrami iteration keeps
   geomkit.BELTRAMI_MARGIN from 1 and stops at geomkit.BELTRAMI_RTOL
   within geomkit.BELTRAMI_MAX_ITER steps), geomkit.diffeo_rigidity_solve
   (the coordinates are fixed by their boundary values),
   geomkit.pullback_metric and geomkit.invert_diffeo (a fixed point to
   geomkit.INVERSION_RTOL within geomkit.INVERSION_MAX_ITER steps) on a
   geomkit.DiffeoField.
   Certified by geomkit.transform_solution_check (a
   geomkit.TransformReport).
   Tests: test_geomkit.py::test_isothermal_chart_properties,
   test_geomkit.py::test_rigidity_returns_identity,
   test_geomkit.py::test_transform_check_generic_triple.
6. The CGO asymptotics of -lap v + X . grad v + q v = 0.
   Realized by cgo.build_cgo_holo, cgo.build_cgo_antiholo and
   cgo.build_cgo_adjoint (each a cgo.CGOBundle of series depth
   cgo.DEPTH_DEFAULT, on a cgo.PhaseSpec from cgo.phase_spec, measured
   on the core disk of radius half / complexcalc.CORE_DIVISOR), through
   cgo.gauge, cgo.factor_potential, cgo.series_weights, cgo.neumann_T
   and cgo.drift_residual; the oscillatory inverse
   complexcalc.oscillatory_dbar_inv cuts off with
   complexcalc.smooth_cutoff and resolves complexcalc.NODES_PER_OSC
   nodes per wavelength.
   Certified by cgo.remainder_expansion (the h-expansion of the
   remainder), cgo.factorization_check (the gauge factorization on a
   fixed probe) and cgo.cz_diagnostic (the Calderon-Zygmund bound,
   weighted by h^(1/2 - cgo.CZ_EPS)).
   Tests: test_cgo.py::test_remainder_expansion_slopes,
   test_cgo.py::test_factorization_residual_random_drifts,
   test_cgo.py::test_cz_diagnostic_bounded_on_sweep,
   test_cgo.py::test_bundle_residuals_small.
7. The nonlocal dbar equation. Its inputs are the second linearization
   linearize.second_solve and the adjoint solve linearize.adjoint_solve,
   and grid.quadrature integrates their pairing; no code forms the
   identity itself.
   Tests: test_linearize.py::test_second_solve_poisson_oracle,
   test_linearize.py::test_adjoint_duality_quadrature.
8. F. No code recovers F yet.

Steps 1-4 are the domain half, steps 5-6 the padded-box half (apart
from geomkit.diffeo_rigidity_solve, a domain solve). Both halves share
the lattices and fields of grid (the domain's ring is a
grid.BoundaryRing) and one derivative per lattice, complexcalc.deriv:
spectral on the box, complexcalc.masked_deriv1 and
complexcalc.masked_deriv2 on the domain. The box work of steps 5-6
needs numpy only; the domain half loads scipy.sparse at the first
maforward.build_stencil_ops that builds operators.
"""

__version__ = "0.1.0"
