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
keyword default, of any function or method, public or private, that no
caller sets (a refused test call sets nothing): a fixed choice is a
module constant, named at its step if it is public. It also fails on a
step of 1-7 without an Orders: line naming a test that measures the
step's order at three or more n, h or s; on a module of malab other
than grid that checks a field's finiteness (np.isfinite) or grid (!=)
by hand instead of through grid's input guards; and on an np.roll
anywhere in malab or a constant-fill np.pad outside grid: every read of
a domain lattice's neighbours goes through grid._shifted and
grid._erode, which pad, so a step past the lattice's edge reads the
fill, never a wrapped node.

1. The Monge-Ampere DN map phi -> d_nu u, with det D^2 u = F, u = phi.
   Realized by dnmap.dn_full over maforward.solve_ma: damped Newton on
   the 9-point stencil with quadratic ghosts, inexact GMRES steps
   (maforward.KRYLOV_RESTART, maforward.KRYLOV_CYCLES) and the stopping
   rules maforward.NEWTON_TOL (or a row's floor, maforward.NEWTON_FLOOR),
   maforward.NEWTON_MAX_ITER and maforward.DAMPING_MIN;
   maforward.eval_boundary_data reads the data.
   Tests: test_maforward.py::test_manufactured_quartic,
   test_maforward.py::test_radius_five_and_eight_disks_converge,
   test_dnmap.py::test_dn_full_quartic_solution.
   Orders: test_maforward.py::test_quartic_solution_is_second_order,
   test_dnmap.py::test_dn_full_is_second_order_on_the_quartic_base.
2. The boundary Hessian of u from the DN map.
   Realized by dnmap.recover_boundary_hessian and
   dnmap.recover_boundary_third.
   Tests: test_dnmap.py::test_recover_hessian_quartic_base,
   test_dnmap.py::test_recover_third_quartic_base.
   Orders: test_dnmap.py::test_recover_hessian_is_second_order_on_the_quartic_base.
3. The Hessian metric g = D^2 u.
   Realized by linearize.metric_from_solution, the inverse of
   linearize.solution_hessian, the Newton stencil's own Hessian.
   Tests: test_linearize.py::test_metric_from_solution_deep_accuracy,
   test_linearize.py::test_newton_jacobian_is_F_times_the_linearized_operator.
   Orders: test_linearize.py::test_rim_stencil_hessian_is_first_order.
4. The DN map of g^{ab} d_ab v = 0, the linearization of step 1.
   Realized by dnmap.dn_lin, dnmap.dn_lin_matrix (a dnmap.DNMatrix),
   linearize.nondiv_solve_many, which refuses metrics beyond
   linearize.ANISOTROPY_LIMIT and solves to the residual bound
   linearize.SOLVE_RTOL, and linearize.drift_field; its system is the
   weighted sparse sum, assembled once by a maforward.StencilOps, of the
   CSR operators that step 1's Newton Jacobian applies term by term.
   Certified by dnmap.dn_full_derivative (the derivative of step 1),
   linearize.divergence_form_apply (the divergence form with the drift)
   and linearize.eps_consistency (a linearize.EpsReport of the expansion
   slopes, at the data steps linearize.EPS1 and linearize.EPS2).
   Tests: test_dnmap.py::test_dn_full_derivative_quadratic_remainder,
   test_linearize.py::test_divergence_form_identity_deep,
   test_dnmap.py::test_dn_lin_steklov_diagonal.
   Orders: test_linearize.py::test_eps_consistency_quartic_base,
   test_dnmap.py::test_dn_lin_sees_the_conformal_class_and_only_it.
5. The conformal class of g, without diffeomorphism invariance.
   Realized by geomkit.isothermal (the isothermal chart, conformal to
   geomkit.CONFORMAL_TOL over the core disk; step 1's GMRES solves its
   Beltrami equation, whose coefficient keeps geomkit.BELTRAMI_MARGIN
   from 1, to geomkit.BELTRAMI_RTOL in geomkit.BELTRAMI_MAX_ITER Krylov
   iterations), geomkit.diffeo_rigidity_solve (the coordinates are fixed
   by their boundary values), geomkit.pullback_metric and
   geomkit.invert_diffeo (a chord step to geomkit.INVERSION_RTOL within
   geomkit.INVERSION_MAX_ITER steps, both sampling through one
   grid._CubicBlock per point set) on a geomkit.DiffeoField. The inverse,
   and so the chart, is defined on the box's data region inside the
   wraparound margin, which holds the core disk; in the margin, where
   preimages alias through the period, the chart is the identity.
   Certified by geomkit.transform_solution_check (a
   geomkit.TransformReport).
   Tests: test_geomkit.py::test_isothermal_chart_properties,
   test_geomkit.py::test_isothermal_converges_on_the_quartic_family,
   test_geomkit.py::test_isothermal_converges_on_the_quartic_base_refined_box,
   test_geomkit.py::test_isothermal_quartic_corners,
   test_geomkit.py::test_isothermal_converges_on_the_steep_quartic_family,
   test_geomkit.py::test_isothermal_up_to_the_beltrami_margin,
   test_geomkit.py::test_invert_converges_on_the_quartic_charts,
   test_geomkit.py::test_invert_takes_at_most_seven_loop_blocks,
   test_grid.py::test_cubic_block_samples_the_eager_formula_bitwise,
   test_grid.py::test_cubic_block_holds_at_most_96_bytes_a_point,
   test_geomkit.py::test_rigidity_returns_identity,
   test_geomkit.py::test_transform_check_generic_triple.
   Orders: test_complexcalc.py::test_beurling_transform_is_second_order.
6. The CGO asymptotics of -lap v + X . grad v + q v = 0.
   Realized by cgo.build_cgo_holo, cgo.build_cgo_antiholo and
   cgo.build_cgo_adjoint (each a cgo.CGOBundle whose remainder series
   stops once the bound on its tail falls to cgo.SERIES_RTOL of its first
   term, at depth cgo.DEPTH_CAP at most, on a cgo.PhaseSpec from
   cgo.phase_spec, measured on the core disk of radius
   grid.PaddedGrid.core_radius, set by
   grid.MARGIN_DIVISOR, by cgo.drift_residual) through windowed private
   forms of each step, whose oscillatory plan reads
   grid.PaddedGrid.data_window and resolves complexcalc.NODES_PER_OSC
   nodes per wavelength. A bundle's v is the CGO solution
   exp(Phi/h - i alpha) (a + r) on the core window, the bounding box of
   the core disk, where r lives and the residual reads it; outside that
   window v, s and r are exactly 0. The box forms that certificates and
   tests read are cgo.gauge, cgo.factor_potential, cgo.series_weights,
   cgo.neumann_T, complexcalc.oscillatory_dbar_inv and
   complexcalc.smooth_cutoff; from them
   test_cgo.py::test_windowed_series_equals_full_box_rebuild and
   test_cgo.py::test_remainder_rebuilds_bitwise rebuild a bundle bit
   for bit, and
   test_cgo.py::test_stopped_series_meets_its_tail_bound_and_the_full_residual
   holds the stopped series to the full one.
   Certified by cgo.remainder_expansion (the h-expansion of the
   remainder), cgo.factorization_check (the gauge factorization on a
   fixed probe) and cgo.cz_diagnostic (the Calderon-Zygmund bound,
   weighted by h^(1/2 - cgo.CZ_EPS)). cgo.drift_residual's normalizer
   carries no length (1.45e-3 (6 / L)^2 at h = 1 on half width L), so its
   bounds, the tests' 1e-4, hold their meaning only near half width 6.
   Tests: test_cgo.py::test_factorization_residual_random_drifts,
   test_cgo.py::test_cz_diagnostic_bounded_on_sweep,
   test_cgo.py::test_bundle_residuals_small.
   Orders: test_cgo.py::test_remainder_expansion_slopes,
   test_complexcalc.py::test_cauchy_transform_is_fourth_order.
7. The nonlocal dbar equation. Its inputs are the second linearization
   linearize.second_solve and the adjoint solution, and grid.quadrature
   integrates their pairing. On step 3's Hessian metric, F g^{ab} d_ab is
   cof(D^2 u) : D^2, formally self-adjoint in L^2(dx) because the
   cofactor matrix of a Hessian is divergence-free, so the adjoint
   solution with data phi* is sqrt F psi, psi a step-4 solution
   (linearize.nondiv_solve_many) with data phi* / sqrt F: no system of
   its own.
   Certified by dnmap.pairing_gap (the Green pairing of the two against
   the conormal derivative on the ring, all its solves on one
   factorization).
   Tests: test_linearize.py::test_second_solve_poisson_oracle,
   test_linearize.py::test_adjoint_duality_quadrature (the self-adjointness
   of diag(F) times the solver's own system).
   Orders: test_dnmap.py::test_pairing_gap_is_second_order_on_the_quartic_base.
8. F. No code recovers F yet.

Steps 1-4 are the domain half, steps 5-6 the padded-box half (apart
from geomkit.diffeo_rigidity_solve, a domain solve). Both halves share
the lattices and fields of grid (the domain's ring is a
grid.BoundaryRing, and every lattice's lengths lie in grid.SCALE_RANGE,
where its arithmetic holds) and one first derivative of a periodic or domain
field, complexcalc.deriv: spectral on the box, masked differences on the
domain, whose one Hessian is the Newton stencil's (step 3). A CGO
solution is not periodic, so the box certificates (cgo.drift_residual,
cgo.cz_diagnostic and the amplitude's holomorphy check) use 4th-order
differences instead. The box work of steps 5-6 needs numpy only; the
domain half loads scipy.sparse at the first maforward.build_stencil_ops
that builds operators.
"""

__version__ = "0.1.0"
