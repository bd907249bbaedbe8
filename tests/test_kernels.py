"""Tests for kernel definitions: FLOP formulas, patterns, templates, flags."""

import pytest

from repro.algebra import Inverse, InverseTranspose, Matrix, Property, Times, Transpose, Vector
from repro.kernels import Kernel, default_catalog, flops
from repro.kernels.kernel import KernelCall, Program
from repro.matching import Pattern, Substitution, Wildcard


class TestFlopFormulas:
    """The cost conventions of Table 1 and footnote 2 of the paper."""

    def test_gemm(self):
        assert flops.gemm(10, 20, 30) == 2 * 10 * 20 * 30

    def test_trmm_is_half_of_gemm(self):
        m, n = 40, 10
        assert flops.trmm(m, n) == flops.gemm(m, n, m) / 2

    def test_symm_is_half_of_gemm(self):
        m, n = 40, 10
        assert flops.symm(m, n) == flops.gemm(m, n, m) / 2

    def test_syrk_is_half_of_gemm(self):
        m, k = 40, 10
        assert flops.syrk(m, k) == flops.gemm(m, m, k) / 2

    def test_trsm_matches_trmm(self):
        assert flops.trsm(30, 10) == flops.trmm(30, 10)

    def test_posv_is_cholesky_plus_two_solves(self):
        n, nrhs = 30, 10
        assert flops.posv(n, nrhs) == flops.cholesky(n) + 2 * flops.trsm(n, nrhs)

    def test_gesv_is_lu_plus_two_solves(self):
        n, nrhs = 30, 10
        assert flops.gesv(n, nrhs) == flops.lu(n) + 2 * flops.trsm(n, nrhs)

    def test_gesv_more_expensive_than_posv(self):
        assert flops.gesv(100, 10) > flops.posv(100, 10)

    def test_getri_is_two_n_cubed(self):
        assert flops.getri(10) == 2000

    def test_explicit_inversion_plus_product_beats_nothing(self):
        """Explicit inversion followed by GEMM costs more than GESV."""
        n, nrhs = 100, 50
        naive = flops.getri(n) + flops.gemm(n, nrhs, n)
        assert naive > flops.gesv(n, nrhs)

    def test_vector_kernels(self):
        assert flops.gemv(10, 20) == 400
        assert flops.ger(10, 20) == 200
        assert flops.dot(10) == 20
        assert flops.trsv(10) == 100

    def test_diagonal_kernels_are_linear_per_entry(self):
        assert flops.diagmm(10, 20) == 200
        assert flops.diaginv(10) == 10

    def test_transpose_is_free_in_flops(self):
        assert flops.transpose_copy(10, 20) == 0.0


class TestKernelValidation:
    def _pattern(self):
        return Pattern(Times(Wildcard("X"), Wildcard("Y")), name="p")

    def test_efficiency_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            Kernel(
                id="bad",
                display_name="BAD",
                pattern=self._pattern(),
                operands=("X", "Y"),
                cost=lambda s: 1.0,
                efficiency=0.0,
                julia_template="",
                numpy_template="",
            )

    def test_operands_must_appear_in_pattern(self):
        with pytest.raises(ValueError):
            Kernel(
                id="bad",
                display_name="BAD",
                pattern=self._pattern(),
                operands=("X", "Z"),
                cost=lambda s: 1.0,
                efficiency=0.5,
                julia_template="",
                numpy_template="",
            )

    def test_default_memory_traffic_sums_operand_sizes(self):
        kernel = Kernel(
            id="ok",
            display_name="OK",
            pattern=self._pattern(),
            operands=("X", "Y"),
            cost=lambda s: 1.0,
            efficiency=0.5,
            julia_template="",
            numpy_template="",
        )
        substitution = Substitution({"X": Matrix("A", 10, 20), "Y": Matrix("B", 20, 5)})
        assert kernel.memory_traffic(substitution) == 10 * 20 + 20 * 5


class TestCatalogContents:
    def test_families_present(self, catalog):
        families = set(catalog.families)
        for family in ("GEMM", "TRMM", "SYMM", "SYRK", "TRSM", "POSV", "SYSV", "GESV",
                       "DIAGMM", "DIAGSV", "GEMV", "GER", "DOT", "GETRI", "POTRI", "TRTRI"):
            assert family in families

    def test_kernel_count_is_substantial(self, catalog):
        assert len(catalog) > 80

    def test_unique_ids(self, catalog):
        ids = [kernel.id for kernel in catalog]
        assert len(ids) == len(set(ids))

    def test_by_id_lookup(self, catalog):
        assert catalog.by_id("gemm_nn").display_name == "GEMM"

    def test_gemm_has_four_transposition_variants(self, catalog):
        assert len(catalog.by_family("GEMM")) == 4

    def test_trmm_covers_sides_uplo_and_transpositions(self, catalog):
        assert len(catalog.by_family("TRMM")) == 16

    def test_restricted_catalog(self, catalog):
        gemm_only = catalog.restricted(["GEMM"])
        assert set(k.display_name for k in gemm_only) == {"GEMM"}

    def test_extended_catalog_rejects_duplicates(self, catalog):
        with pytest.raises(ValueError):
            catalog.extended([catalog.by_id("gemm_nn")])

    def test_default_catalog_without_combined_inverse(self):
        catalog = default_catalog(include_combined_inverse=False)
        assert "GESV2" not in catalog.families

    def test_default_catalog_without_specialized_kernels(self):
        catalog = default_catalog(include_specialized=False)
        assert "TRMM" not in catalog.families
        assert "GEMM" in catalog.families
        assert "GESV" in catalog.families


class TestCatalogMatching:
    def test_general_product_matches_gemm_only(self, catalog):
        a = Matrix("A", 10, 8)
        b = Matrix("B", 8, 6)
        names = {kernel.display_name for kernel, _ in catalog.match(Times(a, b))}
        assert names == {"GEMM"}

    def test_triangular_product_matches_trmm_and_gemm(self, catalog):
        lower = Matrix("L", 8, 8, {Property.LOWER_TRIANGULAR})
        b = Matrix("B", 8, 6)
        names = {kernel.display_name for kernel, _ in catalog.match(Times(lower, b))}
        assert {"GEMM", "TRMM"} <= names

    def test_spd_solve_matches_posv_sysv_gesv(self, catalog):
        spd = Matrix("A", 8, 8, {Property.SPD})
        b = Matrix("B", 8, 6)
        names = {kernel.display_name for kernel, _ in catalog.match(Times(Inverse(spd), b))}
        assert {"POSV", "SYSV", "GESV"} <= names

    def test_right_hand_side_solve(self, catalog):
        lower = Matrix("L", 6, 6, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
        b = Matrix("B", 8, 6)
        names = {kernel.display_name for kernel, _ in catalog.match(Times(b, Inverse(lower)))}
        assert "TRSM" in names

    def test_inverse_transpose_solve(self, catalog):
        lower = Matrix("L", 6, 6, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
        b = Matrix("B", 6, 4)
        names = {kernel.display_name for kernel, _ in catalog.match(Times(InverseTranspose(lower), b))}
        assert "TRSM" in names

    def test_syrk_matches_gram_product(self, catalog):
        a = Matrix("A", 9, 5)
        names = {kernel.display_name for kernel, _ in catalog.match(Times(Transpose(a), a))}
        assert "SYRK" in names

    def test_matrix_vector_matches_gemv(self, catalog):
        a = Matrix("A", 9, 5)
        v = Vector("v", 5)
        names = {kernel.display_name for kernel, _ in catalog.match(Times(a, v))}
        assert "GEMV" in names

    def test_outer_product_matches_ger(self, catalog):
        u = Vector("u", 9)
        v = Vector("v", 5)
        names = {kernel.display_name for kernel, _ in catalog.match(Times(u, Transpose(v)))}
        assert "GER" in names

    def test_inner_product_matches_dot(self, catalog):
        u = Vector("u", 9)
        v = Vector("v", 9)
        names = {kernel.display_name for kernel, _ in catalog.match(Times(Transpose(u), v))}
        assert "DOT" in names

    def test_diagonal_product_matches_diagmm(self, catalog):
        d = Matrix("D", 7, 7, {Property.DIAGONAL})
        b = Matrix("B", 7, 3)
        names = {kernel.display_name for kernel, _ in catalog.match(Times(d, b))}
        assert "DIAGMM" in names

    def test_combined_inverse_matches_gesv2(self, catalog):
        a = Matrix("A", 7, 7, {Property.NON_SINGULAR})
        b = Matrix("B", 7, 7, {Property.NON_SINGULAR})
        names = {kernel.display_name for kernel, _ in catalog.match(Times(Inverse(a), Inverse(b)))}
        assert "GESV2" in names

    def test_explicit_inversion_patterns(self, catalog):
        spd = Matrix("A", 7, 7, {Property.SPD})
        names = {kernel.display_name for kernel, _ in catalog.match(Inverse(spd))}
        assert {"GETRI", "POTRI"} <= names

    def test_product_kernels_do_not_bind_compound_operands(self, catalog):
        """A GEMM wildcard must not swallow an un-applied inverse (see helpers)."""
        a = Matrix("A", 7, 7, {Property.NON_SINGULAR})
        b = Matrix("B", 7, 5)
        matches = catalog.match(Times(Inverse(a), b))
        for kernel, substitution in matches:
            if kernel.display_name == "GEMM":
                pytest.fail("GEMM must not match an inverted operand")

    def test_every_kernel_cost_is_positive(self, catalog):
        """Every kernel evaluates to a positive, finite FLOP count on generic operands."""
        a = Matrix("X", 12, 12, {Property.SPD, Property.NON_SINGULAR})
        b = Matrix("Y", 12, 12, {Property.NON_SINGULAR})
        substitution = Substitution({"X": a, "Y": b})
        for kernel in catalog:
            cost = kernel.flops(substitution)
            assert cost >= 0.0
            assert cost < float("inf")


class TestKernelCallRendering:
    def test_julia_and_numpy_templates_render(self, catalog):
        a = Matrix("A", 8, 8, {Property.SPD})
        b = Matrix("B", 8, 4)
        expr = Times(Inverse(a), b)
        matches = {k.display_name: (k, s) for k, s in catalog.match(expr)}
        kernel, substitution = matches["POSV"]
        out = Matrix("T1", 8, 4)
        call = KernelCall(kernel=kernel, substitution=substitution, output=out, expression=expr)
        assert "A" in call.julia()
        assert "B" in call.julia()
        assert "T1" in call.numpy()

    def test_program_aggregates(self, catalog):
        a = Matrix("A", 8, 8)
        b = Matrix("B", 8, 4)
        kernel, substitution = catalog.match(Times(a, b))[0]
        call = KernelCall(
            kernel=kernel,
            substitution=substitution,
            output=Matrix("T1", 8, 4),
            flops=kernel.flops(substitution),
        )
        program = Program(calls=[call], output=call.output, strategy="test")
        assert program.total_flops == call.flops
        assert len(program) == 1
        assert program.kernel_names == (kernel.display_name,)
        assert "test" in str(program)
