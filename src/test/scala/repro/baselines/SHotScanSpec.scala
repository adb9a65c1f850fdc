package repro.baselines

import repro.{SparkSpec, TensorGen}
import repro.linalg.DenseMatrix
import repro.tensor.{DenseTensor, SparseTensor}

/** S-HOT must compute the same math as dense HOOI (both are Algorithm 1 with
  * zeros for missing entries) — only the evaluation strategy differs.
  */
class SHotScanSpec extends SparkSpec {

  private def subspaceDistance(a: DenseMatrix, b: DenseMatrix): Double =
    (a * a.transpose).maxAbsDiff(b * b.transpose)

  private lazy val tensor: SparseTensor =
    TensorGen.uniform(spark, Array(12, 10, 8), 300, seed = 2).persisted()

  test("factor subspaces match dense HOOI after the same number of sweeps") {
    val dense = DenseTensor.fromEntries(tensor.dims, tensor.collectEntries().toIndexedSeq)
    val hooi = TuckerHooi.fitDense(dense, Array(2, 2, 2), maxIters = 5, seed = 17)
    val shot = SHotScan.fit(spark, tensor, Array(2, 2, 2), maxIters = 5, partitions = 3, seed = 17)
    for (n <- 0 until 3) {
      val d = subspaceDistance(hooi.factors(n), shot.factors(n))
      assert(d < 1e-6, s"mode-$n subspace distance $d")
    }
  }

  test("core matches dense HOOI contraction") {
    val dense = DenseTensor.fromEntries(tensor.dims, tensor.collectEntries().toIndexedSeq)
    val shot = SHotScan.fit(spark, tensor, Array(2, 2, 2), maxIters = 4, partitions = 2, seed = 17)
    val direct = TuckerHooi.coreOf(dense, shot.factors)
    assert(shot.core.toDense.maxAbsDiff(direct) < 1e-8)
  }

  test("factors are column-orthonormal") {
    val shot = SHotScan.fit(spark, tensor, Array(3, 3, 3), maxIters = 2, partitions = 2)
    shot.factors.foreach(f => assert(f.gram.maxAbsDiff(DenseMatrix.eye(f.cols)) < 1e-8))
  }

  test("a rank above its dimension or its Kronecker length fails before the first scan, naming the mode") {
    val t = tensor // dims (12, 10, 8); generated before counting jobs
    val aboveDim = rejectedBeforeAnyJob(SHotScan.fit(spark, t, Array(2, 2, 9), maxIters = 1))
    assert(aboveDim.getMessage.contains("mode 2"), aboveDim.getMessage)
    val aboveKron = rejectedBeforeAnyJob(SHotScan.fit(spark, t, Array(1, 1, 2), maxIters = 1))
    assert(aboveKron.getMessage.contains("mode 2"), aboveKron.getMessage)
  }

  test("kronOffset puts the first non-target mode fastest") {
    val ranks = Array(2, 3, 2)
    // mode 0 excluded: offset of (j1, j2) must be j1 + 3*j2
    assert(HooiCommon.kronOffset(Array(9, 1, 0), ranks, 0) == 1)
    assert(HooiCommon.kronOffset(Array(9, 0, 1), ranks, 0) == 3)
    assert(HooiCommon.kronOffset(Array(9, 2, 1), ranks, 0) == 5)
  }

  test("coreFromEntries equals the literal definition") {
    val t = TensorGen.uniform(spark, Array(5, 4, 3), 30, seed = 3)
    val factors = Array.tabulate(3)(n => DenseMatrix.rand(t.dims(n), 2, 40 + n))
    val core = HooiCommon.coreFromEntries(spark, t.entriesRdd(2), factors, Array(2, 2, 2))
    val entries = t.collectEntries()
    core.entries.foreach { cell =>
      val want = entries.map { case (idx, x) =>
        x * (0 until 3).map(k => factors(k)(idx(k), cell.idx(k))).product
      }.sum
      assert(math.abs(cell.value - want) < 1e-10)
    }
  }
}
