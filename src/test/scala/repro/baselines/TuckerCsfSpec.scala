package repro.baselines

import repro.{SparkSpec, TensorGen}
import repro.linalg.DenseMatrix
import repro.tensor.{DenseTensor, TensorEntry}

class TuckerCsfSpec extends SparkSpec {

  private lazy val tensor =
    TensorGen.uniform(spark, Array(10, 9, 8), 250, seed = 6).persisted()

  test("csfTtmcRows equals the naive per-entry Kronecker accumulation") {
    val factors = Array.tabulate(3)(n => DenseMatrix.rand(tensor.dims(n), 2, 30 + n))
    val f = factors.map(m => (m.cols, m.data))
    val entries = tensor.collectEntries().map { case (i, v) => TensorEntry(i, v) }
    for (mode <- 0 until 3) {
      val kronLen = (0 until 3).filter(_ != mode).map(_ => 2).product
      val viaCsf = TuckerCsf.csfTtmcRows(entries.iterator, mode, kronLen, f)
        .toMap
      // naive reference: the literal Kronecker product, first non-target mode fastest
      val Seq(k1, k2) = (0 until 3).filter(_ != mode)
      val naive = entries.groupBy(_.idx(mode)).map { case (i, es) =>
        i -> Array.tabulate(kronLen) { c =>
          es.map(e => e.value * factors(k1)(e.idx(k1), c % 2) * factors(k2)(e.idx(k2), c / 2)).sum
        }
      }
      assert(viaCsf.keySet == naive.keySet)
      viaCsf.foreach { case (i, v) =>
        v.zip(naive(i)).foreach { case (a, b) =>
          assert(math.abs(a - b) < 1e-10, s"mode $mode row $i")
        }
      }
    }
  }

  test("csfTtmcRows on an empty partition yields nothing") {
    val f = Array((2, Array(1.0, 2.0)))
    assert(TuckerCsf.csfTtmcRows(Iterator.empty, 0, 1, f).isEmpty)
  }

  test("prefix reuse is exercised: entries sharing non-target indices accumulate correctly") {
    // three entries sharing (i1, i2) = (0, 0) but different i0 — the CSF walk
    // must reuse the partial product and still key rows by i0.
    val factors = Array(DenseMatrix.rand(3, 2, 1), DenseMatrix.rand(2, 2, 2),
      DenseMatrix.rand(2, 2, 3))
    val f = factors.map(m => (m.cols, m.data))
    val entries = Array(
      TensorEntry(Array(0, 0, 0), 1.0),
      TensorEntry(Array(1, 0, 0), 2.0),
      TensorEntry(Array(2, 0, 0), 3.0))
    val rows = TuckerCsf.csfTtmcRows(entries.iterator, 0, 4, f).toMap
    assert(rows.keySet == Set(0, 1, 2))
    val kron = for (j1 <- 0 until 2; j2 <- 0 until 2)
      yield factors(1)(0, j1) * factors(2)(0, j2)
    for ((i, x) <- Seq((0, 1.0), (1, 2.0), (2, 3.0))) {
      rows(i).zipWithIndex.foreach { case (v, c) =>
        // layout: j1 fastest
        val j1 = c % 2; val j2 = c / 2
        assert(math.abs(v - x * kron(j1 * 2 + j2)) < 1e-12)
      }
    }
  }

  test("a rank above its dimension fails before the first scan, naming the mode") {
    val t = tensor // dims (10, 9, 8); generated before counting jobs
    val e = rejectedBeforeAnyJob(TuckerCsf.fit(spark, t, Array(2, 10, 2), maxIters = 1))
    assert(e.getMessage.contains("mode 1"), e.getMessage)
  }

  test("factor subspaces match dense HOOI") {
    val dense = DenseTensor.fromEntries(tensor.dims, tensor.collectEntries().toIndexedSeq)
    val hooi = TuckerHooi.fitDense(dense, Array(2, 2, 2), maxIters = 4, seed = 17)
    val csf = TuckerCsf.fit(spark, tensor, Array(2, 2, 2), maxIters = 4, partitions = 3, seed = 17)
    for (n <- 0 until 3) {
      val d = (hooi.factors(n) * hooi.factors(n).transpose)
        .maxAbsDiff(csf.factors(n) * csf.factors(n).transpose)
      assert(d < 1e-6, s"mode-$n subspace distance $d")
    }
  }

  test("CSF and S-HOT agree with each other (same HOOI semantics)") {
    val shot = SHotScan.fit(spark, tensor, Array(2, 2, 2), maxIters = 3, partitions = 2, seed = 17)
    val csf = TuckerCsf.fit(spark, tensor, Array(2, 2, 2), maxIters = 3, partitions = 2, seed = 17)
    for (n <- 0 until 3) {
      val d = (shot.factors(n) * shot.factors(n).transpose)
        .maxAbsDiff(csf.factors(n) * csf.factors(n).transpose)
      assert(d < 1e-6, s"mode-$n subspace distance $d")
    }
  }
}
