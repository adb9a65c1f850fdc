package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.{ProductKernel, TuckerModel}
import repro.tensor.SparseTensor

/** S-HOT_scan [17]: HOOI for large sparse tensors that never materializes
  * the intermediate `Y = X ×_{k≠n} A^(k)ᵀ` — every quantity is recomputed by
  * scanning the nonzeros on the fly (missing entries are zeros, as in
  * Algorithm 1).
  *
  * Spark analog of the scan, as the TTMc step of [[HooiCommon.fit]]: each
  * nonzero contributes `x_α · ⊗_{k≠n} a^(k)_{i_k,:}` (one
  * [[ProductKernel.kron]] row, built afresh per entry, no reuse) to row
  * `i_n` of the implicit `Y_(n)`; the shared sweep sums the rows by key with
  * a map-side combine, reduces the `L×L` Gram matrix where the rows live, and
  * the driver only sees `O(J^{2(N-1)})` intermediate data — the same
  * asymptotic footprint the paper credits S-HOT with, versus P-Tucker's
  * `O(T·J²)`.
  *
  * Must numerically match [[TuckerHooi]] (same math); `SHotScanSpec` checks.
  */
object SHotScan {

  def fit(spark: SparkSession, tensor: SparseTensor, ranks: Array[Int],
          maxIters: Int = 20, partitions: Int = 0, seed: Long = 17): TuckerModel =
    HooiCommon.fit(spark, tensor, ranks, maxIters, partitions, seed) { (part, mode, kronLen, factors) =>
      val kernel = ProductKernel(factors)
      part.map { e =>
        val kr = kernel.kron(e.idx, mode)
        (e.idx(mode), Array.tabulate(kronLen)(c => e.value * kr(c)))
      }
    }
}
