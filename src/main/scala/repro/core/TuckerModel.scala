package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.linalg.DenseMatrix
import repro.tensor.{CoreTensor, SparseTensor, TensorEntry}

/** Per-iteration record: wall time, Eq.-6 reconstruction error over the
  * training entries, fit = 1 - error/‖X‖, and the surviving core size
  * (shrinks only under P-Tucker-Approx).
  *
  * Under P-Tucker-Approx, `error` and `fit` are scored *before* that
  * iteration's truncation (Algorithm 2 scores at line 4 and truncates at
  * lines 5-6), while `coreNnz` counts the cells left *after* it. The model
  * a fit returns holds the truncated core, so its reconstruction error can
  * sit well above the last `error` here.
  */
final case class IterStat(iter: Int, millis: Long, error: Double, fit: Double, coreNnz: Int)

/** A trained Tucker model: factor matrices `A^(n)` and core `G`.
  *
  * `predict` is Eq. (5); `reconstructionError` is Eq. (6);
  * `testRmse` is the paper's missing-entry metric (Section IV-E).
  */
final case class TuckerModel(dims: Array[Int], ranks: Array[Int],
                             factors: Array[DenseMatrix], core: CoreTensor,
                             history: Vector[IterStat],
                             meta: Map[String, Double] = Map.empty) {

  def order: Int = dims.length

  @transient private lazy val kernel = ProductKernel(factors, core)

  /** Eq. (5): predicted value of cell `idx`. */
  def predict(idx: Array[Int]): Double = kernel.predict(idx)

  /** Eq. (6) over the observed entries of `t`. */
  def reconstructionError(spark: SparkSession, t: SparseTensor, partitions: Int = 0): Double = {
    val p = if (partitions > 0) partitions else spark.sparkContext.defaultParallelism
    math.sqrt(TuckerKernels.sumSquaredError(spark, t.entriesRdd(p), kernel))
  }

  /** Root mean squared prediction error over held-out entries. */
  def testRmse(spark: SparkSession, t: SparseTensor, partitions: Int = 0): Double = {
    val p = if (partitions > 0) partitions else spark.sparkContext.defaultParallelism
    val rdd = t.entriesRdd(p)
    val n = rdd.count()
    require(n > 0, "empty test set")
    math.sqrt(TuckerKernels.sumSquaredError(spark, rdd, kernel) / n)
  }

  /** fit = 1 - ‖X - X'‖/‖X‖ over observed entries (Section IV-C). */
  def fit(spark: SparkSession, t: SparseTensor): Double =
    1.0 - reconstructionError(spark, t) / t.frobeniusNorm

  def avgMillisPerIter: Double =
    if (history.isEmpty) 0.0 else history.map(_.millis).sum.toDouble / history.size
}

/** The distributed Eq.-(6) pass; the per-entry prediction is the
  * [[ProductKernel]]'s, broadcast as one object.
  */
object TuckerKernels {

  /** `Σ_{α∈Ω} (x_α - x̂_α)²` — the inside of Eq. (6), distributed. */
  def sumSquaredError(spark: SparkSession, entries: RDD[TensorEntry],
                      kernel: ProductKernel): Double = {
    val bK = spark.sparkContext.broadcast(kernel)
    try entries.map { e => val d = e.value - bK.value.predict(e.idx); d * d }.treeReduce(_ + _)
    finally bK.destroy()
  }
}
