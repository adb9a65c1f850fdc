package perfbench

import org.apache.spark.sql.SparkSession
import repro.TensorGen
import repro.core.{PTuckerConfig, PTuckerVariant}
import repro.tensor.SparseTensor

/** One benchmark workload: an input of `nnz` generated cells built by
  * `gen(spark, nnz, seed)`, a fit configuration, and the correctness floors
  * its outputs must meet. Why each exists is in METRICS.md and BENCHMARK.json.
  *
  * @param minFit        `final_fit` floor
  * @param maxRmseRatio  `test_rmse` must stay below this multiple of the
  *                      mean-value predictor's test RMSE; 1.0 means it must
  *                      beat that predictor outright
  */
final case class Workload(name: String, nnz: Long,
                          gen: (SparkSession, Long, Long) => SparseTensor,
                          variant: PTuckerVariant, ranks: Array[Int], iters: Int,
                          minFit: Double, maxRmseRatio: Double) {

  def config(seed: Long, partitions: Int): PTuckerConfig =
    PTuckerConfig(ranks = ranks, maxIters = iters, tol = 0.0, variant = variant,
      partitions = partitions, orthogonalize = true, seed = seed)
}

object Workloads {

  // BENCHMARK.json lists dense-core and order4-cache. tall-sparse is run by
  // hand: it is the workload where shuffle and driver work dominate, and a
  // third workload did not fit the time the benchmark's runs may take.
  //
  // Uniform(0,1) values carry nothing to learn beyond their mean, so on the
  // uniform workloads the mean-value predictor is the best possible one and
  // the model can only match it up to over-fitting; their RMSE ceiling is a
  // stated multiple of it. The planted 4-order tensor must beat it.
  val all: Seq[Workload] = Seq(
    Workload("dense-core",
      20000L, (s, nnz, seed) => TensorGen.uniform(s, Array(300, 300, 300), nnz, seed),
      PTuckerVariant.Default, Array(8, 8, 8), iters = 3,
      minFit = 0.55, maxRmseRatio = 2.0),
    Workload("tall-sparse",
      80000L, (s, nnz, seed) => TensorGen.uniform(s, Array(32000, 32000, 32000), nnz, seed),
      PTuckerVariant.Default, Array(4, 4, 4), iters = 3,
      minFit = 0.9, maxRmseRatio = 3.0),
    Workload("order4-cache",
      20000L, (s, nnz, seed) => TensorGen.lowRank(s, Array(400, 300, 50, 24), Array(4, 4, 4, 4),
        nnz, noiseSd = 1.0, seed = seed),
      PTuckerVariant.Cache, Array(4, 4, 4, 4), iters = 3,
      minFit = 0.8, maxRmseRatio = 1.0),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name'; one of ${all.map(_.name).mkString(", ")}"))
}
