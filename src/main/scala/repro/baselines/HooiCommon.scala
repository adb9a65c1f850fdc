package repro.baselines

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.core.{IterStat, ProductKernel, TuckerModel}
import repro.linalg.DenseMatrix
import repro.tensor.{CoreTensor, DenseTensor, SparseTensor, TensorEntry}

/** The HOOI sweep (Algorithm 1, missing entries as zeros) shared by the
  * sparse competitors [[SHotScan]] and [[TuckerCsf]]. They differ only in
  * how they build the TTMc rows
  * `y_{i_n} = Σ_{α ∈ Ω^(n)_{i_n}} x_α · (⊗_{k≠n} a^(k)_{i_k,:})`; [[fit]]
  * takes that step as its one parameter and runs everything else.
  *
  * From the rows, the `J_n` leading left singular vectors of the implicit
  * `Y_(n)` come by the scan-friendly Gram route, without materializing `Y_(n)`
  * on the driver: `M = Y_(n)ᵀY_(n)` (`L×L`, `L = ∏_{k≠n} J_k` — small)
  * accumulated by `treeAggregate`, a Jacobi eigendecomposition of `M` on the
  * driver, then per-row `u_i = y_i V_r Σ_r^{-1}` computed where the rows
  * live. Only `M` and the `I_n×J_n` factor ever reach the driver.
  */
object HooiCommon {

  /** A TTMc-rows step over one partition: `(entries, mode n,
    * L = ∏_{k≠n} J_k, factors)` to partial rows `(i_n, y)` of `Y_(n)`, each
    * of length `L` in [[kronOffset]]'s layout. [[fit]] sums them per `i_n`.
    */
  type TtmcRows = (Iterator[TensorEntry], Int, Int, Array[DenseMatrix]) => Iterator[(Int, Array[Double])]

  /** Algorithm 1 on the nonzeros of `tensor`: QR-orthonormalised random
    * factors, `maxIters` sweeps over the modes (each one TTMc scan, then
    * [[factorFromRows]]), then the core by [[coreFromEntries]]. Ranks are
    * checked before the first scan.
    */
  def fit(spark: SparkSession, tensor: SparseTensor, ranks: Array[Int], maxIters: Int,
          partitions: Int, seed: Long)(ttmcRows: TtmcRows): TuckerModel = {
    val order = tensor.order
    require(ranks.length == order, s"${ranks.length} ranks for an order-$order tensor")
    val kronLens = Array.tabulate(order)(n => ranks.indices.filter(_ != n).map(ranks).product)
    for (n <- 0 until order) {
      require(ranks(n) >= 1 && ranks(n) <= tensor.dims(n),
        s"mode $n: rank ${ranks(n)} outside [1, I_$n = ${tensor.dims(n)}]")
      require(ranks(n) <= kronLens(n),
        s"mode $n: rank ${ranks(n)} > ∏_{k≠$n} J_k = ${kronLens(n)}")
    }
    val T = if (partitions > 0) partitions else spark.sparkContext.defaultParallelism
    val entries = tensor.entriesRdd(T).persist(StorageLevel.MEMORY_AND_DISK)
    try {
      entries.count()
      val factors = Array.tabulate(order)(n =>
        DenseMatrix.qr(DenseMatrix.rand(tensor.dims(n), ranks(n), seed + n))._1)
      val history = (1 to maxIters).map { it =>
        val t0 = System.nanoTime()
        for (n <- 0 until order) {
          val kronLen = kronLens(n)
          val bF = spark.sparkContext.broadcast(factors)
          try {
            val rows = entries
              .mapPartitions(part => ttmcRows(part, n, kronLen, bF.value))
              .reduceByKey { (x, y) =>
                var i = 0; while (i < x.length) { x(i) += y(i); i += 1 }; x
              }
            factors(n) = factorFromRows(spark, rows, tensor.dims(n), kronLen, ranks(n))
          } finally bF.destroy()
        }
        IterStat(it, (System.nanoTime() - t0) / 1000000L, Double.NaN, Double.NaN, ranks.product)
      }.toVector
      val core = coreFromEntries(spark, entries, factors, ranks)
      TuckerModel(tensor.dims, ranks, factors, core, history)
    } finally entries.unpersist(blocking = false)
  }

  /** Kronecker index layout for `⊗_{k≠n}`: position of a core multi-index
    * restricted to modes ≠ n, with mode order ascending and the *first*
    * non-n mode fastest-varying (matches `DenseTensor`'s column-major walk).
    */
  def kronOffset(idx: Array[Int], ranks: Array[Int], n: Int): Int = {
    var off = 0; var stride = 1; var k = 0
    while (k < ranks.length) {
      if (k != n) { off += idx(k) * stride; stride *= ranks(k) }
      k += 1
    }
    off
  }

  /** From distributed TTMc rows to the updated (orthonormal) factor matrix. */
  def factorFromRows(spark: SparkSession, rows: RDD[(Int, Array[Double])],
                     iN: Int, kronLen: Int, rank: Int): DenseMatrix = {
    // M = Yᵀ Y, accumulated where the rows live.
    val m = rows.treeAggregate(new Array[Double](kronLen * kronLen))(
      seqOp = { case (acc, (_, y)) =>
        var a = 0
        while (a < kronLen) {
          val ya = y(a)
          if (ya != 0.0) {
            var b = 0
            while (b < kronLen) { acc(a * kronLen + b) += ya * y(b); b += 1 }
          }
          a += 1
        }
        acc
      },
      combOp = { (x, y) =>
        var i = 0; while (i < x.length) { x(i) += y(i); i += 1 }; x
      })
    val (vals, vecs) = DenseMatrix.symEigen(new DenseMatrix(kronLen, kronLen, m))
    val vr = Array.tabulate(rank) { j =>
      val sigma = math.sqrt(math.max(vals(j), 0.0))
      val col = new Array[Double](kronLen)
      var i = 0
      while (i < kronLen) { col(i) = vecs(i, j); i += 1 }
      (col, if (sigma > 1e-10) 1.0 / sigma else 0.0)
    }
    val bVr = spark.sparkContext.broadcast(vr)
    val factorRows = rows.map { case (i, y) =>
      val out = new Array[Double](rank)
      val v = bVr.value
      var j = 0
      while (j < rank) {
        val (col, invSigma) = v(j)
        var s = 0.0
        var k = 0
        while (k < kronLen) { s += y(k) * col(k); k += 1 }
        out(j) = s * invSigma
        j += 1
      }
      (i, out)
    }.collect()
    bVr.destroy()
    val u = DenseMatrix.zeros(iN, rank)
    factorRows.foreach { case (i, r) => u.setRow(i, r) }
    DenseMatrix.qr(u)._1 // re-orthonormalize (repairs zero-σ columns)
  }

  /** `G(β) = Σ_{α∈Ω} x_α ∏_k a^(k)_{i_k β_k}` — the final core, computed by
    * one scan (zero-filled semantics: missing entries contribute nothing).
    */
  def coreFromEntries(spark: SparkSession, entries: RDD[TensorEntry],
                      factors: Array[DenseMatrix], ranks: Array[Int]): CoreTensor = {
    val coreSize = ranks.product
    val bK = spark.sparkContext.broadcast(ProductKernel(factors))
    val g = entries.treeAggregate(new Array[Double](coreSize))(
      seqOp = { (acc, e) =>
        // ⊗ over every mode is column-major, the order of DenseTensor.indices
        val kr = bK.value.kron(e.idx, -1)
        var cell = 0
        while (cell < coreSize) { acc(cell) += e.value * kr(cell); cell += 1 }
        acc
      },
      combOp = { (x, y) =>
        var i = 0; while (i < x.length) { x(i) += y(i); i += 1 }; x
      })
    bK.destroy()
    CoreTensor.fromDense(new DenseTensor(ranks.clone(), g))
  }
}
