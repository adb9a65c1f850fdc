package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.linalg.DenseMatrix
import repro.tensor.{CoreTensor, SparseTensor, TensorEntry}

/** Which Algorithm-2/3 variant to run (Section III-C). */
sealed trait PTuckerVariant
object PTuckerVariant {
  /** Memory-optimized default: δ recomputed per entry, nothing cached. */
  case object Default extends PTuckerVariant
  /** Time-optimized: per-(α,β) products memoized in the Pres table. */
  case object Cache extends PTuckerVariant
  /** Time-optimized: "noisy" core cells truncated by R(β) each iteration. */
  case object Approx extends PTuckerVariant
}

/** Thrown when iteration `iter` produces a non-finite factor row or a
  * non-finite Eq.-(6) error, for example from a NaN input value. Without it
  * the fit would run on to `maxIters`: a NaN error never meets `tol`.
  */
final class PTuckerDivergedException(val iter: Int, detail: String)
  extends ArithmeticException(s"P-Tucker diverged in iteration $iter: $detail")

/** @param ranks          core dimensionality `J_1…J_N`
  * @param lambda         L2 regularization λ (paper default 0.01)
  * @param maxIters       max outer iterations (paper default 20)
  * @param tol            stop when relative error change < tol
  * @param variant        Default / Cache / Approx
  * @param truncationRate Approx only: fraction of surviving core cells
  *                       removed per iteration (paper default 0.2)
  * @param partitions     entry-RDD partitions ≙ the paper's thread count T
  *                       (0 → Spark default parallelism)
  * @param orthogonalize  run the final QR + core update (Alg. 2 lines 8-11)
  */
final case class PTuckerConfig(ranks: Array[Int],
                               lambda: Double = 0.01,
                               maxIters: Int = 20,
                               tol: Double = 1e-4,
                               variant: PTuckerVariant = PTuckerVariant.Default,
                               truncationRate: Double = 0.2,
                               partitions: Int = 0,
                               orthogonalize: Boolean = true,
                               seed: Long = 17)

/** P-Tucker: fully parallel gradient-based ALS Tucker factorization for
  * sparse tensors (Algorithms 2-4 of the paper), on Spark.
  *
  * Parallelization mapping (DESIGN.md §2): the paper updates the rows of
  * `A^(n)` across OpenMP threads; here the per-row normal equations
  * `(B_{i_n}, c_{i_n})` of Eq. (11)-(12) are assembled by `combineByKey`
  * keyed on the mode-`n` index — map-side combiners play the role of
  * per-thread partial sums, the shuffle is the paper's row aggregation, and
  * each reducer solves its `J_n×J_n` system (Eq. 10). The driver only ever
  * holds the factor matrices themselves (`I_n×J_n`, small by assumption).
  * Every product of core cells and factor entries runs in [[ProductKernel]],
  * broadcast as one object per mode.
  */
object PTucker {

  def fit(spark: SparkSession, tensor: SparseTensor, config: PTuckerConfig): TuckerModel = {
    val order = tensor.order
    require(config.ranks.length == order, "ranks must have one entry per mode")
    (0 until order).foreach { n =>
      require(tensor.dims(n) >= config.ranks(n),
        s"mode $n: dim ${tensor.dims(n)} < rank ${config.ranks(n)}")
    }
    val sc = spark.sparkContext
    val T = if (config.partitions > 0) config.partitions else sc.defaultParallelism

    val entries = tensor.entriesRdd(T).persist(StorageLevel.MEMORY_AND_DISK)
    val nnz = entries.count()
    require(nnz > 0, "empty tensor")
    val normX = tensor.frobeniusNorm

    // Line 1 of Algorithm 2: Uniform(0,1) init of factors and core.
    val factors = Array.tabulate(order)(n =>
      DenseMatrix.rand(tensor.dims(n), config.ranks(n), config.seed + n))
    var core = CoreTensor.rand(config.ranks, config.seed + 100)

    // Algorithm 3 lines 1-4: precompute the Pres cache table (Cache only).
    var pres: RDD[(TensorEntry, Array[Double])] =
      if (config.variant == PTuckerVariant.Cache) {
        val bK = sc.broadcast(ProductKernel(factors, core))
        val p = entries
          .map(e => (e, bK.value.pres(e.idx)))
          .persist(StorageLevel.MEMORY_AND_DISK)
        // Truncate the lineage: the cached table must not keep the kernel
        // broadcast alive (released below) nor grow an unbounded
        // chain of patch closures across iterations.
        p.localCheckpoint()
        p.count()
        // unpersist, NOT destroy: the map closure above stays a field of the
        // cached RDD even after checkpoint truncation, and task serialization
        // still writes the broadcast stub — destroy would poison every later
        // job over `pres`.
        bK.unpersist()
        p
      } else null

    def release(): Unit = {
      entries.unpersist(blocking = false)
      if (pres != null) pres.unpersist(blocking = false)
    }
    def diverged(iter: Int, detail: String): Nothing = {
      release()
      throw new PTuckerDivergedException(iter, detail)
    }

    var history = Vector.empty[IterStat]
    var prevError = Double.MaxValue
    var converged = false
    var iter = 0
    while (iter < config.maxIters && !converged) {
      val t0 = System.nanoTime()

      // Algorithm 2 line 3 / Algorithm 3 lines 5-15: update each A^(n).
      var n = 0
      while (n < order) {
        val jn = config.ranks(n)
        val mode = n
        val lambda = config.lambda
        val bK = sc.broadcast(ProductKernel(factors, core))
        // Without a Pres table (Default, Approx) δ comes from the kernel directly.
        val rows = if (pres != null) pres else entries.map(e => (e, null: Array[Double]))
        val seqOp = (acc: (Array[Double], Array[Double]), ep: (TensorEntry, Array[Double])) => {
          val (e, p) = ep
          val d = if (p == null) bK.value.delta(e.idx, mode) else bK.value.deltaFromPres(e.idx, p, mode)
          accumulate(acc, d, e.value); acc
        }
        // combineByKey, not aggregateByKey: the latter deserializes its
        // zero value once per (key, partition), which dominates at high T
        val solvedRows = rows
          .map(ep => (ep._1.idx(mode), ep))
          .combineByKey(
            (ep: (TensorEntry, Array[Double])) =>
              seqOp((new Array[Double](jn * jn), new Array[Double](jn)), ep),
            seqOp, mergeAcc _)
          .mapValues(solveRow(_, jn, lambda))
          .collectAsMap()

        // Driver-side row substitution. Rows with Ω^(n)_{i_n} = ∅ have
        // B = 0, c = 0, so Eq. (10) gives the zero row (pure regularization).
        val updated = DenseMatrix.zeros(tensor.dims(n), jn)
        solvedRows.foreach { case (i, row) => updated.setRow(i, row) }
        val oldFactor = factors(n)
        factors(n) = updated
        bK.destroy()
        if (solvedRows.valuesIterator.exists(_.exists(v => !java.lang.Double.isFinite(v))))
          diverged(iter + 1, s"mode $n solved a non-finite factor row")

        // Algorithm 3 lines 16-19: patch Pres multiplicatively for mode n.
        if (config.variant == PTuckerVariant.Cache) {
          val bOld = sc.broadcast(oldFactor.data)
          val bNew = sc.broadcast(ProductKernel(factors, core))
          val next = pres
            .map { case (e, p) => (e, bNew.value.patchPres(e.idx, p, mode, bOld.value)) }
            .persist(StorageLevel.MEMORY_AND_DISK)
          next.localCheckpoint() // sever the patch-closure chain (see above)
          next.count()
          pres.unpersist(blocking = false)
          pres = next
          // see the Pres-creation note: lineage closures keep these stubs
          bOld.unpersist(); bNew.unpersist()
        }
        n += 1
      }

      // Algorithm 2 line 4: reconstruction error (Eq. 6) — fully parallel.
      val sse = TuckerKernels.sumSquaredError(spark, entries, ProductKernel(factors, core))
      val error = math.sqrt(sse)
      if (!java.lang.Double.isFinite(error)) diverged(iter + 1, s"reconstruction error $error")

      // Algorithm 2 lines 5-6 (+ Algorithm 4): truncate "noisy" core cells.
      if (config.variant == PTuckerVariant.Approx && core.nnz > 1) {
        val r = computeRBeta(spark, entries, factors, core)
        val drop = math.min((config.truncationRate * core.nnz).toInt, core.nnz - 1)
        if (drop > 0) core = core.truncate(r, drop)
      }

      val millis = (System.nanoTime() - t0) / 1000000L
      history :+= IterStat(iter + 1, millis, error, 1.0 - error / normX, core.nnz)
      converged = prevError != Double.MaxValue &&
        math.abs(prevError - error) <= config.tol * math.max(prevError, 1e-12)
      prevError = error
      iter += 1
    }

    // Algorithm 2 lines 8-11: QR-orthogonalize factors, fold R into the core.
    if (config.orthogonalize) {
      var n = 0
      while (n < order) {
        val (q, r) = DenseMatrix.qr(factors(n))
        factors(n) = q
        core = core.modeProduct(n, r)
        n += 1
      }
    }

    release()
    TuckerModel(tensor.dims, config.ranks, factors, core, history,
      meta = Map(
        "partitions" -> T.toDouble,
        "intermediateDoubles" -> intermediateDoubles(config, T, nnz).toDouble))
  }

  /** Intermediate-data model of Table III, in doubles: what the algorithm
    * holds *beyond* X, G and the factor matrices. Default: per-task
    * δ, c (J) and B, (B+λI)^{-1} (J²) → `O(T·J²)`. Cache: the Pres table
    * → `O(|Ω|·J^N)`. Approx: the R(β) vector → `O(J^N)` (+ the default's
    * per-task data).
    */
  def intermediateDoubles(config: PTuckerConfig, T: Int, nnz: Long): Long = {
    val j = config.ranks.max.toLong
    val coreSize = config.ranks.map(_.toLong).product
    val perTask = T * (2 * j * j + 2 * j)
    config.variant match {
      case PTuckerVariant.Default => perTask
      case PTuckerVariant.Cache   => nnz * coreSize + perTask
      case PTuckerVariant.Approx  => coreSize + perTask
    }
  }

  // -------------------------------------------------------------------
  // row-update kernels (run inside tasks; the products are ProductKernel's)
  // -------------------------------------------------------------------

  /** Accumulates Eq. (11)-(12): `B += δδᵀ`, `c += x·δ` (mutates `acc`). */
  private[core] def accumulate(acc: (Array[Double], Array[Double]),
                               delta: Array[Double], x: Double): Unit = {
    val (bArr, cArr) = acc
    val jn = delta.length
    var a = 0
    while (a < jn) {
      val da = delta(a)
      cArr(a) += x * da
      if (da != 0.0) {
        var b = 0
        while (b < jn) { bArr(a * jn + b) += da * delta(b); b += 1 }
      }
      a += 1
    }
  }

  private[core] def mergeAcc(x: (Array[Double], Array[Double]),
                             y: (Array[Double], Array[Double])): (Array[Double], Array[Double]) = {
    var i = 0
    while (i < x._1.length) { x._1(i) += y._1(i); i += 1 }
    i = 0
    while (i < x._2.length) { x._2(i) += y._2(i); i += 1 }
    x
  }

  /** Eq. (10): row = c · (B + λI)^{-1}; B is symmetric, so this is the
    * solution of `(B + λI) y = c`.
    */
  private[core] def solveRow(acc: (Array[Double], Array[Double]), jn: Int,
                             lambda: Double): Array[Double] = {
    val (bArr, cArr) = acc
    val m = new DenseMatrix(jn, jn, bArr.clone())
    var d = 0
    while (d < jn) { m(d, d) += lambda; d += 1 }
    DenseMatrix.solve(m, cArr)
  }

  /** Eq. (14): partial reconstruction error R(β) for every surviving core
    * cell, accumulated in one distributed pass:
    * `R(β) = Σ_α p_β(α) · (2·pred(α) - p_β(α) - 2·x_α)` where
    * `p_β(α) = G_β ∏_n a^{(n)}_{i_n j_n}` and `pred = Σ_β p_β`.
    */
  private[core] def computeRBeta(spark: SparkSession, entries: RDD[TensorEntry],
                                 factors: Array[DenseMatrix], core: CoreTensor): Array[Double] = {
    val bK = spark.sparkContext.broadcast(ProductKernel(factors, core))
    try {
      entries.treeAggregate(new Array[Double](core.nnz))(
        seqOp = { (acc, e) =>
          val ps = bK.value.pres(e.idx)
          var pred = 0.0
          var b = 0
          while (b < ps.length) { pred += ps(b); b += 1 }
          b = 0
          while (b < ps.length) {
            acc(b) += ps(b) * (2.0 * pred - ps(b) - 2.0 * e.value)
            b += 1
          }
          acc
        },
        combOp = { (x, y) =>
          var i = 0
          while (i < x.length) { x(i) += y(i); i += 1 }
          x
        })
    } finally bK.destroy()
  }
}
