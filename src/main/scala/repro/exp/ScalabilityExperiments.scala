package repro.exp

import org.apache.spark.sql.SparkSession
import repro.TensorGen
import repro.core.{PTucker, PTuckerConfig, PTuckerVariant}
import repro.tensor.MemoryGuard

/** Figure-6/8/9/10 and Table-III experiments (Sections IV-B to IV-D),
  * scaled to container size (DESIGN.md §5). Every runner returns its
  * exhibit table so bench suites can assert on the shape, not just narrate.
  */
object ScalabilityExperiments {

  /** The paper's 512 GB machine, scaled: dense methods get this many
    * doubles before SimulatedOom (128 MiB ≙ "does not fit").
    */
  val BenchBudgetDoubles: Long = 1L << 24

  private val Iters = 3

  private val Fig6Headers = "Config" +: Method.competitors.map(_.name)

  /** One Fig-6 panel: every competitor on a uniform tensor per
    * `(label, dims, |Ω|, seed, J)` point.
    */
  private def fig6Panel(spark: SparkSession, title: String,
                        points: Seq[(String, Array[Int], Long, Long, Int)]): Harness.Table =
    MemoryGuard.withBudget(BenchBudgetDoubles) {
      Harness.Table(title, Fig6Headers, points.map { case (label, dims, nnz, seed, j) =>
        val t = TensorGen.uniform(spark, dims, nnz, seed).persisted()
        val row = label +: Method.competitors.map(m =>
          Harness.run(spark, m, t, Array.fill(dims.length)(j), Iters).cell)
        t.unpersist()
        row
      })
    }

  /** Fig 6(a): running time vs tensor order N (I=30, |Ω|=1000, J=3). */
  def fig6Order(spark: SparkSession): Harness.Table =
    fig6Panel(spark, "Fig 6(a) — time/iter vs order (paper: P-Tucker fastest, wOPT O.O.M. N>=5)",
      (3 to 6).map(n => (s"N=$n", Array.fill(n)(30), 1000L, n.toLong, 3)))

  /** Fig 6(b): running time vs dimensionality I (N=3, |Ω|=10·I, J=5). */
  def fig6Dim(spark: SparkSession): Harness.Table =
    fig6Panel(spark, "Fig 6(b) — time/iter vs dimensionality (paper: wOPT O.O.M. I>=10^4)",
      Seq(100, 1000, 10000).map(i => (s"I=$i", Array.fill(3)(i), 10L * i, i.toLong, 5)))

  /** Fig 6(c): running time vs |Ω| (N=3, I=10⁴, J=5). */
  def fig6Nnz(spark: SparkSession): Harness.Table =
    fig6Panel(spark, "Fig 6(c) — time/iter vs |Ω| (paper: near-linear for P-Tucker)",
      Seq(1000L, 10000L, 100000L).map(nnz => (s"|Ω|=$nnz", Array.fill(3)(10000), nnz, nnz, 5)))

  /** Fig 6(d): running time vs rank J (N=3, I=10³, |Ω|=10⁵). */
  def fig6Rank(spark: SparkSession): Harness.Table =
    fig6Panel(spark, "Fig 6(d) — time/iter vs rank (paper: P-Tucker fastest, wOPT O.O.M.)",
      Seq(3, 5, 7, 9).map(j => (s"J=$j", Array.fill(3)(1000), 100000L, j.toLong, j)))

  /** Fig 8: P-Tucker vs P-Tucker-Cache, time + intermediate data vs order. */
  def fig8Cache(spark: SparkSession): Harness.Table = {
    val rows = for (n <- 4 to 7) yield {
      val t = TensorGen.uniform(spark, Array.fill(n)(30), 1000, seed = n).persisted()
      val d = Harness.run(spark, Method.PTuckerDefault, t, Array.fill(n)(3), Iters)
      val c = Harness.run(spark, Method.PTuckerCache, t, Array.fill(n)(3), Iters)
      t.unpersist()
      def mem(r: RunResult) = r.model.map(m =>
        f"${m.meta("intermediateDoubles") * 8 / 1024}%.0f KiB").getOrElse("-")
      Seq(s"N=$n", d.cell, mem(d), c.cell, mem(c))
    }
    Harness.Table("Fig 8 — P-Tucker vs P-Tucker-Cache (paper: cache up to 1.7x faster, 29.5x more memory at N=10)",
      Seq("Order", "P-Tucker ms/iter", "P-Tucker interm.", "Cache ms/iter", "Cache interm."), rows)
  }

  /** Fig 9: per-iteration time and fit, P-Tucker vs P-Tucker-Approx
    * (N=3, I=10³, |Ω|=3·10⁵, J=8, p=0.2, 12 iterations).
    */
  def fig9Approx(spark: SparkSession): Harness.Table = {
    // |Ω| large enough that per-iteration compute (∝ |Ω|·|G|) dominates the
    // fixed Spark job overhead — otherwise the shrinking-core effect the
    // figure demonstrates is invisible under scheduling noise.
    val t = TensorGen.uniform(spark, Array.fill(3)(1000), 300000, seed = 9).persisted()
    def cfg(v: PTuckerVariant) = PTuckerConfig(ranks = Array.fill(3)(8), maxIters = 12,
      tol = 0.0, variant = v, truncationRate = 0.2, orthogonalize = false)
    val d = PTucker.fit(spark, t, cfg(PTuckerVariant.Default))
    val a = PTucker.fit(spark, t, cfg(PTuckerVariant.Approx))
    t.unpersist()
    Harness.Table("Fig 9 — per-iteration time and fit (paper: Approx overtakes default by iter ~8, lower fit)",
      Seq("Iter", "Default ms", "Default fit", "Approx ms", "Approx fit", "|G|"),
      d.history.zip(a.history).map { case (hd, ha) =>
        Seq(s"${hd.iter}", s"${hd.millis} ms", f"${hd.fit}%.4f",
          s"${ha.millis} ms", f"${ha.fit}%.4f", s"${ha.coreNnz}")
      })
  }

  /** Fig 10: speed-up and memory model vs thread count T (≙ partitions).
    * |Ω| is large enough that per-task compute dominates the fixed per-job
    * scheduling cost, otherwise Amdahl hides the row-parallel speed-up.
    */
  def fig10Threads(spark: SparkSession): Harness.Table = {
    val t = TensorGen.uniform(spark, Array.fill(3)(10000), 600000, seed = 10).persisted()
    // discarded warm-up: materializes the cached entries and JITs the kernels
    // so T=1 does not absorb one-time costs into its baseline
    Harness.run(spark, Method.PTuckerDefault, t, Array.fill(3)(5), 1, partitions = 16)
    val times = for (p <- Seq(1, 2, 4, 8, 16)) yield {
      System.gc() // start each config from a quiet heap
      val r = Harness.run(spark, Method.PTuckerDefault, t, Array.fill(3)(5), 4, partitions = p)
      // min over iterations: GC/JIT outliers otherwise drown the scaling curve
      val best = r.model.get.history.map(_.millis).min.toDouble
      (p, best, r.model.get.meta("intermediateDoubles"))
    }
    t.unpersist()
    val t1 = times.head._2
    Harness.Table("Fig 10 — thread scalability (paper: near-linear speed-up and memory up to T=20)",
      Seq("Threads", "ms/iter", "speed-up", "intermediate data"),
      times.map { case (p, ms, mem) =>
        Seq(s"T=$p", f"$ms%.0f ms", f"${t1 / ms}%.2fx", f"${mem * 8 / 1024}%.3f KiB")
      })
  }

  /** Table III empirically: double one parameter at a time, compare the
    * measured time ratio against the complexity-model prediction
    * `O(N·I·J³ + N²·|Ω|·J^N)`.
    */
  def table3Complexity(spark: SparkSession): Harness.Table = {
    // Large enough that per-iteration compute (∝ N²|Ω|J^N) dominates the
    // ~300 ms fixed Spark job overhead; ratios are min-over-late-iterations
    // to shed JIT/GC outliers.
    val (iBase, nnzBase, jBase, nBase) = (500, 1000000L, 6, 3)

    def predicted(n: Int, i: Int, nnz: Long, j: Int): Double =
      n.toDouble * i * j * j * j + n.toDouble * n * nnz * math.pow(j, n)

    def measure(n: Int, i: Int, nnz: Long, j: Int): Double = {
      val t = TensorGen.uniform(spark, Array.fill(n)(i), nnz, seed = 3).persisted()
      System.gc()
      val r = Harness.run(spark, Method.PTuckerDefault, t, Array.fill(n)(j), Iters)
      t.unpersist()
      r.model.get.history.drop(1).map(_.millis).min.toDouble
    }

    val base = measure(nBase, iBase, nnzBase, jBase)
    val basePred = predicted(nBase, iBase, nnzBase, jBase)
    val variations = Seq(
      ("|Ω| x2", nBase, iBase, nnzBase * 2, jBase),
      ("J 6→12", nBase, iBase, nnzBase, 12),
      ("I x4", nBase, iBase * 4, nnzBase, jBase),
      ("N 3→4", nBase + 1, iBase, nnzBase, jBase),
    )
    Harness.Table("Table III — P-Tucker time vs complexity model (measured vs predicted growth)",
      Seq("Variation", "ms/iter", "measured ratio", "predicted ratio"),
      Seq("base", f"$base%.0f ms", "1.00x", "1.00x") +:
        variations.map { case (label, n, i, nnz, j) =>
          val ms = measure(n, i, nnz, j)
          Seq(label, f"$ms%.0f ms", f"${ms / base}%.2fx",
            f"${predicted(n, i, nnz, j) / basePred}%.2fx")
        })
  }
}
