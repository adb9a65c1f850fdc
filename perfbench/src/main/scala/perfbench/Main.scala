package perfbench

import scala.collection.mutable

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{avg, col, lit, pow}
import repro.core.{PTucker, TuckerModel}
import repro.tensor.SparseTensor

/** P-Tucker benchmark: one workload, one seed, one run.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * Main --self-test
  * }}}
  *
  * `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
  * ones; both check every fit and end with one JSON line
  * `{"correct", "attempted", "failed", "metrics"}`. See METRICS.md.
  */
object Main {

  /** Task threads of the timed session. On a shared 4-vCPU VM, `fit_s` of
    * interleaved `dense-core` runs spread by 5% over runs at `local[1]` and
    * by 10% at `local[2]`: one task thread leaves the driver, JIT and GC
    * threads vCPUs of their own, and no stage waits for a slower twin task.
    */
  val TimedCores = 1

  val WarmUpFits = 4

  final case class Args(workload: String = "", seed: Long = 1, seconds: Int = 10,
                        trace: Boolean = false, selfTest: Boolean = false)

  /** The input of one run: the generated tensor and its 90/10 split. */
  final case class Input(full: SparseTensor, train: SparseTensor, test: SparseTensor,
                         trainNnz: Long, genMs: Double, setupS: Double)

  /** One fit that passed or failed its checks. */
  final case class Fit(fitS: Double, model: TuckerModel, window: Window, testRmse: Double) {
    def iterMillis: Seq[Double] = model.history.map(_.millis.toDouble)
    def overheadS: Double = fitS - iterMillis.sum / 1000.0
  }

  /** Fits attempted and failed over both sessions of a run, with the reasons. */
  final class Tally {
    var attempted = 0
    var failed = 0
    val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty[String]
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toList, Args())
    val selfFailures = SelfTest.run()
    selfFailures.foreach(f => println(s"# self-test FAILED: $f"))
    if (args.selfTest || selfFailures.nonEmpty) {
      println(s"# self-test: ${SelfTest.count} checks, ${selfFailures.size} failed")
      sys.exit(if (selfFailures.isEmpty) 0 else 1)
    }
    val w = Workloads.byName(args.workload)
    val tally = new Tally
    val timed = withSpark(TimedCores)(new Run(_, w, args, TimedCores, tally).measure())
    // The parallel baseline needs several task threads, so it gets a session
    // of its own after the timed one. Its skew replaces the timed session's,
    // which has one task per stage.
    val metrics =
      if (!args.trace || timed.isEmpty) timed
      else {
        val cores = math.max(2, math.min(Runtime.getRuntime.availableProcessors / 2, 4))
        val par = withSpark(cores)(new Run(_, w, args, cores, tally).parallel())
        if (par.isEmpty) Nil else (timed.toMap ++ par).toSeq.sortBy(_._1)
      }

    val correct = tally.failed == 0 && tally.failures.isEmpty && metrics.nonEmpty &&
      metrics.forall { case (_, v) => !v.isNaN && !v.isInfinite }
    tally.failures.foreach(f => println(s"# CHECK FAILED: $f"))
    println(f"# fit_fail_ratio=${tally.failed.toDouble / tally.attempted}%.4f " +
      s"(failed ${tally.failed} of ${tally.attempted} fits)")
    val withUnits = metrics.map { case (n, v) => (n, v, Metrics.unit(n)) }
    withUnits.foreach { case (n, v, u) => println(s"# $n = $v $u") }
    println(Json.result(correct, tally.attempted, tally.failed, withUnits))
    sys.exit(if (correct) 0 else 1)
  }

  private def withSpark[A](cores: Int)(body: SparkSession => A): A = {
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .getOrCreate()
    try body(spark) finally spark.stop()
  }

  @annotation.tailrec
  private def parse(rest: List[String], a: Args): Args = rest match {
    case Nil => require(a.selfTest || a.workload.nonEmpty, "--workload is required"); a
    case "--workload" :: v :: t => parse(t, a.copy(workload = v))
    case "--seed" :: v :: t => parse(t, a.copy(seed = v.toLong))
    case "--seconds" :: v :: t => parse(t, a.copy(seconds = v.toInt))
    case "--trace" :: v :: t => parse(t, a.copy(trace = v == "1"))
    case "--self-test" :: t => parse(t, a.copy(selfTest = true))
    case other :: _ => throw new IllegalArgumentException(s"unknown argument '$other'")
  }

  final class Run(spark: SparkSession, w: Workload, args: Args, cores: Int, tally: Tally) {
    private val sc = spark.sparkContext
    private val rec = new Recorder(sc)
    private val seed = args.seed
    private val started = System.nanoTime()

    private def phase(what: String): Unit =
      println(f"# ${(System.nanoTime() - started) / 1e9}%.1f s in local[$cores]: $what")

    /** `TensorGen` + persist + count, then the split and its counts. */
    private def setup(): Input = {
      val t0 = System.nanoTime()
      val full = w.gen(spark, w.nnz, seed).persisted()
      full.nnz
      val genMs = (System.nanoTime() - t0) / 1e6
      val (train, test) = full.split(0.9)
      val trainNnz = train.nnz
      require(trainNnz > 0 && test.nnz > 0, "empty split")
      Input(full, train, test, trainNnz, genMs, (System.nanoTime() - t0) / 1e9)
    }

    /** Test RMSE of predicting every held-out value by the training mean. */
    private def meanPredictorRmse(in: Input): Double = {
      val mu = in.train.df.agg(avg(col("value"))).head().getDouble(0)
      math.sqrt(in.test.df.agg(avg(pow(col("value") - lit(mu), 2))).head().getDouble(0))
    }

    /** One fit inside its own listener window, then its correctness checks. */
    private def fit(in: Input, baseline: Double, detailed: Boolean,
                    partitions: Int = 0): Option[Fit] = {
      tally.attempted += 1
      rec.mark(detailed)
      val t0 = System.nanoTime()
      val attempt = try Right(PTucker.fit(spark, in.train, w.config(seed, partitions)))
      catch { case e: Exception => Left(e) }
      val fitS = (System.nanoTime() - t0) / 1e9
      val window = rec.mark(false)
      // The tracker must agree with Spark's own view of what is cached.
      val stored = sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum
      val storageErr =
        if (stored == rec.cachedBytes) Nil
        else Seq(s"cached-bytes tracker reads ${rec.cachedBytes}, getRDDStorageInfo $stored")
      val (result, errs) = attempt match {
        case Left(e) => (None, Seq(s"fit threw $e"))
        case Right(model) =>
          val rmse = model.testRmse(spark, in.test)
          (Some(Fit(fitS, model, window, rmse)), checks(model, in, rmse, baseline))
      }
      if (errs.nonEmpty) { tally.failed += 1; tally.failures ++= errs }
      tally.failures ++= storageErr
      result
    }

    private def checks(m: TuckerModel, in: Input, rmse: Double, baseline: Double): Seq[String] = {
      val errs = mutable.ArrayBuffer.empty[String]
      if (m.history.size != w.iters) errs += s"ran ${m.history.size} iterations, expected ${w.iters}"
      val last = m.history.last
      val recon = m.reconstructionError(spark, in.train)
      // The returned model is orthogonalised; that must not change its error.
      val rel = math.abs(recon - last.error) / last.error
      if (!(rel <= 1e-6))
        errs += f"reconstructionError $recon%.9g vs history error ${last.error}%.9g (rel $rel%.2e)"
      if (!(last.fit >= w.minFit)) errs += f"final_fit ${last.fit}%.6f below floor ${w.minFit}"
      if (!(rmse <= w.maxRmseRatio * baseline))
        errs += f"test_rmse $rmse%.6f not below ${w.maxRmseRatio} x mean-predictor $baseline%.6f"
      errs.toSeq
    }

    /** Fits until `args.seconds` have passed and at least `min` fits are kept. */
    private def loop[A](min: Int)(next: Int => Option[A]): Seq[A] = {
      val out = mutable.ArrayBuffer.empty[A]
      val t0 = System.nanoTime()
      var k = 0
      while ((System.nanoTime() - t0) / 1e9 < args.seconds || (out.size < min && k < 4 * min)) {
        out ++= next(k); k += 1
      }
      out.toSeq
    }

    /** The timed session: set-ups, warm-up fits, then fits for `--seconds`;
      * end-to-end metrics, or with `--trace 1` the per-layer ones.
      */
    def measure(): Seq[(String, Double)] = {
      println(s"# workload=${w.name} seed=$seed seconds=${args.seconds} trace=${if (args.trace) 1 else 0} " +
        s"nproc=${Runtime.getRuntime.availableProcessors} cores=$cores " +
        s"defaultParallelism=${sc.defaultParallelism} " +
        s"heap_mb=${Runtime.getRuntime.maxMemory / (1024 * 1024)} spark=${spark.version}")
      // Set-up runs four times. The first warms the cold session and is not
      // timed. Each copy is dropped before the next, or Spark would serve the
      // identical plan from its cache.
      val inputs = (0 to 3).map { k =>
        val in = setup()
        if (k < 3) in.full.unpersist()
        in
      }.drop(1)
      val in = inputs.last
      val baseline = meanPredictorRmse(in)
      println(f"# mean-value predictor test RMSE $baseline%.6f; test_rmse ceiling ${w.maxRmseRatio} x that")
      phase("set-up done")

      // Warm-up fits: checked, not timed. The JIT compiles the once-per-fit
      // code (entry build, norm, QR) only after several fits: after a single
      // warm-up fit, fit_overhead_s kept falling for about three more fits.
      (1 to WarmUpFits).foreach(_ => fit(in, baseline, detailed = false))
      phase("warm-up done")

      val metrics =
        if (!args.trace) {
          val fits = loop(3)(_ => fit(in, baseline, detailed = false))
          report(fits, "fits")
          if (fits.isEmpty) Nil else endToEnd(inputs, fits, in.trainNnz * w.ranks.length)
        } else {
          val both = loop(4)(k => fit(in, baseline, detailed = k % 2 == 1).map(f => (k % 2 == 1, f)))
          val traced = both.collect { case (true, f) => f }
          val plain = both.collect { case (false, f) => f }
          report(plain, "untraced fits"); report(traced, "traced fits")
          if (traced.isEmpty || plain.isEmpty) Nil else perLayer(inputs, traced, plain, in)
        }
      phase("timed fits done")
      metrics
    }

    /** The paper's Fig. 10, measured: fits over `cores` partitions and over
      * one partition alternate, twice each, on a fresh copy of the input.
      * Also the task skew, which needs more than one task per stage.
      */
    def parallel(): Seq[(String, Double)] = {
      val in = setup()
      val baseline = meanPredictorRmse(in)
      fit(in, baseline, detailed = false) // the session's first fit, not timed
      val pairs = (1 to 2).map(_ => (fit(in, baseline, detailed = true),
        fit(in, baseline, detailed = false, partitions = 1)))
      val many = pairs.flatMap(_._1)
      val one = pairs.flatMap(_._2)
      report(many, s"fits over $cores partitions"); report(one, "fits over 1 partition")
      phase("parallel baseline done")
      if (many.isEmpty || one.isEmpty) Nil
      else {
        val speedup = Stats.median(one.map(_.fitS)) / Stats.median(many.map(_.fitS))
        val skews = many.map(f => FitSummary.of(f.window, f.fitS * 1000.0, w.iters,
          in.trainNnz * w.ranks.length, cores)("spark.task.skew"))
        Seq(
          "parallel.fit_s_t1" -> Stats.median(one.map(_.fitS)),
          "parallel.speedup" -> speedup,
          "parallel.efficiency" -> speedup / cores,
          "spark.task.skew" -> Stats.median(skews),
        )
      }
    }

    private def report(fits: Seq[Fit], what: String): Unit = {
      println(s"# ${fits.size} $what: fit_s=" + fits.map(f => f"${f.fitS}%.3f").mkString(","))
      println(s"# ${fits.size} $what: fit_overhead_s=" + fits.map(f => f"${f.overheadS}%.3f").mkString(","))
      println(s"# ${fits.size} $what: iter_ms=" + fits.map(_.iterMillis.map(_.toLong).mkString("/")).mkString(","))
    }

    private def endToEnd(inputs: Seq[Input], fits: Seq[Fit], entries: Long) = {
      val (iterMs, n) = Stats.medianWithCount(fits.flatMap(_.iterMillis))
      println(s"# iter_ms_p50 over $n iterations of ${fits.size} fits")
      Seq(
        "setup_s" -> Stats.median(inputs.map(_.setupS)),
        "fit_s" -> Stats.median(fits.map(_.fitS)),
        "iter_ms_p50" -> iterMs,
        "entries_per_s" -> entries / (iterMs / 1000.0),
        "final_fit" -> Stats.median(fits.map(_.model.history.last.fit)),
        "test_rmse" -> Stats.median(fits.map(_.testRmse)),
        "peak_cached_mb" -> Stats.median(fits.map(_.window.peakCachedBytes / (1024.0 * 1024.0))),
      )
    }

    private def perLayer(inputs: Seq[Input], traced: Seq[Fit], plain: Seq[Fit],
                         in: Input): Seq[(String, Double)] = {
      val summaries = traced.map(f => FitSummary.of(f.window, f.fitS * 1000.0, w.iters,
        in.trainNnz * w.ranks.length, cores))
      val layer = summaries.head.keys.toSeq.sorted.map(k => k -> Stats.median(summaries.map(_(k))))
      val plainS = Stats.median(plain.map(_.fitS))
      val model = traced.last.model
      val order = w.ranks.length
      val extra = Map(
        "tensor.gen_ms" -> Stats.median(inputs.map(_.genMs)),
        "core.model_mults_per_iter" -> order.toDouble * order * in.trainNnz * w.ranks.product,
        "kernel.predict_ns" -> Kernels.predictNs(model, seed),
        "linalg.solve_ns" -> Kernels.solveNs(w.ranks.max, seed),
        "linalg.qr_ms" -> Kernels.qrMs(model.dims.max, w.ranks.max, seed),
        "trace.overhead_pct" -> 100.0 * (Stats.median(traced.map(_.fitS)) / plainS - 1.0),
        "fit_overhead_s" -> Stats.median(plain.map(_.overheadS)),
      )
      (layer ++ extra).sortBy(_._1)
    }
  }
}
