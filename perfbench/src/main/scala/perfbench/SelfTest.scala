package perfbench

import scala.collection.mutable

/** Checks of the benchmark's own arithmetic on synthetic events, without
  * Spark. Every run executes them first; `--self-test` runs only them.
  */
object SelfTest {
  private val failures = mutable.ArrayBuffer.empty[String]
  private var checks = 0

  def count: Int = checks

  private def check(what: String, cond: Boolean): Unit = {
    checks += 1
    if (!cond) failures += what
  }

  private def close(a: Double, b: Double) = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  private def task(job: Int, stage: Int, runMs: Long, cpuNs: Long = 0, resultBytes: Long = 0,
                   failed: Boolean = false) =
    TaskRec(job, stage, runMs, cpuNs, gcMs = 1, deserMs = 2, shuffleWriteBytes = 1024 * 1024,
      shuffleReadBytes = 0, shuffleRecords = 10, spillBytes = 0,
      resultBytes = resultBytes, failed = failed)

  def run(): Seq[String] = {
    failures.clear(); checks = 0

    // median and its sample count
    check("median odd", Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    check("median even", Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    check("median single", Stats.median(Seq(7.0)) == 7.0)
    check("median count", Stats.medianWithCount(Seq(5.0, 1.0, 9.0, 2.0, 8.0)) == (5.0, 5))
    check("median empty throws", scala.util.Try(Stats.median(Nil)).isFailure)

    // union of job intervals: overlap, containment, gap, touching, empty
    check("union empty", Stats.unionLength(Nil) == 0L)
    check("union overlap", Stats.unionLength(Seq((0L, 10L), (5L, 15L))) == 15L)
    check("union contained", Stats.unionLength(Seq((0L, 100L), (10L, 20L))) == 100L)
    check("union gap", Stats.unionLength(Seq((20L, 30L), (0L, 10L))) == 20L)
    check("union touching", Stats.unionLength(Seq((0L, 10L), (10L, 20L))) == 20L)
    check("union zero-length", Stats.unionLength(Seq((5L, 5L), (0L, 2L))) == 2L)

    // call-site phase classifier: the action decides, line numbers do not
    check("phase update", Phase.classify("collectAsMap at PTucker.scala:108") == Phase.Update)
    check("phase update moved", Phase.classify("collectAsMap at PTucker.scala:9999") == Phase.Update)
    check("phase error", Phase.classify("treeReduce at TuckerModel.scala:85") == Phase.Error)
    check("phase other action", Phase.classify("treeAggregate at PTucker.scala:380") == Phase.Other)
    check("phase materialise", Phase.classify("count at PTucker.scala:63") == Phase.Materialise)
    check("phase other", Phase.classify("head at SparseTensor.scala:47") == Phase.Other)
    check("result stage is the largest id",
      Phase.resultStage(Seq(7 -> "count at X.scala:1", 9 -> "collectAsMap at P.scala:2",
        8 -> "map at P.scala:3")) == "collectAsMap at P.scala:2")

    // cached bytes: updates, re-puts, removal by level NONE, unpersist, peak
    val c = new CachedBytes
    c.update(1, 0, 100); c.update(1, 1, 100)
    c.resetPeak()
    check("cached baseline", c.current == 200 && c.peakAboveBase == 0)
    c.update(2, 0, 300); c.update(2, 1, 300)
    c.update(2, 1, 350) // re-put of the same block replaces it
    check("cached re-put", c.current == 850)
    c.unpersist(2) // no per-block update arrives for an unpersisted RDD
    check("cached unpersist", c.current == 200)
    c.update(3, 0, 50); c.update(3, 0, 0) // a block dropped to level NONE
    check("cached dropped block", c.current == 200)
    check("cached peak", c.peakAboveBase == 650)
    c.unpersist(42)
    check("cached unknown unpersist", c.current == 200)
    c.resetPeak()
    check("cached peak reset", c.peakAboveBase == 0)

    // fit summary: job wall union, driver gap, phases and per-iteration counts
    val jobs = Seq(
      JobRec(0, Phase.Materialise, 1000, 1100),
      JobRec(1, Phase.Other, 1150, 1200),
      JobRec(2, Phase.Update, 1200, 1500),
      JobRec(3, Phase.Update, 1400, 1600), // overlaps job 2
      JobRec(4, Phase.Error, 1700, 1800),
      JobRec(5, Phase.Update, 1800, 2000),
      JobRec(6, Phase.Update, 2000, 2100),
      JobRec(7, Phase.Error, 2100, 2200))
    val tasks = Seq(
      task(2, 20, runMs = 100, cpuNs = 50000000, resultBytes = 1024 * 1024),
      task(2, 20, runMs = 300, cpuNs = 150000000),
      task(2, 20, runMs = 200, cpuNs = 100000000),
      task(4, 40, runMs = 80),
      task(4, 40, runMs = 80, failed = true))
    val s = FitSummary.of(Window(jobs, tasks, broadcastBytes = 3L * 1024 * 1024,
      peakCachedBytes = 2L * 1024 * 1024), fitMs = 1500, iters = 2, entries = 100, cores = 2)
    check("summary job wall", s("spark.job.wall_ms") == 1050.0)
    check("summary driver gap", s("driver.gap_ms") == 450.0)
    check("summary update ms per iter", s("core.update_ms") == 400.0)
    check("summary error ms per iter", s("core.error_ms") == 100.0)
    check("summary materialise", s("storage.materialise_ms") == 100.0)
    check("summary jobs per iter", s("spark.job.per_iter") == 3.0)
    check("summary job count", s("spark.job.count") == 8.0)
    check("summary task count excludes failed", s("spark.task.count") == 4.0)
    check("summary failed tasks", s("spark.task.failed") == 1.0)
    check("summary cpu per entry", close(s("core.update_cpu_ns_per_entry"), 300000000.0 / 200))
    check("summary cpu share", close(s("spark.task.cpu_share"), 100.0 * 300.0 / 680.0))
    check("summary busy share", close(s("spark.job.busy_share"), 100.0 * 680.0 / (1050.0 * 2)))
    check("summary skew", close(s("spark.task.skew"), 300.0 / 200.0))
    check("summary result mb", close(s("driver.result_mb"), 1.0))
    check("summary broadcast mb", close(s("driver.broadcast_mb"), 3.0))
    check("summary peak cached mb", close(s("storage.peak_cached_mb"), 2.0))
    check("summary shuffle mb", close(s("spark.shuffle.write_mb"), 4.0))
    check("summary stage count", s("spark.stage.count") == 2.0)

    // every summary metric has a unit
    check("summary units", s.keys.forall(Metrics.units.contains))
    failures.toList
  }
}
