package perfbench

import scala.collection.mutable

/** The benchmark's own arithmetic, kept free of Spark so `SelfTest` can
  * check it on synthetic events.
  */
object Stats {

  /** Median of a non-empty sample (mean of the two middle values when even). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of an empty sample")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2.0
  }

  /** Median with the number of samples it was taken over. */
  def medianWithCount(xs: Seq[Double]): (Double, Int) = (median(xs), xs.length)

  /** Total length of the union of half-open intervals `[start, end)`. */
  def unionLength(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curStart = Long.MinValue
    var curEnd = Long.MinValue
    intervals.filter { case (s, e) => e > s }.sortBy(_._1).foreach { case (s, e) =>
      if (s > curEnd) {
        if (curEnd > curStart) total += curEnd - curStart
        curStart = s; curEnd = e
      } else if (e > curEnd) curEnd = e
    }
    if (curEnd > curStart) total += curEnd - curStart
    total
  }
}

/** Which phase of a fit a Spark job belongs to, from its result stage's
  * call site (`"<action> at <File>.scala:<line>"`). The action names the
  * phase; line numbers are ignored so edits to the program do not move jobs
  * between phases.
  */
object Phase {
  val Update = "update"
  val Error = "error"
  val Materialise = "materialise"
  val Other = "other"

  def classify(resultStageName: String): String =
    resultStageName.takeWhile(_ != ' ') match {
      case "collectAsMap" | "collect" => Update
      case "treeReduce" | "reduce"    => Error
      case "count"                    => Materialise
      case _                          => Other
    }

  /** The result stage of a job is created after its parents, so it has the
    * largest id of the job's stages (the order of `stageInfos` is not fixed).
    */
  def resultStage[S](stages: Seq[(Int, S)]): S = stages.maxBy(_._1)._2
}

/** Bytes held in cached RDD blocks, aware of unpersist: `removeRdd` sends no
  * per-block update, so an unpersisted RDD's blocks are dropped when its
  * `SparkListenerUnpersistRDD` arrives. Tracks the peak above a baseline.
  */
final class CachedBytes {
  private val blocks = mutable.Map.empty[(Int, Int), Long] // (rdd, partition) -> bytes
  private var total = 0L
  private var peakTotal = 0L
  private var base = 0L

  def current: Long = total

  def update(rdd: Int, partition: Int, bytes: Long): Unit = {
    total -= blocks.getOrElse((rdd, partition), 0L)
    if (bytes > 0) { blocks((rdd, partition)) = bytes; total += bytes }
    else blocks.remove((rdd, partition))
    if (total > peakTotal) peakTotal = total
  }

  def unpersist(rdd: Int): Unit = {
    val gone = blocks.keys.filter(_._1 == rdd).toList
    gone.foreach(k => total -= blocks.remove(k).get)
  }

  /** Starts a new window: the peak restarts from the current total. */
  def resetPeak(): Unit = { base = total; peakTotal = total }

  /** Highest total seen since `resetPeak`, above the total at that moment. */
  def peakAboveBase: Long = peakTotal - base
}

/** One Spark job of a fit, as the listener saw it. */
final case class JobRec(id: Int, phase: String, startMs: Long, endMs: Long)

/** One finished task; `jobId` is the job that ran its stage. */
final case class TaskRec(jobId: Int, stageId: Int, runMs: Long, cpuNs: Long, gcMs: Long,
                         deserMs: Long, shuffleWriteBytes: Long, shuffleReadBytes: Long,
                         shuffleRecords: Long, spillBytes: Long,
                         resultBytes: Long, failed: Boolean)

/** Everything recorded between two marks: the jobs and tasks of one fit,
  * the broadcast pieces created and the peak of cached RDD bytes.
  */
final case class Window(jobs: Seq[JobRec], tasks: Seq[TaskRec], broadcastBytes: Long,
                        peakCachedBytes: Long)

/** Per-layer figures of one traced fit. `entries` is N·|Ω_train|, the entry
  * visits one iteration's update jobs make.
  */
object FitSummary {
  private val MB = 1024.0 * 1024.0

  def of(w: Window, fitMs: Double, iters: Int, entries: Long, cores: Int): Map[String, Double] = {
    val byPhase = w.jobs.groupBy(_.phase)
    def phaseMs(p: String) = byPhase.getOrElse(p, Nil).map(j => (j.endMs - j.startMs).toDouble).sum
    val phaseOf = w.jobs.map(j => j.id -> j.phase).toMap
    val ok = w.tasks.filterNot(_.failed)
    val updateTasks = ok.filter(t => phaseOf.get(t.jobId).contains(Phase.Update))
    val jobWallMs = Stats.unionLength(w.jobs.map(j => (j.startMs, j.endMs))).toDouble
    val runMs = ok.map(_.runMs.toDouble).sum
    val cpuMs = ok.map(_.cpuNs / 1e6).sum
    val firstUpdate = w.jobs.filter(_.phase == Phase.Update).map(_.startMs).minOption
    val iterJobs = firstUpdate.map(t0 => w.jobs.count(_.startMs >= t0)).getOrElse(0)
    // Skew: per update stage, slowest task over the median task; median over stages.
    val skews = updateTasks.groupBy(_.stageId).values.filter(_.size > 1).map { ts =>
      val runs = ts.map(_.runMs.toDouble)
      runs.max / math.max(Stats.median(runs), 1.0)
    }.toSeq
    Map(
      "storage.materialise_ms" -> phaseMs(Phase.Materialise),
      "core.update_ms" -> phaseMs(Phase.Update) / iters,
      "core.update_cpu_ns_per_entry" -> updateTasks.map(_.cpuNs.toDouble).sum / (entries.toDouble * iters),
      "core.error_ms" -> phaseMs(Phase.Error) / iters,
      "spark.task.count" -> ok.size.toDouble,
      "spark.task.run_ms" -> runMs,
      "spark.task.cpu_ms" -> cpuMs,
      "spark.task.cpu_share" -> (if (runMs > 0) 100.0 * cpuMs / runMs else 0.0),
      "spark.task.gc_ms" -> ok.map(_.gcMs.toDouble).sum,
      "spark.task.deser_ms" -> ok.map(_.deserMs.toDouble).sum,
      "spark.task.failed" -> w.tasks.count(_.failed).toDouble,
      "spark.task.skew" -> (if (skews.isEmpty) 1.0 else Stats.median(skews)),
      "spark.shuffle.write_mb" -> ok.map(_.shuffleWriteBytes).sum / MB,
      "spark.shuffle.read_mb" -> ok.map(_.shuffleReadBytes).sum / MB,
      "spark.shuffle.records" -> ok.map(_.shuffleRecords.toDouble).sum,
      "spark.spill_mb" -> ok.map(_.spillBytes).sum / MB,
      "spark.job.count" -> w.jobs.size.toDouble,
      "spark.job.per_iter" -> iterJobs.toDouble / iters,
      "spark.stage.count" -> w.tasks.map(_.stageId).distinct.size.toDouble,
      "spark.job.wall_ms" -> jobWallMs,
      "spark.job.busy_share" -> (if (jobWallMs > 0) 100.0 * runMs / (jobWallMs * cores) else 0.0),
      "driver.gap_ms" -> (fitMs - jobWallMs),
      "driver.result_mb" -> ok.map(_.resultBytes).sum / MB,
      "driver.broadcast_mb" -> w.broadcastBytes / MB,
      "storage.peak_cached_mb" -> w.peakCachedBytes / MB,
    )
  }
}
