package perfbench

import scala.collection.mutable

import org.apache.spark.{SparkContext, Success}
import org.apache.spark.scheduler._
import org.apache.spark.storage.{BroadcastBlockId, RDDBlockId}

/** A `SparkListener` that splits the event stream into windows.
  *
  * `mark()` runs a one-task job in its own job group. The listener handles
  * events in the order they were posted, so once it has seen that job end,
  * every event posted before the mark has been handled too; that covers all
  * jobs and tasks of a fit that returned before the mark. Events between two
  * marks form one `Window`. Cached RDD bytes are always tracked (the
  * untraced run reports `peak_cached_mb`); jobs, tasks and broadcast pieces
  * are kept only when the window was opened with `detailed = true`.
  */
final class Recorder(sc: SparkContext) extends SparkListener {
  private val MarkGroup = "perfbench-mark"
  private val JobGroupKey = "spark.jobGroup.id" // the property setJobGroup sets
  private var marks = 0 // driver thread only
  @volatile private var marksSeen = 0

  // Listener-thread state; read by the driver only after a mark has been seen.
  private val cached = new CachedBytes
  private var detailed = false
  private val jobs = mutable.Map.empty[Int, JobRec]
  private val stageJob = mutable.Map.empty[Int, Int]
  private val tasks = mutable.ArrayBuffer.empty[TaskRec]
  private val pieces = mutable.Map.empty[String, Long]
  private val pendingDetailed = new java.util.concurrent.ConcurrentLinkedQueue[java.lang.Boolean]
  private val markJobs = mutable.Set.empty[Int]
  @volatile private var closed: Window = Window(Nil, Nil, 0L, 0L)

  /** Closes the current window and opens the next one. Returns the closed window. */
  def mark(nextDetailed: Boolean): Window = {
    marks += 1
    val k = marks
    pendingDetailed.add(nextDetailed)
    sc.setJobGroup(s"$MarkGroup-$k", "perfbench window mark")
    try sc.parallelize(Seq(0), 1).count() finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 60L * 1000000000L
    while (marksSeen < k) {
      require(System.nanoTime() < deadline, "listener did not catch up within 60 s")
      Thread.sleep(2)
    }
    closed
  }

  private def isMark(props: java.util.Properties): Boolean =
    props != null && Option(props.getProperty(JobGroupKey)).exists(_.startsWith(MarkGroup))

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    if (isMark(e.properties)) { markJobs += e.jobId; return }
    if (detailed) {
      e.stageIds.foreach(s => if (!stageJob.contains(s)) stageJob(s) = e.jobId)
      val result = Phase.resultStage(e.stageInfos.map(s => s.stageId -> s.name))
      jobs(e.jobId) = JobRec(e.jobId, Phase.classify(result), e.time, e.time)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    if (markJobs.remove(e.jobId)) closeWindow()
    else jobs.get(e.jobId).foreach(j => jobs(e.jobId) = j.copy(endMs = e.time))
  }

  private def closeWindow(): Unit = {
    closed = Window(jobs.values.toSeq.sortBy(_.id), tasks.toList, pieces.values.sum,
      cached.peakAboveBase)
    jobs.clear(); tasks.clear(); pieces.clear(); stageJob.clear()
    cached.resetPeak()
    detailed = pendingDetailed.poll()
    marksSeen += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    if (!detailed) return
    stageJob.get(e.stageId).filter(jobs.contains).foreach { jobId =>
      val m = e.taskMetrics
      val failed = e.reason != Success
      tasks += (if (m == null) TaskRec(jobId, e.stageId, 0, 0, 0, 0, 0, 0, 0, 0, 0, failed)
      else TaskRec(jobId, e.stageId,
        runMs = m.executorRunTime, cpuNs = m.executorCpuTime, gcMs = m.jvmGCTime,
        deserMs = m.executorDeserializeTime,
        shuffleWriteBytes = m.shuffleWriteMetrics.bytesWritten,
        shuffleReadBytes = m.shuffleReadMetrics.totalBytesRead,
        shuffleRecords = m.shuffleWriteMetrics.recordsWritten,
        spillBytes = m.memoryBytesSpilled + m.diskBytesSpilled,
        resultBytes = m.resultSize, failed = failed))
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = {
    val info = e.blockUpdatedInfo
    val bytes = if (info.storageLevel.isValid) info.memSize + info.diskSize else 0L
    info.blockId match {
      case RDDBlockId(rdd, part) => cached.update(rdd, part, bytes)
      // Only the serialized pieces count: they are what is shipped to
      // executors. The driver's deserialized copy is not reported.
      case b: BroadcastBlockId if detailed && b.field.startsWith("piece") =>
        pieces(b.name) = math.max(pieces.getOrElse(b.name, 0L), bytes)
      case _ =>
    }
  }

  override def onUnpersistRDD(e: SparkListenerUnpersistRDD): Unit = cached.unpersist(e.rddId)

  /** Bytes of cached RDD blocks as the listener sees them now (call after `mark`). */
  def cachedBytes: Long = cached.current

  sc.addSparkListener(this)
}
