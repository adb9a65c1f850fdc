package perfbench

/** Every metric the benchmark prints, with its unit. BENCHMARK.json lists
  * the same names; run.py checks that a run printed exactly its list.
  */
object Metrics {
  val units: Map[String, String] = Map(
    // end to end (--trace 0)
    "setup_s" -> "s",
    "fit_s" -> "s",
    "iter_ms_p50" -> "ms",
    "entries_per_s" -> "1/s",
    "final_fit" -> "ratio",
    "test_rmse" -> "value",
    "peak_cached_mb" -> "MB",
    // per layer (--trace 1)
    "fit_overhead_s" -> "s",
    "tensor.gen_ms" -> "ms",
    "storage.materialise_ms" -> "ms",
    "storage.peak_cached_mb" -> "MB",
    "core.update_ms" -> "ms",
    "core.update_cpu_ns_per_entry" -> "ns",
    "core.error_ms" -> "ms",
    "core.model_mults_per_iter" -> "mults",
    "kernel.predict_ns" -> "ns",
    "linalg.solve_ns" -> "ns",
    "linalg.qr_ms" -> "ms",
    "spark.task.count" -> "count",
    "spark.task.run_ms" -> "ms",
    "spark.task.cpu_ms" -> "ms",
    "spark.task.cpu_share" -> "%",
    "spark.task.gc_ms" -> "ms",
    "spark.task.deser_ms" -> "ms",
    "spark.task.failed" -> "count",
    "spark.task.skew" -> "ratio",
    "spark.shuffle.write_mb" -> "MB",
    "spark.shuffle.read_mb" -> "MB",
    "spark.shuffle.records" -> "count",
    "spark.spill_mb" -> "MB",
    "spark.job.count" -> "count",
    "spark.job.per_iter" -> "count",
    "spark.stage.count" -> "count",
    "spark.job.wall_ms" -> "ms",
    "spark.job.busy_share" -> "%",
    "driver.gap_ms" -> "ms",
    "driver.result_mb" -> "MB",
    "driver.broadcast_mb" -> "MB",
    "trace.overhead_pct" -> "%",
    "parallel.fit_s_t1" -> "s",
    "parallel.speedup" -> "ratio",
    "parallel.efficiency" -> "ratio",
  )

  def unit(name: String): String =
    units.getOrElse(name, throw new IllegalStateException(s"metric $name has no unit"))
}

/** The result line: `{"correct", "attempted", "failed", "metrics"}`. */
object Json {
  private def str(s: String) = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""

  def result(correct: Boolean, attempted: Int, failed: Int,
             metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (n, v, u) =>
      val num = if (v.isNaN || v.isInfinite) "null" else java.lang.Double.toString(v)
      s"${str(n)}: {${str("value")}: $num, ${str("unit")}: ${str(u)}}"
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
