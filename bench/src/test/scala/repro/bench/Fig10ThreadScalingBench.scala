package repro.bench

import repro.SparkSpec
import repro.exp.{Harness, ScalabilityExperiments => S}

/** Fig 10 (Section IV-D): parallelization scalability. Paper shape: near
  * linear speed-up in T and memory linear in T. T maps to entry-RDD
  * partitions on the local[16] session (DESIGN.md §2).
  */
class Fig10ThreadScalingBench extends SparkSpec {

  test("Fig 10: speed-up grows with partitions; memory model is linear in T") {
    val table = S.fig10Threads(spark)
    Harness.emit(table)
    val rows = table.rows
    def speedup(r: Seq[String]) = r(2).replace("x", "").toDouble
    assert(speedup(rows.head) == 1.0)
    // more workers must help substantially by T=16 (JVM+Spark overheads keep
    // it below the paper's near-perfect line; shape is what we check)
    assert(speedup(rows.last) > 2.0, s"T=16 speed-up ${rows.last}")
    // monotone non-degrading overall trend: best speed-up at max T
    assert(rows.map(speedup).max == speedup(rows.last) || speedup(rows.last) > 3.0)
    // memory model strictly linear in T (2% slack for formatting rounding)
    def kib(r: Seq[String]) = r(3).replace(" KiB", "").toDouble
    assert(math.abs(kib(rows.last) / kib(rows.head) - 16.0) < 0.32)
  }
}
