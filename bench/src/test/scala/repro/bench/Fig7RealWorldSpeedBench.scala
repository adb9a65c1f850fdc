package repro.bench

import repro.SparkSpec
import repro.exp.{Harness, RealWorldExperiments => R}

/** Fig 7 (Section IV-B2): time per iteration on the real-world substitutes.
  * Paper shape: P-Tucker / P-Tucker-Approx fastest; wOPT O.O.M. on the two
  * large 4-order rating tensors but finishes on video/image.
  */
class Fig7RealWorldSpeedBench extends SparkSpec {

  test("Fig 7: speed on real-world substitutes — O.O.M. pattern matches the paper") {
    val table = R.fig7Speed(spark)
    Harness.emit(table)
    val rows = table.rows
    val byName = rows.map(r => r.head -> r).toMap
    // wOPT: O.O.M. exactly on the two large rating tensors
    assert(byName("Yahoo-music*")(5) == "O.O.M.")
    assert(byName("MovieLens*")(5) == "O.O.M.")
    assert(byName("Video (Wave)*")(5) != "O.O.M.")
    assert(byName("Image (Lena)*")(5) != "O.O.M.")
    // P-Tucker finishes everywhere
    rows.foreach(r => assert(r(1) != "O.O.M.", s"P-Tucker OOM on ${r.head}"))
  }
}
