package repro.bench

import repro.SparkSpec
import repro.exp.{Harness, RealWorldExperiments => R}

/** Fig 11 (Section IV-E): accuracy on the real-world substitutes. Paper
  * shape: P-Tucker 1.4-4.8x lower reconstruction error and 1.4-4.3x lower
  * test RMSE than the zero-filled methods (S-HOT / CSF); Approx similar or
  * better RMSE than default; wOPT accurate where it fits.
  */
class Fig11AccuracyBench extends SparkSpec {

  test("Fig 11: P-Tucker beats the zero-filled methods on every dataset") {
    val table = R.fig11Accuracy(spark)
    Harness.emit(table)

    val byKey = table.rows.map(r => (r.head, r(1)) -> r).toMap
    def rmse(ds: String, m: String): Option[Double] = {
      val cell = byKey((ds, m))(3)
      if (cell == "O.O.M.") None else Some(cell.toDouble)
    }
    for (ds <- Seq("Yahoo-music*", "MovieLens*", "Video (Wave)*", "Image (Lena)*")) {
      val pt = rmse(ds, "P-Tucker").get
      for (zf <- Seq("S-HOT_scan", "Tucker-CSF")) {
        val z = rmse(ds, zf).get
        assert(pt < z, s"$ds: P-Tucker RMSE $pt should beat $zf $z")
      }
    }
    // paper: the zero-filled gap is large (1.4x+) on the rating tensors
    for (ds <- Seq("Yahoo-music*", "MovieLens*")) {
      val pt = rmse(ds, "P-Tucker").get
      val z = rmse(ds, "S-HOT_scan").get
      assert(z / pt > 1.4, s"$ds: expected >=1.4x RMSE gap, got ${z / pt}")
    }
    // wOPT: O.O.M. on the big rating tensors, accurate where it runs
    assert(rmse("Yahoo-music*", "Tucker-wOPT").isEmpty)
    assert(rmse("MovieLens*", "Tucker-wOPT").isEmpty)
    for (ds <- Seq("Video (Wave)*", "Image (Lena)*")) {
      val w = rmse(ds, "Tucker-wOPT").get
      val z = rmse(ds, "S-HOT_scan").get
      assert(w < z, s"$ds: wOPT (observed-only) should beat zero-filled: $w vs $z")
    }
  }
}
