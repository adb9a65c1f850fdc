package repro.bench

import repro.SparkSpec
import repro.exp.{Harness, ScalabilityExperiments => S}

/** Fig 9 (Section IV-C): P-Tucker vs P-Tucker-Approx per iteration. Paper
  * shape: Approx gets cheaper every iteration (|G| shrinks by p=0.2) and
  * eventually beats the default's per-iteration time, at a fit cost.
  */
class Fig9ApproxBench extends SparkSpec {

  test("Fig 9: Approx iterations get cheaper as the core shrinks; fit trades off") {
    val table = S.fig9Approx(spark)
    Harness.emit(table)
    val rows = table.rows
    val coreSizes = rows.map(_(5).toInt)
    assert(coreSizes.head < 512 && coreSizes.last < coreSizes.head,
      s"core should shrink monotonically-ish: $coreSizes")
    def ms(s: String) = s.replace(" ms", "").toDouble
    val defLast3 = rows.takeRight(3).map(r => ms(r(1))).sum / 3
    val apxLast3 = rows.takeRight(3).map(r => ms(r(3))).sum / 3
    assert(apxLast3 < defLast3,
      s"late Approx iterations should be cheaper: approx $apxLast3 vs default $defLast3")
    // default keeps a full core throughout
    val defFitLast = rows.last(2).toDouble
    val apxFitLast = rows.last(4).toDouble
    assert(defFitLast >= apxFitLast - 0.02,
      s"default fit should not be materially below approx: $defFitLast vs $apxFitLast")
  }
}
