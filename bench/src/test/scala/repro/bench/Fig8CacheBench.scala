package repro.bench

import repro.SparkSpec
import repro.exp.{Harness, ScalabilityExperiments => S}

/** Fig 8 (Section IV-C): P-Tucker vs P-Tucker-Cache. Paper shape: the cache
  * trades a `|Ω|·J^N` table (29.5x more memory at N=10) for up to 1.7x
  * faster iterations at high order.
  */
class Fig8CacheBench extends SparkSpec {

  test("Fig 8: cache variant uses orders more intermediate memory; gap grows with order") {
    val table = S.fig8Cache(spark)
    Harness.emit(table)
    val rows = table.rows
    def kib(s: String): Double = s.replace(" KiB", "").toDouble
    rows.foreach { r =>
      assert(kib(r(4)) > 10.0 * kib(r(2)),
        s"cache table should dwarf the O(T·J²) data at ${r.head}: ${r(2)} vs ${r(4)}")
    }
    // memory ratio grows with order (J^N vs J²)
    val ratios = rows.map(r => kib(r(4)) / kib(r(2)))
    assert(ratios.last > ratios.head, s"memory gap should widen with order: $ratios")
  }
}
