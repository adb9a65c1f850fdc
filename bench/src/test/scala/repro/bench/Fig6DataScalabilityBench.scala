package repro.bench

import repro.SparkSpec
import repro.exp.{Harness, Method, ScalabilityExperiments => S}

/** Fig 6 (Section IV-B): data scalability vs order / dimensionality / |Ω| /
  * rank. Paper shape: P-Tucker fastest throughout; Tucker-wOPT O.O.M. on
  * everything beyond the smallest configs; the others finish but trail.
  */
class Fig6DataScalabilityBench extends SparkSpec {

  private def col(rows: Seq[Seq[String]], m: Method): Seq[String] = {
    val i = Method.competitors.indexOf(m) + 1
    rows.map(_(i))
  }

  /** Prints the panel and returns its rows. */
  private def rowsOf(table: Harness.Table): Seq[Seq[String]] = { Harness.emit(table); table.rows }

  private def ms(cell: String): Option[Double] =
    if (cell.contains("O.O.M.")) None else Some(cell.replace(" ms", "").toDouble)

  test("Fig 6(a): order sweep — wOPT hits O.O.M. at high order, P-Tucker always finishes") {
    val rows = rowsOf(S.fig6Order(spark))
    assert(col(rows, Method.PTuckerDefault).forall(ms(_).isDefined))
    assert(col(rows, Method.Wopt).last == "O.O.M.", "wOPT should O.O.M. at the largest order")
    assert(ms(col(rows, Method.Wopt).head).isDefined, "wOPT should still run at N=3")
  }

  test("Fig 6(b): dimensionality sweep — wOPT O.O.M. beyond smallest, sparse methods scale") {
    val rows = rowsOf(S.fig6Dim(spark))
    for (m <- Seq(Method.PTuckerDefault, Method.SHot, Method.Csf))
      assert(col(rows, m).forall(ms(_).isDefined), s"${m.name} should finish all dims")
    assert(col(rows, Method.Wopt).drop(1).forall(_ == "O.O.M."))
  }

  test("Fig 6(c): |Ω| sweep — P-Tucker scales near-linearly in the nonzeros") {
    val rows = rowsOf(S.fig6Nnz(spark))
    val pt = col(rows, Method.PTuckerDefault).flatMap(ms)
    assert(pt.size == 3)
    // 100x more nonzeros must not cost more than ~200x (near-linear with
    // fixed per-job overhead at the small end)
    assert(pt.last / pt.head < 200.0, s"superlinear: $pt")
    assert(col(rows, Method.Wopt).forall(_ == "O.O.M."), "wOPT O.O.M. at I=10^4 (dense)")
  }

  test("Fig 6(d): rank sweep — all sparse methods finish every rank") {
    val rows = rowsOf(S.fig6Rank(spark))
    for (m <- Seq(Method.PTuckerDefault, Method.SHot, Method.Csf))
      assert(col(rows, m).forall(ms(_).isDefined), s"${m.name} should finish all ranks")
    // cost grows with J for P-Tucker (J^N term). Generous slack: at this
    // sweep size the fixed job overhead + JIT noise is a large fraction of
    // each point; the strict J-scaling ratio is asserted compute-bound in
    // Table3ComplexityBench instead.
    val pt = col(rows, Method.PTuckerDefault).flatMap(ms)
    assert(pt.last > 0.6 * pt.head, s"rank growth wildly inverted: $pt")
  }
}
