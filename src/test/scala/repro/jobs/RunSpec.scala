package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

/** The exhibit dispatcher, checked without starting Spark. */
class RunSpec extends AnyFunSuite {

  test("exhibit ids are unique and cover Tables I, III-VI and Figs 6-11") {
    val ids = Run.exhibits.map(_._1)
    assert(ids.distinct == ids, s"duplicate ids: $ids")
    assert(ids.toSet == Set("table1", "table3", "table4", "table5", "table6",
      "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"))
  }

  test("an unknown id fails with a message listing the valid ids") {
    val e = intercept[IllegalArgumentException](Run.exhibit("fig12"))
    assert(e.getMessage.contains("fig12"))
    Run.exhibits.foreach { case (id, _) => assert(e.getMessage.contains(id), e.getMessage) }
  }
}
