package repro.bench

import repro.SparkSpec
import repro.exp.{DiscoveryExperiments => D, Harness, RealWorldExperiments => R, ScalabilityExperiments => S}

/** Table I (Section I): the scalability matrix, measured rather than
  * asserted, against the paper's check-mark pattern (in the table title).
  */
class Table1ScalabilityMatrixBench extends SparkSpec {

  test("Table I: measured matrix matches the paper's check-mark pattern") {
    val table = R.table1Matrix(spark)
    Harness.emit(table)
    val byName = table.rows.map(r => r.head -> r).toMap
    assert(byName("P-Tucker").drop(1) == Seq("yes", "yes", "yes", "yes"))
    assert(byName("Tucker-wOPT")(4) == "yes", "wOPT is the accuracy-focused method")
    assert(byName("Tucker-wOPT")(1) == "-", "wOPT cannot scale (dense O(I^N))")
    assert(byName("S-HOT_scan")(3) == "yes")
    assert(byName("S-HOT_scan")(4) == "-", "zero-filled methods are inaccurate on sparse data")
    assert(byName("Tucker-CSF")(4) == "-")
  }
}

/** Table III (Section III-E2): empirical check of the complexity model. */
class Table3ComplexityBench extends SparkSpec {

  test("Table III: measured time ratios track the O(NIJ^3 + N^2|Ω|J^N) model") {
    val table = S.table3Complexity(spark)
    Harness.emit(table)
    def ratio(r: Seq[String]) = r(2).replace("x", "").toDouble
    val byLabel = table.rows.map(r => r.head -> r).toMap
    // doubling |Ω| roughly doubles the work (within Spark overhead slack)
    assert(ratio(byLabel("|Ω| x2")) > 1.3, s"|Ω| x2: ${byLabel("|Ω| x2")}")
    // J 6→12 is the dominant J^N blow-up: must be clearly superlinear
    assert(ratio(byLabel("J 6→12")) > 3.0, s"J: ${byLabel("J 6→12")}")
    // I x4 leaves the |Ω|J^N term untouched: must NOT scale like I
    assert(ratio(byLabel("I x4")) < 3.0, s"I: ${byLabel("I x4")}")
    // N 3→4 multiplies the per-entry core work by ~J·(N growth)
    assert(ratio(byLabel("N 3→4")) > 2.0, s"N: ${byLabel("N 3→4")}")
  }
}

/** Table IV (Section IV-A1): dataset summary for the substitutes. */
class Table4DatasetsBench extends SparkSpec {

  test("Table IV: substitute datasets have the documented shapes") {
    val table = R.table4(spark)
    Harness.emit(table)
    val byName = table.rows.map(r => r.head -> r).toMap
    assert(byName("Yahoo-music*")(1) == "4")
    assert(byName("MovieLens*")(1) == "4")
    assert(byName("Video (Wave)*")(2) == "(112, 160, 3, 32)", "video keeps the paper's dims")
    assert(byName("Image (Lena)*")(2) == "(256, 256, 3)", "image keeps the paper's dims")
    table.rows.foreach(r => assert(r(3).toLong > 1000, s"${r.head} too small"))
  }
}

/** Tables V & VI (Section V): discoveries on the planted MovieLens-like
  * tensor — one shared factorization, checked against the planted structure.
  */
class Table5And6DiscoveryBench extends SparkSpec {

  private lazy val model = D.fitModel(spark)

  test("Table V: K-means concepts recover planted genres") {
    val (table, purity) = D.table5Concepts(model)
    Harness.emit(table)
    assert(purity > 0.5, s"genre purity $purity")
    assert(table.rows.nonEmpty && table.rows.head(2).toDouble > 0.5,
      s"largest concept should be genre-dominated: ${table.rows.headOption}")
  }

  test("Table VI: top core cells align with planted genre-hour relations") {
    val (table, aligned) = D.table6Relations(model)
    Harness.emit(table)
    assert(table.rows.size == 3)
    assert(aligned >= 1, s"at least one top relation should match planted hours; got $aligned")
  }
}
