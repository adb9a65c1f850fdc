package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.{DiscoveryExperiments => D, Harness, RealWorldExperiments => R, ScalabilityExperiments => S}

/** spark-submit entrypoint for every reproduced table and figure. Prints the
  * exhibit tables the bench suites assert on:
  *
  *   spark-submit --class repro.jobs.Run repro.jar fig6
  *   sbt "runMain repro.jobs.Run table5"
  */
object Run {

  /** Exhibit id → the tables it prints, in paper order. */
  val exhibits: Seq[(String, SparkSession => Seq[Harness.Table])] = Seq(
    "table1" -> (spark => Seq(R.table1Matrix(spark))),
    "table3" -> (spark => Seq(S.table3Complexity(spark))),
    "table4" -> (spark => Seq(R.table4(spark))),
    "table5" -> (spark => Seq(D.table5Concepts(D.fitModel(spark))._1)),
    "table6" -> (spark => Seq(D.table6Relations(D.fitModel(spark))._1)),
    "fig6" -> (spark => Seq(S.fig6Order(spark), S.fig6Dim(spark), S.fig6Nnz(spark), S.fig6Rank(spark))),
    "fig7" -> (spark => Seq(R.fig7Speed(spark))),
    "fig8" -> (spark => Seq(S.fig8Cache(spark))),
    "fig9" -> (spark => Seq(S.fig9Approx(spark))),
    "fig10" -> (spark => Seq(S.fig10Threads(spark))),
    "fig11" -> (spark => Seq(R.fig11Accuracy(spark))),
  )

  def exhibit(id: String): SparkSession => Seq[Harness.Table] =
    exhibits.find(_._1 == id).map(_._2).getOrElse(throw new IllegalArgumentException(
      s"unknown exhibit '$id'; valid ids: ${exhibits.map(_._1).mkString(", ")}"))

  def main(args: Array[String]): Unit = {
    require(args.length == 1, s"usage: repro.jobs.Run <id>, id one of ${exhibits.map(_._1).mkString(", ")}")
    val run = exhibit(args(0))
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"repro-${args(0)}")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try run(spark).foreach(Harness.emit) finally spark.stop()
  }
}
