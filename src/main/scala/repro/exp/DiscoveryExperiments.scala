package repro.exp

import org.apache.spark.sql.SparkSession
import repro.TensorGen
import repro.core.{PTucker, PTuckerConfig, TuckerModel}
import repro.discovery.{ConceptDiscovery, RelationDiscovery}

/** Section-V experiments: Table V (concept discovery) and Table VI
  * (relation discovery) on the MovieLens-like tensor with *planted* genre /
  * hour / year structure, so alignment is measured, not narrated.
  */
object DiscoveryExperiments {

  val Users = 600
  val Movies = 150
  val Years = 21
  val Hours = 24

  /** One factorization shared by both tables (paper: J=8 on MovieLens;
    * movie mode gets J=8 here, other modes are smaller to bound `|G|`).
    */
  def fitModel(spark: SparkSession): TuckerModel = {
    val t = TensorGen.movieLensLike(spark, users = Users, movies = Movies,
      years = Years, hours = Hours, nnz = 40000, noiseSd = 0.02, seed = 42).persisted()
    val model = PTucker.fit(spark, t, PTuckerConfig(
      ranks = Array(6, 8, 4, 4), lambda = 0.01, maxIters = 8, tol = 1e-6))
    t.unpersist()
    model
  }

  private def genreName(g: Int) = TensorGen.Genres(g)

  /** Table V: K-means clusters (k = 12) over the movie-mode factor rows,
    * with the planted genre as ground truth. Returns (table, overall purity).
    */
  def table5Concepts(model: TuckerModel): (Harness.Table, Double) = {
    val k = 12
    val labels = Array.tabulate(Movies)(m => TensorGen.movieGenre(m, Movies))
    val movieFactor = model.factors(1)
    val purity = ConceptDiscovery.overallPurity(movieFactor, k, labels)
    val concepts = ConceptDiscovery.concepts(movieFactor, k, labels, samplesPerCluster = 3)
    val rows = concepts.take(6).zipWithIndex.map { case (c, i) =>
      Seq(s"C${i + 1}: ${genreName(c.dominantLabel)}", c.size.toString,
        f"${c.purity}%.2f", c.sampleIndices.map(m => s"movie#$m").mkString(", "))
    }
    (Harness.Table(f"Table V — movie concepts (overall purity $purity%.2f; paper found Thriller/Comedy/Drama)",
      Seq("Concept", "Size", "Purity", "Sample movies"), rows), purity)
  }

  /** Table VI: the top-|G|-value core cells read as relations between the
    * implicated factor columns; alignment = overlap of the hour-mode
    * column's top hours with the planted preferred hours of the genre that
    * dominates the movie-mode column. Returns (table, #aligned of the top 3).
    */
  def table6Relations(model: TuckerModel): (Harness.Table, Int) = {
    val rels = RelationDiscovery.topRelations(model, 3, attrsPerMode = 5)
    var aligned = 0
    val rows = rels.zipWithIndex.map { case (r, i) =>
      val genreOfTop = r.topAttributes(1).map(m => TensorGen.movieGenre(m, Movies))
        .groupBy(identity).maxBy(_._2.length)._1
      val topHours = r.topAttributes(3).toSeq
      val topYears = r.topAttributes(2).toSeq
      val planted = TensorGen.GenreHours(genreOfTop)
      val overlap = planted.count(topHours.contains)
      if (overlap >= 2) aligned += 1
      Seq(s"R${i + 1}", f"${r.value}%.2f", genreName(genreOfTop),
        topHours.mkString("hours{", ",", "}"), topYears.mkString("years{", ",", "}"),
        s"$overlap/5 planted hours")
    }
    (Harness.Table(s"Table VI — relations ($aligned/3 aligned; paper found Drama-Hour, Comedy-Year, Year-Hour)",
      Seq("Relation", "G value", "Genre", "Top hours", "Top years", "Alignment"), rows), aligned)
  }
}
