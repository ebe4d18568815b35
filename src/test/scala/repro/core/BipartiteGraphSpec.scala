package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** P/Q/WPG construction — checked against hand examples (the paper's
  * Example 2.1) and against DuckDB SQL via the Oracle.
  */
class BipartiteGraphSpec extends SparkSpec {

  private lazy val sp = spark

  /** The Figure 2/3 example graph: u1–v1, u1–v3, u2–v1, u2–v3, u3–v2, u3–v3,
    * all weights 1 (ids zero-based: u_i → i-1, v_j → j-1).
    */
  private def exampleEdges = {
    import sp.implicits._
    Seq((0L, 0L, 1.0), (0L, 2L, 1.0), (1L, 0L, 1.0), (1L, 2L, 1.0),
        (2L, 1L, 1.0), (2L, 2L, 1.0)).toDF("u", "v", "w")
  }

  private def randomEdges(seed: Int, nU: Int = 12, nV: Int = 9, p: Double = 0.4) = {
    import sp.implicits._
    val rnd = new scala.util.Random(seed)
    val base = for (u <- 0 until nU; v <- 0 until nV if rnd.nextDouble() < p)
      yield (u.toLong, v.toLong, 1.0 + rnd.nextInt(5).toDouble)
    // ensure min-degree 1 on both sides
    val cover = (0 until math.max(nU, nV)).map(i => ((i % nU).toLong, (i % nV).toLong, 1.0))
    (base ++ cover).groupBy(e => (e._1, e._2)).map { case ((u, v), g) => (u, v, g.map(_._3).max) }
      .toSeq.toDF("u", "v", "w")
  }

  Seq("a NaN weight"      -> (1L, 2L, Double.NaN),
      "an infinite weight" -> (1L, 2L, Double.PositiveInfinity),
      "a zero weight"      -> (1L, 2L, 0.0),
      "a negative weight"  -> (1L, 2L, -1.0),
      "a negative U id"    -> (-1L, 2L, 1.0),
      "a negative V id"    -> (1L, -3L, 1.0)).foreach { case (what, (u, v, w)) =>
    test(s"the graph's operator rejects an edge with $what, naming it") {
      import sp.implicits._
      val edges = (Seq((0L, 0L, 1.0), (1L, 1L, 2.0), (2L, 2L, 1.0)) :+ ((u, v, w))).toDF("u", "v", "w")
      val e = intercept[IllegalArgumentException](Hope.embed(edges, 2, Hope.Params(beta = 2, powerIters = 1)))
      assert(e.getMessage.contains(s"u=$u, v=$v, w=$w"), e.getMessage)
    }
  }

  test("the first bad edge in (u, v) order is the one named") {
    import sp.implicits._
    val edges = Seq((3L, 0L, -2.0), (0L, 0L, 1.0), (1L, 4L, 0.0), (1L, 1L, 2.0)).toDF("u", "v", "w")
    val e = intercept[IllegalArgumentException](BipartiteGraph.operator(edges))
    assert(e.getMessage.contains("u=1, v=4, w=0.0"), e.getMessage)
  }

  test("the graph's operator rejects a null id or weight, naming the edge, and releases what it built") {
    import sp.implicits._
    val ok = Seq[(Option[Long], Option[Long], Option[Double])]((Some(0L), Some(0L), Some(1.0)), (Some(3L), Some(1L), Some(2.0)))
    val sc = sp.sparkContext
    val before = sc.getPersistentRDDs.keySet
    // An edge with a null is named before an edge that is bad otherwise.
    Seq((None, Some(2L), Some(1.0)) -> "u=null, v=2, w=1.0",
        (Some(1L), None, Some(1.0)) -> "u=1, v=null, w=1.0",
        (Some(1L), Some(2L), None) -> "u=1, v=2, w=null").foreach { case (bad, want) =>
      val edges = (ok :+ ((Some(0L), Some(1L), Some(-1.0))) :+ bad).toDF("u", "v", "w")
      val e = intercept[IllegalArgumentException](BipartiteGraph.operator(edges))
      assert(e.getMessage.contains(s"bad edge ($want)"), e.getMessage)
    }
    assert(sc.getPersistentRDDs.keySet == before)
  }

  test("P rows sum to 1 (transition matrix is row-stochastic)") {
    val p = BipartiteGraph.pEdges(randomEdges(1))
    val sums = p.groupBy("u").agg(sum("p").as("s")).collect()
    sums.foreach(r => assert(math.abs(r.getDouble(1) - 1.0) < 1e-12))
  }

  test("Example 2.1: p(u1,v1) = 1/2 and p(v3,u1) = 1/3") {
    val p = BipartiteGraph.pEdges(exampleEdges)
    val p11 = p.where(col("u") === 0 && col("v") === 0).head().getAs[Double]("p")
    assert(math.abs(p11 - 0.5) < 1e-12)
    // p(v3,u1) appears inside Q: Q(3,1) = sqrt(p(v3,u1)·p(u1,v3)) = 1/sqrt(6)
    val q = BipartiteGraph.qEdges(exampleEdges)
    val q31 = q.where(col("v") === 2 && col("u") === 0).head().getAs[Double]("q")
    assert(math.abs(q31 - 1.0 / math.sqrt(6.0)) < 1e-12)
  }

  test("Example 2.1: w_V(v1,v3) = 1/sqrt(6)") {
    val wpg = BipartiteGraph.wpgEdges(exampleEdges)
    val w13 = wpg.where(col("vj") === 0 && col("vl") === 2).head().getAs[Double]("wv")
    assert(math.abs(w13 - 1.0 / math.sqrt(6.0)) < 1e-12)
  }

  test("WPG is symmetric: w_V(vj,vl) = w_V(vl,vj)") {
    val wpg = BipartiteGraph.wpgEdges(randomEdges(2)).collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(2))).toMap
    wpg.foreach { case ((j, l), w) =>
      assert(math.abs(w - wpg((l, j))) < 1e-12)
    }
  }

  test("Q entries are w/sqrt(du·dv)") {
    val edges = randomEdges(3)
    val local = edges.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
    val du = local.groupBy(_._1).view.mapValues(_.map(_._3).sum).toMap
    val dv = local.groupBy(_._2).view.mapValues(_.map(_._3).sum).toMap
    val q = BipartiteGraph.qEdges(edges).collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(2))).toMap
    local.foreach { case (u, v, w) =>
      assert(math.abs(q((v, u)) - w / math.sqrt(du(u) * dv(v))) < 1e-12)
    }
  }

  test("oracle: U-side weighted degrees match DuckDB") {
    val edges = randomEdges(4)
    val sparkDf = BipartiteGraph.uDegrees(edges).select(col("u"), col("du"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT u, SUM(CAST(w AS DOUBLE)) AS du FROM edges GROUP BY u",
      "edges" -> edges)
  }

  test("oracle: transition probabilities P match DuckDB") {
    val edges = randomEdges(5)
    val sparkDf = BipartiteGraph.pEdges(edges)
    Oracle.assertEquivalent(sparkDf,
      """SELECT e.u, e.v, CAST(e.w AS DOUBLE) / d.du AS p
        |FROM edges e
        |JOIN (SELECT u, SUM(CAST(w AS DOUBLE)) AS du FROM edges GROUP BY u) d
        |  ON e.u = d.u""".stripMargin,
      "edges" -> edges)
  }

  test("oracle: Q matrix matches DuckDB") {
    val edges = randomEdges(6)
    val sparkDf = BipartiteGraph.qEdges(edges)
    Oracle.assertEquivalent(sparkDf,
      """SELECT e.v, e.u, CAST(e.w AS DOUBLE) / SQRT(a.du * b.dv) AS q
        |FROM edges e
        |JOIN (SELECT u, SUM(CAST(w AS DOUBLE)) AS du FROM edges GROUP BY u) a ON e.u = a.u
        |JOIN (SELECT v, SUM(CAST(w AS DOUBLE)) AS dv FROM edges GROUP BY v) b ON e.v = b.v""".stripMargin,
      "edges" -> edges)
  }

  test("oracle: WPG edge weights (Eq. 2) match a DuckDB self-join") {
    val edges = randomEdges(7, nU = 8, nV = 6)
    val sparkDf = BipartiteGraph.wpgEdges(edges)
    Oracle.assertEquivalent(sparkDf,
      """WITH du AS (SELECT u, SUM(CAST(w AS DOUBLE)) AS du FROM edges GROUP BY u),
        |     dv AS (SELECT v, SUM(CAST(w AS DOUBLE)) AS dv FROM edges GROUP BY v),
        |     q AS (SELECT e.v, e.u, CAST(e.w AS DOUBLE) / SQRT(du.du * dv.dv) AS q
        |           FROM edges e JOIN du ON e.u = du.u JOIN dv ON e.v = dv.v)
        |SELECT q1.v AS vj, q2.v AS vl, SUM(q1.q * q2.q) AS wv
        |FROM q q1 JOIN q q2 ON q1.u = q2.u
        |GROUP BY q1.v, q2.v""".stripMargin,
      "edges" -> edges)
  }

  test("uIds/vIds enumerate the touched vertices") {
    val edges = exampleEdges
    assert(BipartiteGraph.uIds(edges).collect().map(_.getLong(0)).sorted.sameElements(Array(0L, 1L, 2L)))
    assert(BipartiteGraph.vIds(edges).collect().map(_.getLong(0)).sorted.sameElements(Array(0L, 1L, 2L)))
  }

  test("weighted graphs: heavier edges get proportionally larger p") {
    import sp.implicits._
    val edges = Seq((0L, 0L, 3.0), (0L, 1L, 1.0)).toDF("u", "v", "w")
    val p = BipartiteGraph.pEdges(edges).collect()
      .map(r => (r.getLong(1), r.getDouble(2))).toMap
    assert(math.abs(p(0L) - 0.75) < 1e-12)
    assert(math.abs(p(1L) - 0.25) < 1e-12)
  }
}
