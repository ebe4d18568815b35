package repro.linalg

import org.apache.spark.sql.Dataset
import repro.SparkSpec

/** Distributed dense-block kernels vs local reference computations. */
class BlockSpec extends SparkSpec {

  private lazy val sp = spark
  import scala.util.Random

  private def mkDense(rows: Map[Long, Array[Double]]): Dataset[BRow] = {
    import sp.implicits._
    rows.toSeq.map { case (id, v) => BRow(id, v) }.toDS()
  }

  private def mkEdges(es: Seq[(Long, Long, Double)]) = {
    import sp.implicits._
    es.toDF("src", "dst", "w")
  }

  test("spmm matches a hand-computed example") {
    // M = [[2,0],[1,3]] over src∈{0,1}; dense rows x0=(1,1), x1=(2,0)
    val edges = mkEdges(Seq((0L, 0L, 2.0), (0L, 1L, 1.0), (1L, 1L, 3.0)))
    val dense = mkDense(Map(0L -> Array(1.0, 1.0), 1L -> Array(2.0, 0.0)))
    val out = Block.collectMap(Block.spmm(edges, dense, "src", "dst"))
    assert(out(0L).sameElements(Array(2.0, 2.0)))        // 2·x0
    assert(out(1L).sameElements(Array(7.0, 1.0)))        // 1·x0 + 3·x1
  }

  test("spmm matches local dense multiply on random input") {
    val rnd = new Random(3)
    val n = 20; val m = 15; val d = 4
    val es = for (_ <- 0 until 120) yield
      (rnd.nextInt(n).toLong, rnd.nextInt(m).toLong, rnd.nextDouble())
    val dedup = es.groupBy(e => (e._1, e._2)).map { case ((s, t), g) => (s, t, g.map(_._3).sum) }.toSeq
    val dense = (0 until n).map(i => i.toLong -> Array.fill(d)(rnd.nextGaussian())).toMap
    val expected = Array.fill(m)(new Array[Double](d))
    dedup.foreach { case (s, t, w) =>
      val v = dense(s)
      for (j <- 0 until d) expected(t.toInt)(j) += w * v(j)
    }
    val out = Block.collectMap(Block.spmm(mkEdges(dedup), mkDense(dense), "src", "dst"))
    for (t <- 0 until m if out.contains(t.toLong); j <- 0 until d)
      assert(math.abs(out(t.toLong)(j) - expected(t)(j)) < 1e-10)
    // every dst with at least one edge appears
    assert(out.keySet == dedup.map(_._2).toSet)
  }

  test("gram equals XᵀX computed locally") {
    val rnd = new Random(5)
    val rows = (0L until 30L).map(i => i -> Array.fill(5)(rnd.nextGaussian())).toMap
    val g = Block.gram(mkDense(rows))
    val expected = Local.zeros(5, 5)
    rows.values.foreach { v =>
      for (i <- 0 until 5; j <- 0 until 5) expected(i)(j) += v(i) * v(j)
    }
    assert(Local.maxAbsDiff(g, expected) < 1e-10)
  }

  test("gram is bit-identical across calls on an 8-partition block") {
    val rnd = new Random(6)
    val rows = (0L until 400L).map(i => i -> Array.fill(6)(rnd.nextGaussian() * 1e3)).toMap
    val x = mkDense(rows).repartition(8).cache()
    assert(x.rdd.getNumPartitions == 8)
    val first = Block.gram(x)
    for (_ <- 0 until 5) {
      val again = Block.gram(x)
      assert(first.indices.forall(i => first(i).sameElements(again(i))))
    }
    x.unpersist()
  }

  test("pairGram equals XᵀY with join semantics") {
    val rnd = new Random(7)
    val x = (0L until 20L).map(i => i -> Array.fill(3)(rnd.nextGaussian())).toMap
    val y = (5L until 25L).map(i => i -> Array.fill(4)(rnd.nextGaussian())).toMap
    val g = Block.pairGram(mkDense(x), mkDense(y))
    val expected = Local.zeros(3, 4)
    for (id <- 5L until 20L) {
      val xv = x(id); val yv = y(id)
      for (i <- 0 until 3; j <- 0 until 4) expected(i)(j) += xv(i) * yv(j)
    }
    assert(Local.maxAbsDiff(g, expected) < 1e-10)
  }

  test("timesLocal right-multiplies every row") {
    val m = Array(Array(1.0, 2.0), Array(0.0, 1.0))
    val x = mkDense(Map(0L -> Array(1.0, 1.0), 1L -> Array(2.0, 3.0)))
    val out = Block.collectMap(Block.timesLocal(x, m))
    assert(out(0L).sameElements(Array(1.0, 3.0)))
    assert(out(1L).sameElements(Array(2.0, 7.0)))
  }

  test("scaleCols multiplies each column by its factor") {
    val x = mkDense(Map(0L -> Array(1.0, 2.0, 3.0)))
    val out = Block.collectMap(Block.scaleCols(x, Array(2.0, 0.5, -1.0)))
    assert(out(0L).sameElements(Array(2.0, 1.0, -3.0)))
  }

  test("normalizeRows produces unit rows and keeps zero rows") {
    val x = mkDense(Map(0L -> Array(3.0, 4.0), 1L -> Array(0.0, 0.0)))
    val out = Block.collectMap(Block.normalizeRows(x))
    assert(math.abs(Local.l2(out(0L)) - 1.0) < 1e-12)
    assert(out(1L).sameElements(Array(0.0, 0.0)))
  }

  test("gaussianBlock is deterministic and id-dependent") {
    import sp.implicits._
    val ids = (0L until 10L).toDF("id")
    val a = Block.collectMap(Block.gaussianBlock(ids, 6, 11))
    val b = Block.collectMap(Block.gaussianBlock(ids, 6, 11))
    val c = Block.collectMap(Block.gaussianBlock(ids, 6, 12))
    assert(a.keySet == (0L until 10L).toSet)
    assert(a.forall { case (id, v) => v.sameElements(b(id)) })
    assert(a.exists { case (id, v) => !v.sameElements(c(id)) })
  }

  test("rademacherBlock rows have unit norm") {
    import sp.implicits._
    val ids = (0L until 5L).toDF("id")
    val m = Block.collectMap(Block.rademacherBlock(ids, 16, 3))
    m.values.foreach(v => assert(math.abs(Local.l2(v) - 1.0) < 1e-12))
  }

  test("orthonormalize yields orthonormal columns") {
    import sp.implicits._
    val ids = (0L until 50L).toDF("id")
    val x = Block.gaussianBlock(ids, 6, 21)
    val g = Block.gram(Block.orthonormalize(x))
    assert(Local.maxAbsDiff(g, Local.eye(6)) < 1e-8)
  }

  test("orthonormalize preserves the column span") {
    import sp.implicits._
    val ids = (0L until 40L).toDF("id")
    val x = Block.gaussianBlock(ids, 3, 31).cache()
    val q = Block.orthonormalize(x).cache()
    // Projection of X onto span(Q) must reproduce X: X = Q (Qᵀ X).
    val qtx = Block.pairGram(q, x)
    val recon = Block.collectMap(Block.timesLocal(q, qtx))
    val orig = Block.collectMap(x)
    orig.foreach { case (id, v) =>
      v.indices.foreach(i => assert(math.abs(recon(id)(i) - v(i)) < 1e-8))
    }
  }
}
