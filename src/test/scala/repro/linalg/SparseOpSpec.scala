package repro.linalg

import org.apache.spark.ShuffleDependency
import org.apache.spark.rdd.RDD
import repro.SparkSpec
import repro.linalg.SparseOp.Rows

/** The partition-once sparse operator vs local dense multiplies. */
class SparseOpSpec extends SparkSpec {

  private lazy val sp = spark
  import scala.util.Random

  private val NCols = 30; private val Width = 5

  /** Random edges over the even rows 0 until 60, with duplicate (row, col)
    * pairs, and a dense block over the rows divisible by 3: odd ones are
    * absent from the matrix, and even rows not divisible by 3 are absent from
    * the block. Under an even partition count (the test session's is 64) the
    * odd partitions of the row-grouped copy are empty.
    */
  private def input(seed: Int) = {
    val rnd = new Random(seed)
    val base = Seq.fill(150)((2L * rnd.nextInt(30), rnd.nextInt(NCols).toLong, rnd.nextGaussian()))
    val es = base ++ base.take(20).map { case (r, c, _) => (r, c, rnd.nextGaussian()) }
    val dense = (0L until 60L by 3L).map(i => i -> Array.fill(Width)(rnd.nextGaussian())).toMap
    (es, dense)
  }

  private def mkOp(es: Seq[(Long, Long, Double)]): SparseOp = {
    import sp.implicits._
    SparseOp(es.toDF("r", "c", "w"), "r", "c", "w")
  }

  private def mkDense(rows: Map[Long, Array[Double]]) = {
    import sp.implicits._
    rows.toSeq.map { case (id, v) => BRow(id, v) }.toDS()
  }

  /** `out[to] = Σ w · dense[from]` over edges `(from, to, w)`, keyed by the
    * ids reached from a dense row.
    */
  private def expected(es: Seq[(Long, Long, Double)],
                       dense: Map[Long, Array[Double]]): Map[Long, Array[Double]] =
    es.filter(e => dense.contains(e._1)).groupBy(_._2).map { case (to, g) =>
      val acc = new Array[Double](Width)
      g.foreach { case (from, _, w) => for (j <- 0 until Width) acc(j) += w * dense(from)(j) }
      to -> acc
    }

  private def assertClose(got: Map[Long, Array[Double]], want: Map[Long, Array[Double]]): Unit = {
    assert(got.keySet == want.keySet)
    for ((id, v) <- want; j <- 0 until Width)
      assert(math.abs(got(id)(j) - v(j)) < 1e-10, s"row $id, column $j")
  }

  private def collect(x: Rows): Map[Long, Array[Double]] = x.collect().toMap

  test("mul matches a local dense multiply (duplicates, missing rows, empty partitions)") {
    val (es, dense) = input(3)
    val op = mkOp(es)
    val y = op.coPartition(mkDense(dense))
    // The inputs this test is about.
    assert(es.map(e => (e._1, e._2)).distinct.size < es.size)
    assert(dense.keySet.exists(id => !es.exists(_._1 == id)))
    assert(es.exists(e => !dense.contains(e._1)))
    assert(op.rows.collect().exists(_.rowIds.isEmpty))
    assertClose(collect(op.mul(y)), expected(es, dense))
  }

  test("mulT multiplies by the transpose") {
    val (es, _) = input(5)
    val rnd = new Random(6)
    val dense = (0L until NCols.toLong).filter(_ % 3 != 0)
      .map(i => i -> Array.fill(Width)(rnd.nextGaussian())).toMap
    val op = mkOp(es)
    val transposed = es.map { case (r, c, w) => (c, r, w) }
    assertClose(collect(op.mulT(op.coPartition(mkDense(dense)))), expected(transposed, dense))
  }

  test("products chain: mulT(mul(y)) needs no re-partitioning") {
    val (es, dense) = input(7)
    val op = mkOp(es)
    val t = expected(es, dense)
    val want = expected(es.map { case (r, c, w) => (c, r, w) }, t)
    assertClose(collect(op.mulT(op.mul(op.coPartition(mkDense(dense))))), want)
  }

  test("output is partitioned like the operator, ids ascending, one shuffle per product") {
    val (es, dense) = input(9)
    val op = mkOp(es)
    val y = op.coPartition(mkDense(dense))
    val out = op.mul(y)
    assert(op.partitioner.numPartitions == sp.conf.get("spark.sql.shuffle.partitions").toInt)
    assert(out.partitioner.contains(op.partitioner))
    out.glom().collect().foreach { part =>
      val ids = part.map(_._1)
      assert(ids.sameElements(ids.sorted) && ids.distinct.length == ids.length)
    }
    // Shuffles between the product's inputs (the CSR copy and the dense
    // block) and its output.
    def shuffles(rdd: RDD[_]): Int =
      if (rdd.id == op.rows.id || rdd.id == y.id) 0
      else rdd.dependencies.map { d =>
        (d match { case _: ShuffleDependency[_, _, _] => 1; case _ => 0 }) + shuffles(d.rdd)
      }.sum
    assert(shuffles(out) == 1)
  }

  test("mul is bit-identical across calls and rejects a block under another partitioning") {
    val (es, dense) = input(11)
    val op = mkOp(es).cache()
    val y = op.coPartition(mkDense(dense))
    val a = collect(op.mul(y)); val b = collect(op.mul(y))
    assert(a.keySet == b.keySet && a.forall { case (id, v) => v.sameElements(b(id)) })
    val foreign: Rows = y.map(identity)
    intercept[IllegalArgumentException](op.mul(foreign))
    op.unpersist()
  }

  test("gram and pairGram of blocks match local sums") {
    val rnd = new Random(13)
    val (es, _) = input(13)
    val op = mkOp(es)
    val x = (0L until 25L).map(i => i -> Array.fill(3)(rnd.nextGaussian())).toMap
    val y = (10L until 40L).map(i => i -> Array.fill(4)(rnd.nextGaussian())).toMap
    val g = SparseOp.gram(op.coPartition(mkDense(x)))
    val pg = SparseOp.pairGram(op.coPartition(mkDense(x)), op.coPartition(mkDense(y)))
    val wantG = Local.zeros(3, 3); val wantPg = Local.zeros(3, 4)
    x.values.foreach(v => for (i <- 0 until 3; j <- 0 until 3) wantG(i)(j) += v(i) * v(j))
    for (id <- 10L until 25L; i <- 0 until 3; j <- 0 until 4) wantPg(i)(j) += x(id)(i) * y(id)(j)
    assert(Local.maxAbsDiff(g, wantG) < 1e-10)
    assert(Local.maxAbsDiff(pg, wantPg) < 1e-10)
  }
}
