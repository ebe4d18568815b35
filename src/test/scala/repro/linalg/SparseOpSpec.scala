package repro.linalg

import java.util.Arrays

import org.apache.spark.{HashPartitioner, ShuffleDependency}
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
    * the block. Under an even partition count the odd partitions of the
    * row-grouped copy are empty.
    */
  private def input(seed: Int) = {
    val rnd = new Random(seed)
    val base = Seq.fill(150)((2L * rnd.nextInt(30), rnd.nextInt(NCols).toLong, rnd.nextGaussian()))
    val es = base ++ base.take(20).map { case (r, c, _) => (r, c, rnd.nextGaussian()) }
    val dense = (0L until 60L by 3L).map(i => i -> Array.fill(Width)(rnd.nextGaussian())).toMap
    (es, dense)
  }

  /** The operator of `es`, under one partition per core unless given. */
  private def mkOp(es: Seq[(Long, Long, Double)], numPartitions: Int = 0): SparseOp = {
    import sp.implicits._
    val df = es.toDF("r", "c", "w")
    if (numPartitions > 0) SparseOp(df, "r", "c", "w", numPartitions) else SparseOp(df, "r", "c", "w")
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

  private def collect(x: Rows): Map[Long, Array[Double]] = collectRows(x)

  /** The views checked against local products: `(a, b, transposed)` for
    * `D_r^a · M · D_c^b`, transposed or not.
    */
  private val Views = Seq((-0.5, -0.5, false), (-1.0, 0.0, false), (0.0, -1.0, true), (-0.5, -1.0, true))

  private def view(op: SparseOp, v: (Double, Double, Boolean)): SparseOp =
    if (v._3) op.scaled(v._1, v._2).t else op.scaled(v._1, v._2)

  /** The same entries with positive weights, so every degree power exists. */
  private def positive(es: Seq[(Long, Long, Double)]) = es.map { case (r, c, w) => (r, c, 0.5 + math.abs(w)) }

  /** Entries of a view of the matrix with entries `es`, with `D_r` and `D_c`
    * the row and column sums of `es`.
    */
  private def viewEntries(es: Seq[(Long, Long, Double)], v: (Double, Double, Boolean)) = {
    val dr = es.groupMapReduce(_._1)(_._3)(_ + _)
    val dc = es.groupMapReduce(_._2)(_._3)(_ + _)
    val m = es.map { case (r, c, w) => (r, c, math.pow(dr(r), v._1) * w * math.pow(dc(c), v._2)) }
    if (v._3) m.map { case (r, c, w) => (c, r, w) } else m
  }

  private def transpose(es: Seq[(Long, Long, Double)]) = es.map { case (r, c, w) => (c, r, w) }

  test("mul matches a local dense multiply (duplicates, missing rows, empty partitions)") {
    val (es, dense) = input(3)
    val op = mkOp(es, numPartitions = 64)
    val y = op.coPartition(mkDense(dense))
    // The inputs this test is about.
    assert(es.map(e => (e._1, e._2)).distinct.size < es.size)
    assert(dense.keySet.exists(id => !es.exists(_._1 == id)))
    assert(es.exists(e => !dense.contains(e._1)))
    assert(op.rows.collect().exists(_.rowIds.isEmpty))
    assertClose(collect(op.mul(y)), expected(es, dense))
    val pos = positive(es); val pop = mkOp(pos)
    for (v <- Views)
      assertClose(collect(view(pop, v).mul(pop.coPartition(mkDense(dense)))), expected(viewEntries(pos, v), dense))
  }

  test("mulT multiplies by the transpose") {
    val (es, _) = input(5)
    val rnd = new Random(6)
    val dense = (0L until NCols.toLong).filter(_ % 3 != 0)
      .map(i => i -> Array.fill(Width)(rnd.nextGaussian())).toMap
    val op = mkOp(es)
    assertClose(collect(op.mulT(op.coPartition(mkDense(dense)))), expected(transpose(es), dense))
    val pos = positive(es); val pop = mkOp(pos)
    for (v <- Views)
      assertClose(collect(view(pop, v).mulT(pop.coPartition(mkDense(dense)))),
                  expected(transpose(viewEntries(pos, v)), dense))
  }

  test("products chain: mulT(mul(y)) needs no re-partitioning") {
    val (es, dense) = input(7)
    for ((m, op) <- Seq(es -> mkOp(es)) ++ Views.map(v => viewEntries(positive(es), v) -> view(mkOp(positive(es)), v))) {
      val want = expected(transpose(m), expected(m, dense))
      assertClose(collect(op.mulT(op.mul(op.coPartition(mkDense(dense))))), want)
    }
  }

  test("block: one row per view row id from (seed, id); unit-norm Rademacher") {
    val (es, _) = input(15)
    val op = mkOp(es)
    val rows = op.block(16)(Local.rademacherInto(3, _, 16, _, _))
    val cols = op.t.block(16)(Local.rademacherInto(3, _, 16, _, _))
    assert(rows.partitioner.contains(op.partitioner) && cols.partitioner.contains(op.partitioner))
    assert(collect(rows).keySet == es.map(_._1).toSet)
    assert(collect(cols).keySet == es.map(_._2).toSet)
    collect(rows).foreach { case (id, v) =>
      assert(v.sameElements(Local.rademacherVec(3, id, 16)))
      assert(math.abs(Local.l2(v) - 1.0) < 1e-12)
    }
  }

  test("output is partitioned like the operator, ids ascending, one shuffle per product") {
    val (es, dense) = input(9)
    val op = mkOp(es)
    val y = op.coPartition(mkDense(dense))
    val out = op.mul(y)
    assert(op.partitioner.numPartitions == sp.sparkContext.defaultParallelism)
    assert(out.partitioner.contains(op.partitioner))
    out.glom().collect().foreach { part =>
      assert(part.length == 1)
      val ids = part.head.ids
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
    val op = mkOp(es)
    val y = op.coPartition(mkDense(dense))
    val a = collect(op.mul(y)); val b = collect(op.mul(y))
    assert(a.keySet == b.keySet && a.forall { case (id, v) => v.sameElements(b(id)) })
    val foreign: Rows = y.map(identity)
    intercept[IllegalArgumentException](op.mul(foreign))
    op.unpersist()
  }

  test("gram of a block matches local sums") {
    val rnd = new Random(13)
    val (es, _) = input(13)
    val op = mkOp(es)
    val x = (0L until 25L).map(i => i -> Array.fill(3)(rnd.nextGaussian())).toMap
    val g = SparseOp.gram(op.coPartition(mkDense(x)))
    val wantG = Local.zeros(3, 3)
    x.values.foreach(v => for (i <- 0 until 3; j <- 0 until 3) wantG(i)(j) += v(i) * v(j))
    assert(Local.maxAbsDiff(g, wantG) < 1e-10)
  }

  test("gram rejects an empty block") {
    val op = mkOp(input(17)._1)
    val empty = op.coPartition(mkDense(Map.empty))
    assert(intercept[IllegalArgumentException](SparseOp.gram(empty)).getMessage.contains("empty"))
  }

  test("degreeScale scales each row by a power of the matrix's raw row sum, on every view") {
    val (es, _) = input(19)
    val pos = positive(es); val op = mkOp(pos)
    val dr = pos.groupMapReduce(_._1)(_._3)(_ + _)
    val dc = pos.groupMapReduce(_._2)(_._3)(_ + _)
    val rnd = new Random(20)
    def block(ids: Iterable[Long]) = ids.map(i => i -> Array.fill(Width)(rnd.nextGaussian())).toMap
    for (v <- Views; pow <- Seq(0.5, -1.0)) {
      val m = view(op, v)
      val (ids, d) = if (v._3) (dc.keys, dc) else (dr.keys, dr)
      val y = block(ids)
      val want = y.map { case (id, r) => id -> r.map(_ * math.pow(d(id), pow)) }
      assertClose(collect(m.degreeScale(op.coPartition(mkDense(y)), pow)), want)
    }
    intercept[IllegalArgumentException](op.degreeScale(op.coPartition(mkDense(block(dr.keys))).map(identity), 0.5))
  }

  /** The CSR of `entries` as built before the counting sort: all entries
    * sorted as boxed `(row, col, w)` tuples, weights in `Double` total order.
    */
  private def referenceCsr(entries: Seq[(Long, Long, Double)]): SparseOp.Csr = {
    val es = entries.toArray
    es.sortInPlace()(Ordering.Tuple3(Ordering.Long, Ordering.Long, Ordering.Double.TotalOrdering))
    val rowIds = es.map(_._1).distinct
    val colIds = es.map(_._2).distinct.sorted
    val rowPtr = rowIds.map(r => es.indexWhere(_._1 == r)) :+ es.length
    new SparseOp.Csr(rowIds, rowPtr, colIds, es.map(e => Arrays.binarySearch(colIds, e._2)), es.map(_._3))
  }

  private def assertSameCsr(got: SparseOp.Csr, want: SparseOp.Csr, where: String): Unit = {
    assert(got.rowIds.sameElements(want.rowIds), s"$where: rowIds")
    assert(got.rowPtr.sameElements(want.rowPtr), s"$where: rowPtr")
    assert(got.colIds.sameElements(want.colIds), s"$where: colIds")
    assert(got.colIdx.sameElements(want.colIdx), s"$where: colIdx")
    assert(got.w.map(java.lang.Double.doubleToRawLongBits).sameElements(want.w.map(java.lang.Double.doubleToRawLongBits)),
           s"$where: w")
  }

  test("the build's CSRs equal a (row, col, w) tuple sort, array for array") {
    import sp.implicits._
    val rnd = new Random(21)
    val (es, _) = input(21)
    // One very heavy row, duplicate (row, col) pairs with different weights
    // (signed zeros among them), negative weights, all in shuffled order.
    val heavy = Seq.fill(400)((4L, rnd.nextInt(NCols).toLong, rnd.nextGaussian()))
    val zeros = Seq((6L, 3L, 0.0), (6L, 3L, -0.0), (6L, 3L, -1.5), (6L, 3L, 2.5))
    val all = rnd.shuffle(es ++ heavy ++ zeros ++ heavy.take(30).map { case (r, c, _) => (r, c, rnd.nextGaussian()) })
    assert(all.exists(_._3 < 0) && all.map(e => (e._1, e._2)).distinct.size < all.size)
    val n = 8
    val p = new HashPartitioner(n)
    // Entries come from one and from several edge partitions.
    for (df <- Seq(all.toDF("r", "c", "w").coalesce(1), all.toDF("r", "c", "w").repartition(5))) {
      val op = SparseOp(df, "r", "c", "w", n)
      val (rows, cols) = (op.rows.collect(), op.cols.collect())
      // Even row ids only: the row copy's odd partitions are empty.
      assert(rows.exists(_.rowIds.isEmpty))
      for (i <- 0 until n) {
        assertSameCsr(rows(i), referenceCsr(all.filter(e => p.getPartition(e._1) == i)), s"rows, partition $i")
        assertSameCsr(cols(i), referenceCsr(transpose(all).filter(e => p.getPartition(e._1) == i)), s"cols, partition $i")
      }
      op.unpersist()
    }
  }

  test("one job builds and caches the operator: one shuffle under the cached copies, row and column counts") {
    val (es, _) = input(25)
    val sc = sp.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val op = mkOp(es)
    val stored = op.rows.dependencies.head.rdd
    assert(op.cols.dependencies.head.rdd eq stored)
    assert(sc.getPersistentRDDs.keySet.toSet -- before == Set(stored.id))
    def shuffles(rdd: RDD[_]): Int = rdd.dependencies.map { d =>
      (d match { case _: ShuffleDependency[_, _, _] => 1; case _ => 0 }) + shuffles(d.rdd)
    }.sum
    assert(shuffles(stored) == 1)
    assert(op.numRows == es.map(_._1).distinct.size && op.numCols == es.map(_._2).distinct.size)
    assert(op.t.numRows == op.numCols && op.scaled(-0.5, -1.0).t.numCols == op.numRows)
    assert(op.firstInvalid.contains(es.filter(e => !(e._3 > 0)).map(e => SparseOp.Entry(Some(e._1), Some(e._2), Some(e._3)))
      .min(SparseOp.Entry.order)))
    op.unpersist()
    assert(sc.getPersistentRDDs.keySet == before)
  }

  test("gram's upper-triangle kernel is bit-identical to summing every outer product") {
    val (es, _) = input(27)
    val op = mkOp(es, numPartitions = 8)
    // The full `x xᵀ` accumulation, skipping the rows i where `x_i` is zero.
    def outerInto(acc: Array[Double], x: Array[Double]): Unit =
      for (i <- x.indices if x(i) != 0.0; j <- x.indices) acc(i * x.length + j) += x(i) * x(j)
    for (width <- Seq(1, 4, 9)) {
      // About a third of the entries are zero; odd partitions are empty.
      val x = op.block(width) { (id, out, off) =>
        val r = new Random(id * 31 + width)
        for (j <- 0 until width) out(off + j) = if (r.nextInt(3) == 0) 0.0 else r.nextGaussian() * 1e3
      }
      val parts = x.collect()
      assert(parts.exists(_.size == 0) && parts.exists(_.values.contains(0.0)))
      val want = Block.unflatten(parts.filter(_.size > 0).map { part =>
        val acc = new Array[Double](width * width)
        (0 until part.size).foreach(i => outerInto(acc, part.row(i)))
        acc
      }.reduceLeft(Local.addInPlace), width)
      def bits(m: Local.Mat) = m.flatten.map(java.lang.Double.doubleToRawLongBits).toSeq
      assert(bits(SparseOp.gram(x)) == bits(want), s"SparseOp.gram, width $width")
      assert(bits(Block.gram(SparseOp.toDataset(x))) == bits(want), s"Block.gram, width $width")
    }
  }
}
