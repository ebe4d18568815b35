package repro.linalg

import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.scalacheck.{Gen, Prop, Test}
import repro.SparkSpec

/** The slab kernels: bitwise against the row-at-a-time loops they replace,
  * and the products against local dense multiplies, on generated inputs.
  */
class SlabSpec extends SparkSpec {

  private lazy val sp = spark

  private def check(p: Prop, tests: Int): Unit = {
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(17L), p)
    assert(r.passed, org.scalacheck.util.Pretty.pretty(r))
  }

  private def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToRawLongBits)

  /** An entry, zero a third of the time. */
  private val entry: Gen[Double] = Gen.frequency(1 -> Gen.const(0.0), 2 -> Gen.choose(-1e3, 1e3))

  /** Row counts that leave every tail of the 4-row kernels. */
  private val rowCount: Gen[Int] = Gen.choose(0, 13)

  private val width: Gen[Int] = Gen.oneOf(1, 4, 9, 164)

  private def slab(n: Int, w: Int): Gen[Slab] =
    Gen.listOfN(n * w, entry).map(v => new Slab(Array.tabulate(n)(_.toLong * 3), w, v.toArray))

  private def mat(rows: Int, cols: Int): Gen[Local.Mat] =
    Gen.listOfN(rows * cols, entry).map(_.toArray.grouped(cols).toArray)

  /** The Gram loop the 4-row kernel replaces: row by row, upper triangle,
    * rows' zero entries skipped.
    */
  private def rowGram(s: Slab, n: Int): Array[Double] = {
    val acc = new Array[Double](n * n)
    (0 until s.size).map(s.row).foreach { x =>
      for (i <- 0 until n if x(i) != 0.0; j <- i until n) acc(i * n + j) += x(i) * x(j)
    }
    acc
  }

  test("upperGram over all or the first n columns is bitwise the row-at-a-time Gram loop") {
    val g = for { w <- width; n <- rowCount; s <- slab(n, w); cols <- Gen.oneOf(w, 1 + (w - 1) / 2) } yield (s, cols)
    check(Prop.forAll(g) { case (s, cols) =>
      val got = Block.upperGram(s, if (cols == s.width) -1 else cols).toSeq
      if (s.size == 0) got.isEmpty else got.map(bits) == Seq(bits(rowGram(s, cols)))
    }, 60)
  }

  test("times is bitwise Local.vecMat on every row and every slice") {
    val g = for {
      w <- width; n <- rowCount; slices <- Gen.oneOf(1, 2); cols <- Gen.oneOf(1, 3, 70)
      s <- slab(n, w * slices); m <- mat(w, cols)
    } yield (s, m)
    check(Prop.forAll(g) { case (s, m) =>
      val got = Slab.times(s, m)
      val want = (0 until s.size).flatMap(i => s.row(i).grouped(m.length).flatMap(Local.vecMat(_, m)))
      got.ids.sameElements(s.ids) && got.width == s.width / m.length * m(0).length &&
        bits(got.values) == bits(want.toArray)
    }, 60)
  }

  /** Entries over rows `0 until 24` and columns `0 until 16` with positive
    * weights and duplicate pairs; a dense block over a random subset of
    * the ids of one side, so ids are missing from either side.
    */
  private val product: Gen[(Seq[(Long, Long, Double)], Map[Long, Array[Double]], Int, Int, Boolean)] = for {
    n <- Gen.choose(1, 60)
    es <- Gen.listOfN(n, for { r <- Gen.choose(0L, 23L); c <- Gen.choose(0L, 15L); w <- Gen.choose(0.1, 2.0) } yield (r, c, w))
    dups <- Gen.choose(0, n)
    w <- Gen.oneOf(1, 4, 9)
    transposed <- Gen.oneOf(false, true)
    ids <- Gen.someOf(0L until (if (transposed) 16L else 24L))
    rows <- Gen.listOfN(ids.size, Gen.listOfN(w, entry).map(_.toArray))
    parts <- Gen.oneOf(1, 3, 8)
  } yield (es ++ es.take(dups).map { case (r, c, x) => (r, c, x * 0.5) }, ids.zip(rows).toMap, w, parts, transposed)

  test("mul and mulT on all four views (scaled or not, transposed or not) match a local dense multiply") {
    import sp.implicits._
    val views = Seq((0.0, 0.0), (-0.5, -0.5), (-1.0, 0.0), (0.0, -1.0), (-0.5, -1.0))
    check(Prop.forAll(product) { case (es, dense, w, parts, transposed) =>
      val op = SparseOp(es.toDF("r", "c", "w"), "r", "c", "w", parts)
      try {
        val dr = es.groupMapReduce(_._1)(_._3)(_ + _); val dc = es.groupMapReduce(_._2)(_._3)(_ + _)
        val y = op.coPartition(dense.toSeq.map { case (id, v) => BRow(id, v) }.toDS())
        views.forall { case (a, b) =>
          val v = op.scaled(a, b)
          val got = Seq(collectRows(if (transposed) v.mulT(y) else v.mul(y)),
                        collectRows(if (transposed) v.t.mul(y) else v.t.mulT(y)))
          // out[to] = Σ m(from, to) · y[from] over the entries with y[from] present.
          val m = es.map { case (r, c, x) => (r, c, math.pow(dr(r), a) * x * math.pow(dc(c), b)) }
            .map { case (r, c, x) => if (transposed) (c, r, x) else (r, c, x) }
          val want = m.filter(e => dense.contains(e._1)).groupBy(_._2).map { case (to, g) =>
            to -> Array.tabulate(w)(j => g.map(e => e._3 * dense(e._1)(j)).sum)
          }
          got.forall(g => g.keySet == want.keySet &&
            want.forall { case (id, r) => r.indices.forall(j => math.abs(g(id)(j) - r(j)) < 1e-10) })
        }
      } finally op.unpersist()
    }, 8)
  }

  test("a product writes at most P² shuffle records, one per pair of partitions") {
    import sp.implicits._
    val rnd = new scala.util.Random(23)
    val es = Seq.fill(3000)((rnd.nextInt(400).toLong, rnd.nextInt(300).toLong, 0.5 + rnd.nextDouble()))
    val p = 4
    val op = SparseOp(es.toDF("r", "c", "w"), "r", "c", "w", p)
    val y = op.block(8)(Local.gaussianInto(3, _, 8, _, _)).persist(SparseOp.Level)
    y.count()
    val records = new java.util.concurrent.atomic.AtomicLong
    val out = listening(new SparkListener {
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(e.taskMetrics).foreach(m => records.addAndGet(m.shuffleWriteMetrics.recordsWritten))
    })(op.mul(y).map(_.size.toLong).sum().toLong)
    assert(out == es.map(_._2).distinct.size && out > p * p)
    assert(records.get() > 0 && records.get() <= p * p, s"${records.get()} shuffle records")
    y.unpersist(); op.unpersist()
  }
}
