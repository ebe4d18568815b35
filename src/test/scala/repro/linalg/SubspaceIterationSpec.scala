package repro.linalg

import repro.SparkSpec

/** Subspace iteration vs exact local eigendecomposition. */
class SubspaceIterationSpec extends SparkSpec {

  private lazy val sp = spark

  /** Dense PSD matrix as an operator on row-blocks plus its local form. */
  private def randomPsd(n: Int, seed: Int): Local.Mat = {
    val rnd = new scala.util.Random(seed)
    val a = Array.fill(n)(Array.fill(n)(rnd.nextGaussian() / math.sqrt(n.toDouble)))
    Local.matmul(a, Local.transpose(a))
  }

  private def asEdges(m: Local.Mat) = {
    import sp.implicits._
    (for (i <- m.indices; j <- m(i).indices if m(i)(j) != 0.0)
      yield (i.toLong, j.toLong, m(i)(j))).toDF("src", "dst", "w")
  }

  test("topEig recovers the leading eigenvalues of a PSD matrix") {
    import sp.implicits._
    val n = 24
    val m = randomPsd(n, 42)
    val edges = asEdges(m)
    val ids = (0L until n.toLong).toDF("id")
    val (_, lam) = SubspaceIteration.topEig(edges, "src", "dst", "w", ids, 5, 30, seed = 9)
    val (_, exact) = Local.symEigDesc(m)
    for (i <- 0 until 5)
      assert(math.abs(lam(i) - exact(i)) < 1e-4, s"eig $i: ${lam(i)} vs ${exact(i)}")
  }

  test("topEig eigenvectors satisfy A v = λ v") {
    import sp.implicits._
    val n = 16
    val m = randomPsd(n, 7)
    val edges = asEdges(m)
    val ids = (0L until n.toLong).toDF("id")
    val (vecs, lam) = SubspaceIteration.topEig(edges, "src", "dst", "w", ids, 3, 40, seed = 1)
    val v = Block.collectMap(vecs)
    val av = Block.collectMap(Block.spmm(edges, vecs, "src", "dst"))
    for (id <- 0L until n.toLong; j <- 0 until 3)
      assert(math.abs(av(id)(j) - lam(j) * v(id)(j)) < 1e-3)
  }

  test("topEig returns orthonormal vectors") {
    import sp.implicits._
    val n = 20
    val edges = asEdges(randomPsd(n, 13))
    val ids = (0L until n.toLong).toDF("id")
    val (vecs, _) = SubspaceIteration.topEig(edges, "src", "dst", "w", ids, 4, 25, seed = 5)
    assert(Local.maxAbsDiff(Block.gram(vecs), Local.eye(4)) < 1e-6)
  }

  test("topEig with a shift finds the algebraically largest eigenvalues") {
    import sp.implicits._
    val n = 20
    val rnd = new scala.util.Random(17)
    val a = Array.fill(n)(Array.fill(n)(rnd.nextGaussian() / math.sqrt(n.toDouble)))
    val m = Local.scale(Local.add(a, Local.transpose(a)), 0.5) // symmetric, indefinite
    val ids = (0L until n.toLong).toDF("id")
    val (_, lam) = SubspaceIteration.topEig(asEdges(m), "src", "dst", "w", ids, 3, 60,
                                            seed = 4, shift = 3.0)
    val (_, exact) = Local.symEigDesc(m)
    assert(exact.last < 0)
    for (i <- 0 until 3)
      assert(math.abs(lam(i) - exact(i)) < 1e-4, s"eig $i: ${lam(i)} vs ${exact(i)}")
  }

  test("topLeftSingular matches exact SVD singular values") {
    import sp.implicits._
    val rnd = new scala.util.Random(29)
    val rows = 18; val cols = 12
    val m = Array.fill(rows)(Array.fill(cols)(rnd.nextGaussian()))
    val edges = (for (i <- 0 until rows; j <- 0 until cols)
      yield (i.toLong, j.toLong, m(i)(j))).toDF("r", "c", "w")
    val ids = (0L until rows.toLong).toDF("id")
    val (vecs, sv) = SubspaceIteration.topLeftSingular(
      edges, "r", "c", "w", ids, 4, 35, seed = 3)
    val (_, exact, _) = Local.svdSmall(m.map(_.clone()) ++ Array.empty)
    for (i <- 0 until 4)
      assert(math.abs(sv(i) - exact(i)) < 1e-4, s"σ$i: ${sv(i)} vs ${exact(i)}")
    // Left singular vectors diagonalise M Mᵀ.
    val mmt = Local.matmul(m, Local.transpose(m))
    val v = Block.collectMap(vecs)
    for (id <- 0L until rows.toLong; j <- 0 until 4) {
      val row = (0 until rows).map(i2 => mmt(id.toInt)(i2) * v(i2.toLong)(j)).sum
      assert(math.abs(row - sv(j) * sv(j) * v(id)(j)) < 1e-3)
    }
  }

  test("topLeftSingular is deterministic for a fixed seed") {
    import sp.implicits._
    val rnd = new scala.util.Random(31)
    val edges = (for (i <- 0 until 10; j <- 0 until 8 if rnd.nextDouble() < 0.4)
      yield (i.toLong, j.toLong, rnd.nextDouble())).toDF("r", "c", "w")
    val ids = edges.select(org.apache.spark.sql.functions.col("r").as("id")).distinct()
    val (_, s1) = SubspaceIteration.topLeftSingular(edges, "r", "c", "w", ids, 3, 20, 77)
    val (_, s2) = SubspaceIteration.topLeftSingular(edges, "r", "c", "w", ids, 3, 20, 77)
    assert(s1.sameElements(s2))
  }

  test("topLeftSingular releases every RDD it persisted but the result") {
    import sp.implicits._
    val rnd = new scala.util.Random(37)
    val edges = (for (i <- 0 until 30; j <- 0 until 20 if rnd.nextDouble() < 0.3)
      yield (i.toLong, j.toLong, rnd.nextDouble())).toDF("r", "c", "w")
    val ids = edges.select(org.apache.spark.sql.functions.col("r").as("id")).distinct()
    val sc = sp.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val (vecs, _) = SubspaceIteration.topLeftSingular(edges, "r", "c", "w", ids, 3, 4, 1)
    assert(vecs.count() == ids.count())
    val added = sc.getPersistentRDDs.filter { case (id, _) => !before.contains(id) }.values
    assert(added.size <= 1, s"still persisted: ${added.mkString(", ")}")
    assert(added.forall(_.isCheckpointed))
  }
}
