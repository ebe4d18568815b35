package repro.linalg

import repro.SparkSpec

/** Subspace iteration vs exact local eigendecomposition. */
class SubspaceIterationSpec extends SparkSpec {

  private lazy val sp = spark

  /** A random square matrix `a`, whose `a aᵀ` is PSD. */
  private def randomSquare(n: Int, seed: Int): Local.Mat = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n)(Array.fill(n)(rnd.nextGaussian() / math.sqrt(n.toDouble)))
  }

  private def asEdges(m: Local.Mat) = {
    import sp.implicits._
    (for (i <- m.indices; j <- m(i).indices if m(i)(j) != 0.0)
      yield (i.toLong, j.toLong, m(i)(j))).toDF("src", "dst", "w")
  }

  private def ids(n: Int) = {
    import sp.implicits._
    (0L until n.toLong).toDF("id")
  }

  test("topLeftSingular recovers the leading eigenvalues of M Mᵀ") {
    val n = 24
    val a = randomSquare(n, 42)
    val (_, sv) = SubspaceIteration.topLeftSingular(asEdges(a), "src", "dst", "w", ids(n), 5, 30, seed = 9)
    val (_, exact) = Local.symEigDesc(Local.matmul(a, Local.transpose(a)))
    for (i <- 0 until 5)
      assert(math.abs(sv(i) * sv(i) - exact(i)) < 1e-4, s"eig $i: ${sv(i) * sv(i)} vs ${exact(i)}")
  }

  test("topLeftSingular vectors satisfy M Mᵀ u = σ² u") {
    val n = 16
    val a = randomSquare(n, 7)
    val m = Local.matmul(a, Local.transpose(a))
    val (vecs, sv) = SubspaceIteration.topLeftSingular(asEdges(a), "src", "dst", "w", ids(n), 3, 40, seed = 1)
    val u = Block.collectMap(vecs)
    val mu = Block.collectMap(Block.spmm(asEdges(m), vecs, "src", "dst"))
    for (id <- 0L until n.toLong; j <- 0 until 3)
      assert(math.abs(mu(id)(j) - sv(j) * sv(j) * u(id)(j)) < 1e-3)
  }

  test("topLeftSingular returns orthonormal vectors") {
    val n = 20
    val (vecs, _) = SubspaceIteration.topLeftSingular(
      asEdges(randomSquare(n, 13)), "src", "dst", "w", ids(n), 4, 25, seed = 5)
    assert(Local.maxAbsDiff(Block.gram(vecs), Local.eye(4)) < 1e-6)
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
    added.foreach(_.unpersist())
    // Request after request in one session: once each result is dropped, the
    // session holds what it held before.
    val g = repro.TestGraphs.easy(sp)
    val k = g.config.k
    g.edges.count()
    val held = sc.getPersistentRDDs.keySet
    def stillHeld = sc.getPersistentRDDs.filter { case (id, _) => !held.contains(id) }.values.mkString(", ")
    import repro.core.{BipartiteGraph, Hope, HopePlus, KMeansD}
    for (_ <- 1 to 3) {
      val x = BipartiteGraph.withOperator(g.edges)(Hope.embed(_, k, Hope.Params(powerIters = 2, seed = 3)))
      val hope = KMeansD.run(x, k, maxIters = 5, seed = 3)
      val l = SparseOp.materialize(HopePlus.leftSingular(x, k))
      val rounds = Seq(HopePlus.Fnem, HopePlus.Snem).map(HopePlus.round(l, k, _, maxRounds = 30))
      (hope +: rounds).foreach(a => assert(a.count() == g.config.nU))
      x.unpersist(); l.unpersist()
      (hope +: rounds).foreach(Block.release)
    }
    val proj = repro.baselines.Projections.uRows(g.edges, k, 16, seed = 3)
    assert(proj.map(_.size).sum() == g.config.nU)
    proj.unpersist()
    assert(sc.getPersistentRDDs.keySet == held, s"still persisted: $stillHeld")
    // The entry points: only what each returned assignment reads stays
    // persisted until the assignment is released. (The driver-local
    // baselines, LE, Girvan–Newman and BiSBM, persist nothing.)
    import repro.baselines.{DataClustering, NmfBaseline, RandomWalkEmb, Registry, SpectralBaselines}
    val methods: Seq[(String, () => org.apache.spark.sql.DataFrame)] = Seq(
      "Hope.run" -> (() => Hope.run(g.edges, k, Hope.Params(powerIters = 2, seed = 3))),
      "HopePlus.run FNEM" -> (() => HopePlus.run(g.edges, k, HopePlus.Fnem, Hope.Params(powerIters = 2, seed = 3))),
      "HopePlus.run SNEM" -> (() => HopePlus.run(g.edges, k, HopePlus.Snem, Hope.Params(powerIters = 2, seed = 3)))) ++
      (Registry.ours ++ Seq(SpectralBaselines.SC, SpectralBaselines.SCC, SpectralBaselines.SBC, RandomWalkEmb.PPR,
                            RandomWalkEmb.NRP, NmfBaseline, DataClustering.KMeansBaseline,
                            DataClustering.KMedoidsBaseline, DataClustering.BirchBaseline))
        .map(m => m.name -> (() => m.cluster(sp, g.edges, k, seed = 11)))
    for ((name, run) <- methods) {
      var assign: org.apache.spark.sql.DataFrame = null
      val leaked = leakedBy { assign = run(); Seq(assign) }
      assert(leaked.isEmpty, s"$name: still persisted: ${leaked.mkString(", ")}")
      Block.release(assign)
      assert(sc.getPersistentRDDs.keySet == held, s"$name: still persisted after its result is released: $stillHeld")
    }
  }

  test("topLeftSingular rejects β > min(rows, cols) and clamps the guard columns to fit") {
    import sp.implicits._
    val rnd = new scala.util.Random(43)
    val rows = 8; val cols = 6
    val m = Array.fill(rows)(Array.fill(cols)(rnd.nextGaussian()))
    val edges = (for (i <- 0 until rows; j <- 0 until cols) yield (i.toLong, j.toLong, m(i)(j))).toDF("r", "c", "w")
    val ids = (0L until rows.toLong).toDF("id")
    val e = intercept[IllegalArgumentException](SubspaceIteration.topLeftSingular(edges, "r", "c", "w", ids, 7, 5, 3))
    assert(e.getMessage.contains("beta = 7") && e.getMessage.contains("min(8, 6)"), e.getMessage)
    // β = 6 leaves no room for guard columns: the block spans M's column
    // space, so every singular value is exact.
    val (vecs, sv) = SubspaceIteration.topLeftSingular(edges, "r", "c", "w", ids, cols, 5, 3)
    val (_, exact, _) = Local.svdSmall(m.map(_.clone()))
    assert(sv.length == cols && vecs.first().vec.length == cols)
    for (i <- 0 until cols) assert(math.abs(sv(i) - exact(i)) < 1e-8, s"σ$i: ${sv(i)} vs ${exact(i)}")
  }

  test("the Ritz product is Mᵀ U, and Mᵀ extra(V) rotated like V") {
    import sp.implicits._
    val rnd = new scala.util.Random(41)
    val es = for (i <- 0 until 20; j <- 0 until 14 if rnd.nextDouble() < 0.4)
      yield (i.toLong, j.toLong, 0.5 + rnd.nextDouble())
    val m = SparseOp(es.toDF("r", "c", "w"), "r", "c", "w")
    val d = es.groupMapReduce(_._1)(_._3)(_ + _)
    val beta = 3
    def mt(u: Map[Long, Array[Double]], scale: Long => Double) =
      es.groupBy(_._2).map { case (c, g) =>
        c -> Array.tabulate(beta)(j => g.map { case (r, _, w) => w * scale(r) * u(r)(j) }.sum)
      }
    for (extra <- Seq(None, Some(m.degreeScale(_: SparseOp.Rows, 1.0)))) {
      val (u, p, sigma) = SubspaceIteration.topLeftSingular(m, beta, 20, 5, extra) { (u, p, s) =>
        (collectRows(u), collectRows(p), s)
      }
      val want = mt(u, _ => 1.0)
      val wantExtra = mt(u, d)
      assert(p.keySet == want.keySet)
      p.foreach { case (c, r) =>
        assert(r.length == beta * (1 + extra.size))
        for (j <- 0 until beta) {
          assert(math.abs(r(j) - want(c)(j)) < 1e-10, s"column $c, $j")
          if (extra.nonEmpty) assert(math.abs(r(beta + j) - wantExtra(c)(j)) < 1e-10, s"extra: column $c, $j")
        }
      }
      // ‖Mᵀu_j‖ = σ_j.
      for (j <- 0 until beta)
        assert(math.abs(math.sqrt(want.values.map(r => r(j) * r(j)).sum) - sigma(j)) < 1e-8)
    }
    m.unpersist()
  }
}
