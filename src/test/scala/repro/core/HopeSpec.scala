package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.linalg.{Block, Local}

/** HOPE (Algorithm 1) end-to-end and embedding-level properties. */
class HopeSpec extends SparkSpec {

  private lazy val sp = spark
  private val fastParams = Hope.Params(powerIters = 8, seed = 3)

  test("recovers a well-separated planted partition (high ARI)") {
    val g = TestGraphs.easy(sp)
    val assign = Hope.run(g.edges, g.config.k, fastParams)
    val s = Metrics.evaluate(assign, g.uLabels)
    assert(s.ari > 0.9, s"scores: $s")
    assert(s.acc > 0.9, s"scores: $s")
  }

  test("beats heavy hub noise (high-order signal survives)") {
    val g = TestGraphs.hubHeavy(sp)
    val assign = Hope.run(g.edges, g.config.k, fastParams)
    val s = Metrics.evaluate(assign, g.uLabels)
    assert(s.ari > 0.6, s"scores: $s")
  }

  test("works on weighted graphs") {
    val g = TestGraphs.weighted(sp)
    val assign = Hope.run(g.edges, g.config.k, fastParams)
    val s = Metrics.evaluate(assign, g.uLabels)
    assert(s.ari > 0.85, s"scores: $s")
  }

  test("embedding rows are unit-norm (X rows normalised, Eq. 6 analog)") {
    val g = TestGraphs.easy(sp)
    val x = Hope.embed(g.edges, g.config.k, fastParams)
    Block.collectMap(x).values.foreach { v =>
      assert(math.abs(Local.l2(v) - 1.0) < 1e-8)
    }
  }

  test("embedding has one row per U vertex and β = 5k columns by default") {
    val g = TestGraphs.easy(sp)
    val x = Block.collectMap(Hope.embed(g.edges, g.config.k, fastParams))
    assert(x.size == g.config.nU)
    x.values.foreach(v => assert(v.length == 5 * g.config.k))
  }

  test("explicit β overrides the 5k default") {
    val g = TestGraphs.easy(sp)
    val x = Block.collectMap(Hope.embed(g.edges, g.config.k,
      fastParams.copy(beta = 7)))
    x.values.foreach(v => assert(v.length == 7))
  }

  test("same-cluster vertices sit closer in X than cross-cluster ones") {
    val g = TestGraphs.easy(sp)
    val x = Block.collectMap(Hope.embed(g.edges, g.config.k, fastParams))
    val labels = g.uLabels.collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    val rnd = new scala.util.Random(2)
    val ids = x.keys.toArray
    var sameSum = 0.0; var sameN = 0
    var diffSum = 0.0; var diffN = 0
    for (_ <- 0 until 4000) {
      val a = ids(rnd.nextInt(ids.length)); val b = ids(rnd.nextInt(ids.length))
      if (a != b) {
        val d = Local.sqDist(x(a), x(b))
        if (labels(a) == labels(b)) { sameSum += d; sameN += 1 }
        else { diffSum += d; diffN += 1 }
      }
    }
    assert(sameSum / sameN < 0.5 * diffSum / diffN,
      s"same=${sameSum / sameN} diff=${diffSum / diffN}")
  }

  test("X Xᵀ matches the local exact normalizeRows(P·U_β·diag((1-α)/(1-ασ²)))") {
    import sp.implicits._
    // β plus the 4 guard columns is |V|: the iterated block spans the whole
    // space, so the Ritz vectors are Q Qᵀ's exact eigenvectors. X Xᵀ does not
    // depend on the basis chosen within U's column space.
    val nU = 30; val nV = 12; val beta = 8
    val rnd = new scala.util.Random(17)
    val w = Array.tabulate(nU, nV)((i, j) =>
      if (j == i % nV || rnd.nextDouble() < 0.35) 1.0 + rnd.nextInt(3) else 0.0)
    val edges = (for (i <- 0 until nU; j <- 0 until nV if w(i)(j) > 0)
      yield (i.toLong, j.toLong, w(i)(j))).toDF("u", "v", "w")
    val params = Hope.Params(beta = beta, powerIters = 4, seed = 3)
    val x = Block.collectMap(Hope.embed(edges, 3, params))

    val du = w.map(_.sum)
    val dv = Array.tabulate(nV)(j => w.map(_(j)).sum)
    val q = Array.tabulate(nV, nU)((j, i) => w(i)(j) / math.sqrt(du(i) * dv(j)))
    val (u, lam) = Local.symEigDesc(Local.matmul(q, Local.transpose(q)))
    val f = lam.take(beta).map(l =>
      (1 - params.alpha) / (1 - params.alpha * math.min(math.max(l, 0.0), 1 - 1e-12)))
    val xHat = Array.tabulate(nU, beta)((i, c) => (0 until nV).map(j => w(i)(j) / du(i) * u(j)(c)).sum * f(c))
    val want = xHat.map(r => Local.axpy(1 / Local.l2(r), r))
    def gram(rows: Int => Array[Double]) =
      Array.tabulate(nU, nU)((i, l) => rows(i).zip(rows(l)).map(p => p._1 * p._2).sum)
    val err = Local.maxAbsDiff(gram(i => x(i.toLong)), gram(want))
    assert(err < 1e-8, s"max |XXᵀ - exact| = $err")
  }

  test("embed's Spark jobs are labelled with the step that submitted them") {
    val g = TestGraphs.easy(sp)
    val labels = jobLabels(Hope.embed(g.edges, g.config.k, Hope.Params(powerIters = 2, seed = 3)))
    // The first `operator/build` is the shuffle stage of the generated edges'
    // own plan, which the operator's build runs; the second is the build.
    assert(labels ==
      Seq("operator/build", "operator/build", "subspace/step 1", "subspace/step 2", "subspace/ritz", "embed/x"))
  }

  test("embed rejects k > |U| and β > min(|U|, |V|), after the edge check") {
    import sp.implicits._
    // |U| = 3, |V| = 5.
    val es = Seq((0L, 0L, 1.0), (0L, 1L, 1.0), (1L, 2L, 2.0), (1L, 3L, 1.0), (2L, 4L, 1.0), (2L, 0L, 1.0))
    def embed(edges: Seq[(Long, Long, Double)], k: Int, beta: Int) =
      intercept[IllegalArgumentException](Hope.embed(edges.toDF("u", "v", "w"), k, Hope.Params(beta = beta, powerIters = 1)))
        .getMessage
    val tooManyK = embed(es, 4, 4)
    assert(tooManyK.contains("k = 4") && tooManyK.contains("|U| = 3"), tooManyK)
    val tooWide = embed(es, 2, 0) // β = 5k = 10
    assert(tooWide.contains("beta = 10") && tooWide.contains("min(5, 3)"), tooWide) // Q is |V| × |U|
    val badEdge = embed(es :+ ((1L, 1L, -1.0)), 4, 0)
    assert(badEdge.contains("bad edge (u=1, v=1, w=-1.0)"), badEdge)
  }

  test("clusters a graph whose U ids all fall in one operator partition") {
    import org.apache.spark.sql.functions.col
    // U ids that are multiples of the partition count hash to partition 0,
    // so every other partition of X, and of k-means' input, has no row.
    val g = TestGraphs.easy(sp)
    val p = sp.sparkContext.defaultParallelism
    val assign = Hope.run(g.edges.withColumn("u", col("u") * p), g.config.k, fastParams)
    TestGraphs.assertValidAssignment(assign, g.config.nU, g.config.k)
    val s = Metrics.evaluate(assign, g.uLabels.withColumn("id", col("id") * p))
    assert(s.ari > 0.9, s"scores: $s")
  }

  test("is deterministic for a fixed seed") {
    val g = TestGraphs.easy(sp)
    val a = Hope.run(g.edges, g.config.k, fastParams)
      .collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
    val b = Hope.run(g.edges, g.config.k, fastParams)
      .collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
    assert(a.sameElements(b))
  }

  test("returns a valid k-partition of U") {
    val g = TestGraphs.easy(sp)
    val assign = Hope.run(g.edges, g.config.k, fastParams)
    TestGraphs.assertValidAssignment(assign, g.config.nU, g.config.k)
  }
}
