package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.linalg.{Block, Local}

/** HOPE+ (Algorithms 2–3): both rounding schemes, eigen stage, convergence. */
class HopePlusSpec extends SparkSpec {

  private lazy val sp = spark
  private val params = HopePlus.Params(powerIters = 8, maxRounds = 30, seed = 3)

  test("FNEM recovers a well-separated planted partition") {
    val g = TestGraphs.easy(sp)
    val assign = HopePlus.run(g.edges, g.config.k, HopePlus.Fnem, params)
    val s = Metrics.evaluate(assign, g.uLabels)
    assert(s.ari > 0.9, s"scores: $s")
  }

  test("SNEM recovers a well-separated planted partition") {
    val g = TestGraphs.easy(sp)
    val assign = HopePlus.run(g.edges, g.config.k, HopePlus.Snem, params)
    val s = Metrics.evaluate(assign, g.uLabels)
    assert(s.ari > 0.9, s"scores: $s")
  }

  test("both variants survive hub-heavy noise") {
    val g = TestGraphs.hubHeavy(sp)
    val (fnem, snem) = HopePlus.runBoth(g.edges, g.config.k, params)
    assert(Metrics.evaluate(fnem, g.uLabels).ari > 0.6)
    assert(Metrics.evaluate(snem, g.uLabels).ari > 0.6)
  }

  test("works on weighted graphs") {
    val g = TestGraphs.weighted(sp)
    val assign = HopePlus.run(g.edges, g.config.k, HopePlus.Snem, params)
    assert(Metrics.evaluate(assign, g.uLabels).ari > 0.85)
  }

  test("leftSingular produces orthonormal columns (relaxed L, Lemma 4.3)") {
    val g = TestGraphs.easy(sp)
    val x = Hope.embed(g.edges, g.config.k, Hope.Params(powerIters = 8, seed = 3))
    val l = HopePlus.leftSingular(x, g.config.k)
    assert(Local.maxAbsDiff(Block.gram(l), Local.eye(g.config.k)) < 1e-6)
  }

  test("leftSingular spans the top of XXᵀ: trace test (Ky Fan, Lemma 4.1)") {
    val g = TestGraphs.easy(sp)
    val x = Hope.embed(g.edges, g.config.k, Hope.Params(powerIters = 8, seed = 3))
    val k = g.config.k
    val l = HopePlus.leftSingular(x, k)
    // Tr(Lᵀ X Xᵀ L) must equal the sum of the top-k eigenvalues of XᵀX.
    val gramX = Block.gram(x)
    val (_, lam) = Local.symEigDesc(gramX)
    val (lRows, xRows) = (Block.collectMap(l), Block.collectMap(x))
    val ltx = Local.zeros(k, xRows.head._2.length) // k×β
    for ((id, lv) <- lRows; xv = xRows(id); i <- lv.indices; j <- xv.indices) ltx(i)(j) += lv(i) * xv(j)
    val trace = ltx.map(r => r.map(x2 => x2 * x2).sum).sum
    assert(math.abs(trace - lam.take(k).sum) < 1e-6 * math.max(1.0, lam.take(k).sum))
  }

  /** Algorithm 3 on the collected L: argmax under I, then `Lᵀ C → T →
    * argmax` until no row changes or `maxRounds` rounds. Returns the
    * assignment and the number of rounds run.
    */
  private def localRounding(l: Map[Long, Array[Double]], k: Int, urt: HopePlus.Urt,
                            maxRounds: Int): (Map[Long, Int], Int) = {
    def argmaxUnder(t: Local.Mat) = l.map { case (id, v) => id -> Local.argmax(Local.vecMat(v, t)) }
    var assign = argmaxUnder(Local.eye(k))
    var rounds = 0
    var changed = -1
    while (rounds < maxRounds && changed != 0) {
      val ltc = Local.zeros(k, k)
      assign.groupBy(_._2).foreach { case (j, members) =>
        members.keys.foreach(id => (0 until k).foreach(a => ltc(a)(j) += l(id)(a)))
        (0 until k).foreach(a => ltc(a)(j) /= math.sqrt(members.size.toDouble))
      }
      val t = urt match {
        case HopePlus.Fnem =>
          val (phi, _, v) = Local.svdSmall(ltc)
          Local.matmul(phi, Local.transpose(v))
        case HopePlus.Snem => ltc
      }
      val next = argmaxUnder(t)
      changed = l.keys.count(id => next(id) != assign(id))
      assign = next
      rounds += 1
    }
    (assign, rounds)
  }

  test("FNEM and SNEM match a local Algorithm 3: same assignment, same round count") {
    val spark2 = sp
    import spark2.implicits._
    Seq(TestGraphs.easy(sp), TestGraphs.hubHeavy(sp)).foreach { g =>
      val x = Hope.embed(g.edges, g.config.k, Hope.Params(powerIters = 8, seed = 3))
      val l = HopePlus.leftSingular(x, g.config.k).transform(Block.localize)
      val rows = Block.collectMap(l)
      for (urt <- Seq(HopePlus.Fnem, HopePlus.Snem); maxRounds <- Seq(1, 30)) {
        val (assign, rounds) = HopePlus.rounding(l, g.config.k, urt, maxRounds)
        val (want, wantRounds) = localRounding(rows, g.config.k, urt, maxRounds)
        assert(rounds == wantRounds, s"${urt.name}, cap $maxRounds")
        assert(assign.as[(Long, Int)].collect().toMap == want, s"${urt.name}, cap $maxRounds")
      }
    }
  }

  test("KMeansD.run and both rounding variants do not depend on the partitioning") {
    val spark2 = sp
    import spark2.implicits._
    val g = TestGraphs.easy(sp)
    val k = g.config.k
    val x = Hope.embed(g.edges, k, Hope.Params(powerIters = 8, seed = 3))
    val l = HopePlus.leftSingular(x, k).transform(Block.localize)
    def sorted(a: org.apache.spark.sql.DataFrame) = a.as[(Long, Int)].collect().sortBy(_._1).toSeq
    val runs = Seq(1, 4, 16).map { p =>
      val (xp, lp) = (x.repartition(p), l.repartition(p))
      assert(xp.rdd.getNumPartitions == p && lp.rdd.getNumPartitions == p)
      (sorted(KMeansD.run(xp, k, seed = 3)),
       sorted(HopePlus.round(lp, k, HopePlus.Fnem, maxRounds = 30)),
       sorted(HopePlus.round(lp, k, HopePlus.Snem, maxRounds = 30)))
    }
    runs.tail.foreach(r => assert(r == runs.head))
  }

  test("KMeansD.run and both rounding variants leave only what they return persisted") {
    val g = TestGraphs.easy(sp)
    val k = g.config.k
    val x = Hope.embed(g.edges, k, Hope.Params(powerIters = 2, seed = 3))
    val l = HopePlus.leftSingular(x, k).transform(Block.localize)
    val leaked = leakedBy(Seq(KMeansD.run(x, k, seed = 3),
                              HopePlus.round(l, k, HopePlus.Fnem, maxRounds = 30),
                              HopePlus.round(l, k, HopePlus.Snem, maxRounds = 30)))
    assert(leaked.isEmpty, s"still persisted: ${leaked.mkString(", ")}")
  }

  test("rounding converges well before the iteration cap on easy input") {
    val g = TestGraphs.easy(sp)
    val x = Hope.embed(g.edges, g.config.k, Hope.Params(powerIters = 8, seed = 3))
    val l = HopePlus.leftSingular(x, g.config.k).transform(repro.linalg.Block.localize)
    val a30 = HopePlus.round(l, g.config.k, HopePlus.Snem, maxRounds = 30)
    val a31 = HopePlus.round(l, g.config.k, HopePlus.Snem, maxRounds = 31)
    // Converged: one extra allowed round changes nothing.
    val m = Metrics.contingency(a30, a31.withColumnRenamed("cluster", "label"))
    assert(Metrics.accuracy(m) == 1.0)
  }

  test("is deterministic for a fixed seed") {
    val g = TestGraphs.easy(sp)
    def once() = HopePlus.run(g.edges, g.config.k, HopePlus.Snem, params)
      .collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
    assert(once().sameElements(once()))
  }

  test("returns a valid k-partition of U (both variants)") {
    val g = TestGraphs.easy(sp)
    val (fnem, snem) = HopePlus.runBoth(g.edges, g.config.k, params)
    TestGraphs.assertValidAssignment(fnem, g.config.nU, g.config.k)
    TestGraphs.assertValidAssignment(snem, g.config.nU, g.config.k)
  }

  test("rounding does not degrade quality versus the greedy seeding") {
    val g = TestGraphs.hubHeavy(sp)
    val x = Hope.embed(g.edges, g.config.k, Hope.Params(powerIters = 8, seed = 3))
    val l = HopePlus.leftSingular(x, g.config.k).transform(repro.linalg.Block.localize)
    val seedOnly = HopePlus.round(l, g.config.k, HopePlus.Snem, maxRounds = 0)
    val rounded  = HopePlus.round(l, g.config.k, HopePlus.Snem, maxRounds = 30)
    val s0 = Metrics.evaluate(seedOnly, g.uLabels)
    val s1 = Metrics.evaluate(rounded, g.uLabels)
    assert(s1.ari >= s0.ari - 0.05, s"seed=$s0 rounded=$s1")
  }
}
