package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestGraphs}
import repro.data.BipartiteGen
import repro.linalg.{Block, Local, Operators, Slab, SparseOp}

/** HOPE+ (Algorithms 2–3): both rounding schemes, eigen stage, convergence.
  * The stages run on slab blocks, as `HopePlus.run` and `TableRunner` run
  * them.
  */
class HopePlusSpec extends SparkSpec {

  private lazy val sp = spark
  private val params = Hope.Params(powerIters = 8, seed = 3)

  /** HOPE's X of `g`, materialised. */
  private def embed(g: BipartiteGen.Graph, hp: Hope.Params): RDD[Slab] =
    BipartiteGraph.withOperator(g.edges)(Hope.embed(_, g.config.k, hp))

  /** L of X, materialised. */
  private def left(x: RDD[Slab], k: Int): RDD[Slab] = SparseOp.materialize(HopePlus.leftSingular(x, k))

  /** FNEM and SNEM sharing one X and L, as `TableRunner` runs them. */
  private def both(g: BipartiteGen.Graph, p: Hope.Params): (DataFrame, DataFrame) = {
    val k = g.config.k
    val x = embed(g, p)
    val l = try left(x, k) finally x.unpersist()
    try (HopePlus.round(l, k, HopePlus.Fnem, HopePlus.MaxRounds), HopePlus.round(l, k, HopePlus.Snem, HopePlus.MaxRounds))
    finally l.unpersist()
  }

  private def sorted(a: DataFrame): Seq[(Long, Int)] = {
    val spark2 = sp
    import spark2.implicits._
    a.as[(Long, Int)].collect().sortBy(_._1).toSeq
  }

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
    val (fnem, snem) = both(g, params)
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
    val x = embed(g, Hope.Params(powerIters = 8, seed = 3))
    val l = HopePlus.leftSingular(x, g.config.k)
    assert(Local.maxAbsDiff(SparseOp.gram(l), Local.eye(g.config.k)) < 1e-6)
    x.unpersist()
  }

  test("leftSingular spans the top of XXᵀ: trace test (Ky Fan, Lemma 4.1)") {
    val g = TestGraphs.easy(sp)
    val x = embed(g, Hope.Params(powerIters = 8, seed = 3))
    val k = g.config.k
    val l = HopePlus.leftSingular(x, k)
    // Tr(Lᵀ X Xᵀ L) must equal the sum of the top-k eigenvalues of XᵀX.
    val gramX = SparseOp.gram(x)
    val (_, lam) = Local.symEigDesc(gramX)
    val (lRows, xRows) = (collectRows(l), collectRows(x))
    x.unpersist()
    val ltx = Local.zeros(k, xRows.head._2.length) // k×β
    for ((id, lv) <- lRows; xv = xRows(id); i <- lv.indices; j <- xv.indices) ltx(i)(j) += lv(i) * xv(j)
    val trace = ltx.map(r => r.map(x2 => x2 * x2).sum).sum
    assert(math.abs(trace - lam.take(k).sum) < 1e-6 * math.max(1.0, lam.take(k).sum))
  }

  /** The orthogonal polar factor `ΦΨᵀ` of `a = ΦΣΨᵀ`. */
  private def polar(a: Local.Mat): Local.Mat = {
    val (phi, _, v) = Local.svdSmall(a)
    Local.matmul(phi, Local.transpose(v))
  }

  /** Algorithm 3 on the collected L: argmax under I, then `Lᵀ C → T →
    * argmax` until no row changes or `maxRounds` rounds. Returns the
    * assignment and the number of rounds run. With empty clusters, FNEM's T
    * is the polar factor of the non-empty columns of `LᵀC`, completed by the
    * polar factor of the previous T's empty columns projected off it.
    */
  private def localRounding(l: Map[Long, Array[Double]], k: Int, urt: HopePlus.Urt,
                            maxRounds: Int): (Map[Long, Int], Int) = {
    def argmaxUnder(t: Local.Mat) = l.map { case (id, v) => id -> Local.argmax(Local.vecMat(v, t)) }
    var t = Local.eye(k)
    var assign = argmaxUnder(t)
    var rounds = 0
    var changed = -1
    while (rounds < maxRounds && changed != 0) {
      val ltc = Local.zeros(k, k)
      assign.groupBy(_._2).foreach { case (j, members) =>
        members.keys.foreach(id => (0 until k).foreach(a => ltc(a)(j) += l(id)(a)))
        (0 until k).foreach(a => ltc(a)(j) /= math.sqrt(members.size.toDouble))
      }
      val (full, empty) = (0 until k).partition(assign.values.toSet)
      t = urt match {
        case HopePlus.Fnem if empty.isEmpty => polar(ltc)
        case HopePlus.Fnem =>
          val ur = polar(ltc.map(r => full.map(r(_)).toArray))
          val proj = Array.tabulate(k, empty.size) { (i, c) =>
            t(i)(empty(c)) - full.indices.map(a => ur(i)(a) * (0 until k).map(r => ur(r)(a) * t(r)(empty(c))).sum).sum
          }
          val fill = polar(proj)
          Array.tabulate(k, k)((i, j) => if (full.contains(j)) ur(i)(full.indexOf(j)) else fill(i)(empty.indexOf(j)))
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
      val x = embed(g, Hope.Params(powerIters = 8, seed = 3))
      val l = left(x, g.config.k)
      val rows = collectRows(l)
      for (urt <- Seq(HopePlus.Fnem, HopePlus.Snem); maxRounds <- Seq(1, 30)) {
        val (assign, rounds) = HopePlus.rounding(l, g.config.k, urt, maxRounds)
        val (want, wantRounds) = localRounding(rows, g.config.k, urt, maxRounds)
        assert(rounds == wantRounds, s"${urt.name}, cap $maxRounds")
        assert(assign.as[(Long, Int)].collect().toMap == want, s"${urt.name}, cap $maxRounds")
      }
      x.unpersist(); l.unpersist()
    }
  }

  test("KMeansD.run and both rounding variants do not depend on the partitioning") {
    val g = TestGraphs.easy(sp)
    val k = g.config.k
    val x = embed(g, Hope.Params(powerIters = 8, seed = 3))
    val l = left(x, k)
    val runs = Seq(1, 4, 16).map { p =>
      val (xp, lp) = (Block.slabs(SparseOp.toDataset(x).repartition(p)), Block.slabs(SparseOp.toDataset(l).repartition(p)))
      assert(xp.getNumPartitions == p && lp.getNumPartitions == p)
      (sorted(KMeansD.run(xp, k, seed = 3)),
       sorted(HopePlus.round(lp, k, HopePlus.Fnem, maxRounds = 30)),
       sorted(HopePlus.round(lp, k, HopePlus.Snem, maxRounds = 30)))
    }
    runs.tail.foreach(r => assert(r == runs.head))
    x.unpersist(); l.unpersist()
  }

  test("the HOPE / HOPE+ request does not depend on the operator's partition count") {
    val spark2 = sp
    import spark2.implicits._
    // The corafull-wide benchmark shape (generator seed 2200): k = 70 and
    // β = 160, where FNEM's greedy seeding leaves clusters empty.
    val wide = BipartiteGen.planted(sp, BipartiteGen.Config(
      nU = 2475, nV = 8700, k = 70, targetEdges = 141250, hubFrac = 0.05, sizeSkew = 1.4, seed = 2200))
    val inputs = Seq(("easy", TestGraphs.easy(sp), Hope.Params(powerIters = 8, seed = 3)),
                     ("hubHeavy", TestGraphs.hubHeavy(sp), Hope.Params(powerIters = 8, seed = 3)),
                     ("corafull-wide", wide, Hope.Params(beta = 160, powerIters = 2, kMeansIters = 10, seed = 7)))
    for ((name, g, hp) <- inputs) {
      val k = g.config.k
      // Every partition count multiplies the same collected edges.
      val edges = g.edges.select("u", "v", "w").as[(Long, Long, Double)].collect().sorted.toSeq.toDF("u", "v", "w")
      val runs = Seq(1, 4, 16).map { p =>
        val a = Operators.partitioned(edges, p)
        val x = try Hope.embed(a, k, hp) finally a.unpersist()
        val l = left(x, k)
        val lRows = collectRows(l)
        val rounds = Seq(HopePlus.Fnem, HopePlus.Snem).map { urt =>
          val got = sorted(HopePlus.round(l, k, urt, maxRounds = 30))
          assert(got.toMap == localRounding(lRows, k, urt, 30)._1, s"$name, $p partitions: ${urt.name} vs local")
          got
        }
        if (name == "corafull-wide")
          assert(lRows.values.map(v => Local.argmax(v)).toSet.size < k, "the greedy seeding leaves no cluster empty")
        val out = (collectRows(x), sorted(KMeansD.run(x, k, maxIters = hp.kMeansIters, seed = hp.seed)), rounds)
        x.unpersist(); l.unpersist()
        out
      }
      // Assignments are compared exactly, cluster ids included.
      runs.tail.zip(Seq(4, 16)).foreach { case ((x, km, rounds), p) =>
        val err = x.map { case (id, v) => Local.maxAbsDiff(Array(v), Array(runs.head._1(id))) }.max
        assert(x.keySet == runs.head._1.keySet && err < 1e-10, s"$name, $p partitions: max |ΔX| = $err")
        assert(km == runs.head._2, s"$name, $p partitions: k-means")
        assert(rounds == runs.head._3, s"$name, $p partitions: FNEM, SNEM")
      }
    }
  }

  test("KMeansD.run and both rounding variants leave only what they return persisted") {
    val g = TestGraphs.easy(sp)
    val k = g.config.k
    val x = embed(g, Hope.Params(powerIters = 2, seed = 3))
    val l = left(x, k)
    val leaked = leakedBy(Seq(KMeansD.run(x, k, seed = 3),
                              HopePlus.round(l, k, HopePlus.Fnem, maxRounds = 30),
                              HopePlus.round(l, k, HopePlus.Snem, maxRounds = 30)))
    assert(leaked.isEmpty, s"still persisted: ${leaked.mkString(", ")}")
    x.unpersist(); l.unpersist()
  }

  test("leftSingular's Spark jobs are labelled with the step that submitted them") {
    val g = TestGraphs.easy(sp)
    val x = Hope.embed(g.edges, g.config.k, Hope.Params(powerIters = 2, seed = 3))
    assert(jobLabels(HopePlus.leftSingular(x, g.config.k)) == Seq("leftSingular/gram", "leftSingular/signs"))
    Block.release(x)
  }

  test("leftSingular and round on a Dataset, the benchmark's signatures, equal the slab forms") {
    // The benchmark's calls (`Hope.embed` on the edges, then the Dataset
    // forms) against the stages `HopePlus.run` chains, bit for bit.
    val g = TestGraphs.hubHeavy(sp)
    val k = g.config.k
    val hp = Hope.Params(powerIters = 8, seed = 3)
    val ds = Hope.embed(g.edges, k, hp)
    val l = Block.localize(HopePlus.leftSingular(ds, k))
    val x = embed(g, hp)
    val want = left(x, k)
    def bits(rows: Map[Long, Array[Double]]) = rows.view.mapValues(_.map(java.lang.Double.doubleToRawLongBits).toSeq).toMap
    assert(bits(Block.collectMap(l)) == bits(collectRows(want)))
    for (urt <- Seq(HopePlus.Fnem, HopePlus.Snem))
      assert(sorted(HopePlus.round(l, k, urt, 30)) == sorted(HopePlus.round(want, k, urt, 30)), urt.name)
    Block.release(ds); Block.release(l); x.unpersist(); want.unpersist()
  }

  test("rounding converges well before the iteration cap on easy input") {
    val g = TestGraphs.easy(sp)
    val x = embed(g, Hope.Params(powerIters = 8, seed = 3))
    val l = left(x, g.config.k)
    val a30 = HopePlus.round(l, g.config.k, HopePlus.Snem, maxRounds = 30)
    val a31 = HopePlus.round(l, g.config.k, HopePlus.Snem, maxRounds = 31)
    // Converged: one extra allowed round changes nothing.
    val m = Metrics.contingency(a30, a31.withColumnRenamed("cluster", "label"))
    assert(Metrics.accuracy(m) == 1.0)
    x.unpersist(); l.unpersist()
  }

  test("is deterministic for a fixed seed") {
    val g = TestGraphs.easy(sp)
    def once() = HopePlus.run(g.edges, g.config.k, HopePlus.Snem, params)
      .collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
    assert(once().sameElements(once()))
  }

  test("returns a valid k-partition of U (both variants)") {
    val g = TestGraphs.easy(sp)
    val (fnem, snem) = both(g, params)
    TestGraphs.assertValidAssignment(fnem, g.config.nU, g.config.k)
    TestGraphs.assertValidAssignment(snem, g.config.nU, g.config.k)
  }

  test("rounding does not degrade quality versus the greedy seeding") {
    val g = TestGraphs.hubHeavy(sp)
    val x = embed(g, Hope.Params(powerIters = 8, seed = 3))
    val l = left(x, g.config.k)
    val seedOnly = HopePlus.round(l, g.config.k, HopePlus.Snem, maxRounds = 0)
    val rounded  = HopePlus.round(l, g.config.k, HopePlus.Snem, maxRounds = 30)
    val s0 = Metrics.evaluate(seedOnly, g.uLabels)
    val s1 = Metrics.evaluate(rounded, g.uLabels)
    assert(s1.ari >= s0.ari - 0.05, s"seed=$s0 rounded=$s1")
    x.unpersist(); l.unpersist()
  }
}
