package repro.baselines

import repro.{SparkSpec, TestGraphs}
import repro.core.{BipartiteGraph, Hope, Metrics}
import repro.linalg.Local

/** Every competitor returns a valid partition and clears a quality floor
  * appropriate to its strength on an easy planted instance (the weak methods
  * in the paper — GN, LE — only need to beat "random-ish").
  */
class BaselinesSpec extends SparkSpec {

  private lazy val sp = spark

  private lazy val easy = TestGraphs.easy(sp)
  private def k = easy.config.k
  private def nU = easy.config.nU

  /** (method, minimum ARI demanded on the easy instance). */
  private val expectations: Seq[(Baseline, Double)] = Seq(
    SpectralBaselines.SC            -> 0.5,
    SpectralBaselines.SCC           -> 0.5,
    SpectralBaselines.SBC           -> 0.02, // weak in the paper too (Table 4)
    DataClustering.KMeansBaseline   -> 0.5,
    DataClustering.KMedoidsBaseline -> 0.1,
    DataClustering.BirchBaseline    -> 0.3,
    NmfBaseline                     -> 0.05, // mediocre in the paper too
    RandomWalkEmb.PPR               -> 0.5,
    RandomWalkEmb.NRP               -> 0.2,
    BiSbm.KL                        -> 0.5,
    BiSbm.MCMC                      -> 0.3,
    LeadingEigenvectorBaseline      -> -0.1,
    GirvanNewmanBaseline            -> -0.1,
  )

  expectations.foreach { case (m, minAri) =>
    test(s"${m.name}: valid partition and ARI > $minAri on the easy instance") {
      val assign = m.cluster(sp, easy.edges, k, seed = 11)
      val rows = assign.collect()
      assert(rows.length == nU, s"${m.name}: ${rows.length} assignments for $nU vertices")
      rows.foreach { r =>
        val c = r.getInt(1)
        assert(c >= 0 && c < k, s"${m.name}: cluster $c out of range")
      }
      val s = Metrics.evaluate(assign, easy.uLabels)
      info(s"${m.name}: $s")
      assert(s.ari > minAri, s"${m.name} scores: $s")
    }
  }

  test("SC's stacked U ∪ V embedding spans the top-k eigenvectors of the normalised adjacency") {
    val spark2 = sp
    import spark2.implicits._
    // k plus the 4 guard columns is |U|: the iterated block spans all of
    // U's space, so the singular triplets are exact.
    val nU = 8; val nV = 14; val k = 4
    val rnd = new scala.util.Random(23)
    val w = Array.tabulate(nU, nV)((i, j) =>
      if (i == j % nU || rnd.nextDouble() < 0.3) 1.0 + rnd.nextInt(4) else 0.0)
    val edges = (for (i <- 0 until nU; j <- 0 until nV if w(i)(j) > 0)
      yield (i.toLong, j.toLong, w(i)(j))).toDF("u", "v", "w")
    val (u, v) = BipartiteGraph.withOperator(edges) { a =>
      SpectralBaselines.coEmbedding(a, k, seed = 5)((u, v) => (collectRows(u), collectRows(v)))
    }
    // E = [U; V]/√2 over U ids 0 until nU, then V ids (block ids −1−v).
    val e = Array.tabulate(nU + nV)(i =>
      (if (i < nU) u(i.toLong) else v(-1L - (i - nU))).map(_ / math.sqrt(2.0)))
    val du = w.map(_.sum)
    val dv = Array.tabulate(nV)(j => w.map(_(j)).sum)
    val n = Local.zeros(nU + nV, nU + nV)
    for (i <- 0 until nU; j <- 0 until nV) {
      n(i)(nU + j) = w(i)(j) / math.sqrt(du(i) * dv(j)); n(nU + j)(i) = n(i)(nU + j)
    }
    val f = Local.symEigDesc(n)._1.map(_.take(k))
    def proj(m: Local.Mat) = Local.matmul(m, Local.transpose(m))
    assert(Local.maxAbsDiff(Local.matmul(Local.transpose(e), e), Local.eye(k)) < 1e-8)
    assert(Local.maxAbsDiff(proj(e), proj(f)) < 1e-8)
  }

  test("Hope.embed and the operator baselines leave only what they return persisted") {
    val edges = easy.edges
    val leaked = leakedBy(Hope.embed(edges, k, Hope.Params(powerIters = 2, seed = 3)) +:
      Seq(SpectralBaselines.SC, SpectralBaselines.SCC, SpectralBaselines.SBC,
          RandomWalkEmb.PPR, RandomWalkEmb.NRP, NmfBaseline).map(_.cluster(sp, edges, k, seed = 11)))
    assert(leaked.isEmpty, s"still persisted: ${leaked.mkString(", ")}")
  }

  // |U| = 3, |V| = 5.
  private val tiny = Seq((0L, 0L, 1.0), (0L, 1L, 1.0), (1L, 2L, 2.0), (1L, 3L, 1.0), (2L, 4L, 1.0), (2L, 0L, 1.0))

  Seq(SpectralBaselines.SC, SpectralBaselines.SCC, SpectralBaselines.SBC, RandomWalkEmb.PPR, RandomWalkEmb.NRP,
      NmfBaseline, DataClustering.KMeansBaseline, DataClustering.KMedoidsBaseline,
      DataClustering.BirchBaseline).foreach { m =>
    test(s"${m.name} rejects k > |U| after the edge check") {
      import sp.implicits._
      def message(es: Seq[(Long, Long, Double)]) =
        intercept[IllegalArgumentException](m.cluster(sp, es.toDF("u", "v", "w"), 4, seed = 1)).getMessage
      val tooManyK = message(tiny)
      assert(tooManyK.contains("k = 4") && tooManyK.contains("|U| = 3"), tooManyK)
      val badEdge = message(tiny :+ ((1L, 1L, -1.0)))
      assert(badEdge.contains("bad edge (u=1, v=1, w=-1.0)"), badEdge)
    }
  }

  test("registry enumerates 16 methods in table order") {
    assert(Registry.all.size == 16)
    assert(Registry.competitors.size == 13)
    assert(Registry.ours.map(_.name) ==
      Seq("HOPE", "HOPE+ (FNEM)", "HOPE+ (SNEM)"))
    assert(Registry.byName("NMF").name == "NMF")
  }

  test("our methods (via registry) beat every competitor floor on easy input") {
    Registry.ours.foreach { m =>
      val s = Metrics.evaluate(m.cluster(sp, easy.edges, k, seed = 11), easy.uLabels)
      info(s"${m.name}: $s")
      assert(s.ari > 0.8, s"${m.name} scores: $s")
    }
  }

  test("feasibility gates mirror the paper's '-' cells") {
    import repro.data.Catalog
    def feasibleOn(m: Baseline, s: Catalog.Spec) = m.feasible(s.paperEdgeCount, s.cfg.k)
    // GN only on CORA and CiteSeer (Table 4).
    assert(feasibleOn(GirvanNewmanBaseline, Catalog.cora))
    assert(feasibleOn(GirvanNewmanBaseline, Catalog.citeseer))
    assert(!feasibleOn(GirvanNewmanBaseline, Catalog.flickr))
    // LE populated through CORA-F, "-" from LastFM (Asia) on (Table 5).
    assert(feasibleOn(LeadingEigenvectorBaseline, Catalog.coraF))
    assert(!feasibleOn(LeadingEigenvectorBaseline, Catalog.lastFmAsia))
    // BiSBM-KL: "-" on CORA-F (k=70) but populated on LastFM (Asia).
    assert(!feasibleOn(BiSbm.KL, Catalog.coraF))
    assert(feasibleOn(BiSbm.KL, Catalog.lastFmAsia))
    // Only NMF, NRP and ours survive MIND/LastFM/MAG (Table 5).
    Seq(Catalog.mind, Catalog.lastFm, Catalog.mag).foreach { s =>
      val survivors = Registry.all.filter(feasibleOn(_, s)).map(_.name).toSet
      assert(survivors == Set("NMF", "NRP", "HOPE", "HOPE+ (FNEM)", "HOPE+ (SNEM)"),
        s"${s.name}: $survivors")
    }
  }
}
