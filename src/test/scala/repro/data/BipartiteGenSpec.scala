package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec

/** Planted-partition generator invariants. */
class BipartiteGenSpec extends SparkSpec {

  private lazy val sp = spark

  private val cfg = BipartiteGen.Config(
    nU = 200, nV = 150, k = 4, targetEdges = 3000, seed = 99)

  private lazy val g = BipartiteGen.planted(sp, cfg)

  test("ids stay in range") {
    val r = g.edges.agg(min("u"), max("u"), min("v"), max("v")).head()
    assert(r.getLong(0) >= 0 && r.getLong(1) < cfg.nU)
    assert(r.getLong(2) >= 0 && r.getLong(3) < cfg.nV)
  }

  test("every U vertex and every V vertex has degree ≥ 1") {
    assert(g.edges.select("u").distinct().count() == cfg.nU)
    assert(g.edges.select("v").distinct().count() == cfg.nV)
  }

  test("labels cover exactly k clusters over all of U") {
    val labs = g.uLabels.groupBy("label").count().collect()
    assert(labs.length == cfg.k)
    assert(labs.map(_.getLong(1)).sum == cfg.nU)
  }

  test("edge count is near the target (dedup shrinks it slightly)") {
    val e = g.edges.count()
    assert(e > cfg.targetEdges / 2 && e <= cfg.targetEdges + cfg.nU + cfg.nV,
      s"edge count $e vs target ${cfg.targetEdges}")
  }

  test("unweighted graphs still aggregate duplicate picks (w ≥ 1)") {
    val r = g.edges.agg(min("w")).head().getDouble(0)
    assert(r >= 1.0)
  }

  test("weighted config produces varied weights") {
    val wg = BipartiteGen.planted(sp, cfg.copy(weighted = true, seed = 7))
    val distinctW = wg.edges.select("w").distinct().count()
    assert(distinctW > 5, s"only $distinctW distinct weights")
  }

  test("generation is deterministic in the seed") {
    val a = BipartiteGen.planted(sp, cfg).edges
      .orderBy("u", "v").collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
    val b = BipartiteGen.planted(sp, cfg).edges
      .orderBy("u", "v").collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
    assert(a.sameElements(b))
  }

  test("different seeds give different graphs") {
    val b = BipartiteGen.planted(sp, cfg.copy(seed = 123)).edges
    val aSet = BipartiteGen.planted(sp, cfg).edges.select("u", "v").collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    val bSet = b.select("u", "v").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(aSet != bSet)
  }

  test("cluster structure exists: most non-hub edges stay in their block") {
    val nHub = (cfg.nV * cfg.hubFrac).toLong
    val blockSize = (cfg.nV - nHub) / cfg.k
    val joined = g.edges.join(g.uLabels.withColumnRenamed("id", "u"), "u")
      .where(col("v") >= nHub)
      .withColumn("vBlock", least(lit(cfg.k - 1),
        floor((col("v") - nHub) / blockSize).cast("int")))
    val total = joined.count().toDouble
    val inBlock = joined.where(col("vBlock") === col("label")).count().toDouble
    assert(inBlock / total > 0.75, s"in-block fraction ${inBlock / total}")
  }

  test("size skew concentrates mass in low clusters") {
    val skewed = BipartiteGen.planted(sp, cfg.copy(sizeSkew = 2.0, seed = 3))
    val sizes = skewed.uLabels.groupBy("label").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    assert(sizes(0) > sizes(cfg.k - 1))
  }

  test("Erdős–Rényi generator: sizes and min-degree hold") {
    val er = BipartiteGen.erdosRenyi(sp, 100, 80, 1000, seed = 5)
    assert(er.select("u").distinct().count() == 100)
    assert(er.select("v").distinct().count() == 80)
    val r = er.agg(max("u"), max("v")).head()
    assert(r.getLong(0) < 100 && r.getLong(1) < 80)
  }

  test("catalog specs generate with the right shape (smallest dataset)") {
    val spec = Catalog.cora
    val graph = spec.generate(sp)
    assert(graph.edges.select("u").distinct().count() == spec.cfg.nU)
    assert(graph.uLabels.select("label").distinct().count() == spec.cfg.k)
  }

  test("catalog covers the paper's 10 datasets") {
    assert(Catalog.all.size == 10)
    assert(Catalog.small.size == 5 && Catalog.large.size == 5)
    assert(Catalog.byName("MAG").cfg.weighted)
    assert(!Catalog.byName("CORA").cfg.weighted)
  }
}
