package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic bipartite graphs with planted ground-truth clusters.
  *
  * The generator mirrors the structure the paper's methods exploit and the
  * failure mode of first-order methods (Figure 1):
  *
  *  - U is partitioned into k clusters with (optionally) Zipf-skewed sizes;
  *  - non-hub V vertices are split into k blocks aligned with the clusters;
  *  - a `hubFrac` fraction of V are global hubs ("the phone"): edges to hubs
  *    carry no cluster signal and blur one-mode projections;
  *  - each non-hub edge lands in its cluster's block with prob `1 - noise`,
  *    otherwise in a uniformly random other block;
  *  - U-side degrees follow a power law (`degSkew`), weights (if weighted)
  *    follow a log-uniform count distribution like TF / play counts.
  *
  * Min-degree ≥ 1 on both sides is guaranteed by a deterministic backbone of
  * one edge per U vertex and per V vertex. Everything is a pure function of
  * (config, seed), whatever the number of cores: re-running yields the
  * identical graph.
  */
object BipartiteGen {

  final case class Config(nU: Long,
                          nV: Long,
                          k: Int,
                          targetEdges: Long,
                          weighted: Boolean = false,
                          hubFrac: Double = 0.05,
                          hubEdgeFrac: Double = 0.15,
                          noise: Double = 0.12,
                          degSkew: Double = 2.2,
                          sizeSkew: Double = 1.0,
                          seed: Long = 42L) {
    require(k >= 2 && nU >= k && nV >= 2L * k, s"bad config: $this")
  }

  final case class Graph(edges: DataFrame, uLabels: DataFrame, config: Config)

  /** Partitions of every id range. `rand(s)` seeds partition i with
    * `s + i`, so the graph depends on the config alone only if this count
    * does not follow the core count, as `spark.range`'s default does. 4 is
    * that default on 4 cores, where the graphs of the benchmark and the
    * tests were measured.
    */
  private val RangePartitions = 4

  /** `spark.range(n)` under [[RangePartitions]] partitions. */
  private def range(spark: SparkSession, n: Long) = spark.range(0L, n, 1L, RangePartitions)

  /** Cluster label of U vertex `u` as a SQL expression: contiguous ranges with
    * power-law sizes (`sizeSkew` = 1 → equal sizes, > 1 → skewed).
    */
  private def labelExpr(cfg: Config, uCol: String) =
    least(lit(cfg.k - 1),
      floor(pow(col(uCol).cast("double") / cfg.nU, cfg.sizeSkew) * cfg.k))
      .cast(IntegerType)

  def planted(spark: SparkSession, cfg: Config): Graph = {
    val nHub = math.max(0L, (cfg.nV * cfg.hubFrac).toLong)
    val blockSize = math.max(1L, (cfg.nV - nHub) / cfg.k)
    val s = cfg.seed

    // Random edges: pick u with power-law mass toward low ids, then route.
    val raw = range(spark, cfg.targetEdges).select(
      least(lit(cfg.nU - 1),
        floor(pow(rand(s), cfg.degSkew) * cfg.nU)).cast(LongType).as("u"),
      rand(s + 1).as("rHub"),
      rand(s + 2).as("rNoise"),
      rand(s + 3).as("rPick"),
      rand(s + 4).as("rBlock"),
      rand(s + 5).as("rW"))
    val withLabel = raw.withColumn("lab", labelExpr(cfg, "u"))
    val block = when(col("rNoise") < cfg.noise,
        pmod(col("lab") + (col("rBlock") * (cfg.k - 1)).cast(IntegerType) + 1, lit(cfg.k)))
      .otherwise(col("lab"))
    val vCol = when(col("rHub") < cfg.hubEdgeFrac && nHub > 0,
        (col("rPick") * nHub).cast(LongType))
      .otherwise(lit(nHub) + block.cast(LongType) * blockSize +
                 (col("rPick") * blockSize).cast(LongType))
    val wCol =
      if (cfg.weighted) (pow(lit(10.0), col("rW") * 1.5)).cast(IntegerType).cast(DoubleType) + 1.0
      else lit(1.0)
    val randomEdges = withLabel.select(
      col("u"), least(lit(cfg.nV - 1), vCol).as("v"), wCol.as("w"))

    // Backbone: every u gets one in-block edge; every v gets one edge from a
    // vertex of its block's cluster (hubs from cluster 0) — min-degree ≥ 1.
    val uBackbone = range(spark, cfg.nU).toDF("u")
      .withColumn("lab", labelExpr(cfg, "u"))
      .select(col("u"),
        least(lit(cfg.nV - 1),
          lit(nHub) + col("lab").cast(LongType) * blockSize +
            pmod(col("u"), lit(blockSize))).as("v"),
        lit(1.0).as("w"))
    val vBlock = floor((col("v") - nHub) / blockSize).cast(IntegerType)
    val vLab = when(col("v") < nHub, lit(0)).otherwise(least(lit(cfg.k - 1), vBlock))
    // Inverse of the contiguous label ranges: first u of cluster c is
    // ceil(nU * (c/k)^(1/sizeSkew)); place v's backbone edge inside its range.
    val loOf = (c: org.apache.spark.sql.Column) =>
      ceil(pow(c.cast("double") / cfg.k, 1.0 / cfg.sizeSkew) * cfg.nU).cast(LongType)
    val vBackbone = range(spark, cfg.nV).toDF("v")
      .withColumn("lab", vLab)
      .withColumn("lo", loOf(col("lab")))
      .withColumn("hi", least(lit(cfg.nU), loOf(col("lab") + 1)))
      .select(
        (col("lo") + pmod(col("v"), greatest(col("hi") - col("lo"), lit(1L)))).as("u"),
        col("v"), lit(1.0).as("w"))

    val merged = randomEdges.unionByName(uBackbone).unionByName(vBackbone)
      .groupBy("u", "v").agg(sum("w").as("w"))
    // Unweighted graphs: duplicate picks collapse to a single unit edge.
    val edges = if (cfg.weighted) merged else merged.withColumn("w", lit(1.0))

    val uLabels = range(spark, cfg.nU).toDF("id")
      .select(col("id"), labelExpr(cfg, "id").as("label"))
    Graph(edges, uLabels, cfg)
  }

  /** Erdős–Rényi-style bipartite graph (the paper's Figure 8 generator [4]):
    * `targetEdges` uniform pairs plus the min-degree backbone, no clusters.
    */
  def erdosRenyi(spark: SparkSession, nU: Long, nV: Long,
                 targetEdges: Long, seed: Long = 42L): DataFrame = {
    val raw = range(spark, targetEdges).select(
      (rand(seed) * nU).cast(LongType).as("u"),
      (rand(seed + 1) * nV).cast(LongType).as("v"),
      lit(1.0).as("w"))
    val uB = range(spark, nU).select(col("id").as("u"),
      pmod(col("id"), lit(nV)).as("v"), lit(1.0).as("w"))
    val vB = range(spark, nV).select(pmod(col("id"), lit(nU)).as("u"),
      col("id").as("v"), lit(1.0).as("w"))
    raw.unionByName(uB).unionByName(vB).groupBy("u", "v").agg(sum("w").as("w"))
  }
}
