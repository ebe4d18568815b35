package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.KMeansD
import repro.linalg.{BRow, Block, SubspaceIteration}

/** Spectral baselines: SC [55], SCC (Dhillon [12]) and SBC (Kluger [31]).
  * All use the shared `SubspaceIteration` engine — same trick as HOPE, so
  * comparisons are apples-to-apples on the eigen-solver.
  *
  * SC and SCC follow their ORIGINAL recipes (the paper runs the published
  * algorithms): SC clusters the whole unipartite vertex set U ∪ V into k
  * groups and reads off the U memberships; SCC uses ⌈log₂ k⌉ singular
  * vectors (vectors 2..ℓ+1) and jointly clusters both sides, as in Dhillon's
  * algorithm. Both behaviours are what makes these baselines noticeably
  * weaker than k-BGC-specific methods on bipartite graphs.
  */
object SpectralBaselines {

  private val PowerIters = 10

  /** Spectral clustering of the bipartite graph viewed as a unipartite graph:
    * top-k eigenvectors of the symmetrically normalised adjacency
    * `D^{-1/2} A D^{-1/2}` over U ∪ V, k-means over ALL vertices.
    */
  object SC extends Baseline {
    val name = "SC"
    override def feasible(paperEdges: Long, k: Int): Boolean = paperEdges <= 4000000L

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame = {
      val offset = edges.agg(max("u")).head.getLong(0) + 1L
      val du = edges.groupBy("u").agg(sum("w").as("du"))
      val dv = edges.groupBy("v").agg(sum("w").as("dv"))
      val norm = edges.join(du, "u").join(dv, "v")
        .select(col("u"), (col("v") + offset).as("v2"),
                (col("w") / sqrt(col("du") * col("dv"))).as("wn"))
      val sym = norm.select(col("u").as("src"), col("v2").as("dst"), col("wn").as("w"))
        .unionByName(norm.select(col("v2").as("src"), col("u").as("dst"), col("wn").as("w")))
        .cache()
      val ids = sym.select(col("src").as("id")).distinct()
      // The normalised adjacency is symmetric but indefinite; shift by +I to
      // make it PSD so power iteration targets its algebraically largest
      // eigenvectors (the shift leaves eigenvectors unchanged).
      val (vecs, _) = SubspaceIteration.topEig(sym, "src", "dst", "w", ids, k, PowerIters, seed,
                                               shift = 1.0)
      // Joint k-means over U ∪ V (the unipartite treatment), then read off U.
      val assignAll = KMeansD.run(Block.normalizeRows(vecs), k, seed = seed)
      sym.unpersist()
      assignAll.where(col("id") < offset)
    }
  }

  /** Dhillon's spectral co-clustering: `An = D_u^{-1/2} A D_v^{-1/2}`,
    * ℓ = ⌈log₂ k⌉ singular vectors (2..ℓ+1), joint k-means over the stacked
    * U and V embeddings.
    */
  object SCC extends Baseline {
    val name = "SCC"
    override def feasible(paperEdges: Long, k: Int): Boolean = paperEdges <= 4000000L

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame = {
      val spark2 = spark
      import spark2.implicits._
      val ell = math.max(1, math.ceil(math.log(k.toDouble) / math.log(2.0)).toInt)
      val du = edges.groupBy("u").agg(sum("w").as("du"))
      val dv = edges.groupBy("v").agg(sum("w").as("dv"))
      val an = edges.join(du, "u").join(dv, "v")
        .select(col("u"), col("v"), (col("w") / sqrt(col("du") * col("dv"))).as("an"))
        .cache()
      val uIds = edges.select(col("u").as("id")).distinct()
      val (uVecs, sv) = SubspaceIteration.topLeftSingular(
        an, rowCol = "u", colCol = "v", wCol = "an", uIds, ell + 1, PowerIters, seed)
      // Right singular vectors: V = Anᵀ U Σ⁻¹ (drop the leading vector on
      // both sides — it is the trivial degree direction).
      val inv = sv.map(s => if (s > 1e-12) 1.0 / s else 0.0)
      val vVecs = Block.scaleCols(
        Block.spmm(an, uVecs, srcCol = "u", dstCol = "v", wCol = "an"), inv)
      val offset = edges.agg(max("u")).head.getLong(0) + 1L
      val uEmb = uVecs.map(r => BRow(r.id, r.vec.drop(1)))
      val vEmb = vVecs.map(r => BRow(r.id + offset, r.vec.drop(1)))
      val joint = uEmb.union(vEmb)
      val assignAll = KMeansD.run(Block.normalizeRows(joint), k, seed = seed)
      an.unpersist()
      assignAll.where(col("id") < offset)
    }
  }

  /** Kluger's spectral biclustering with independent row/column rescaling
    * `D_u^{-1} A D_v^{-1}` (the paper's bistochastisation simplified to one
    * scaling pass), top-k singular vectors, k-means on the U embedding.
    */
  object SBC extends Baseline {
    val name = "SBC"
    override def feasible(paperEdges: Long, k: Int): Boolean = paperEdges <= 4000000L

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame = {
      val du = edges.groupBy("u").agg(sum("w").as("du"))
      val dv = edges.groupBy("v").agg(sum("w").as("dv"))
      val an = edges.join(du, "u").join(dv, "v")
        .select(col("u"), col("v"), (col("w") / (col("du") * col("dv"))).as("an"))
      val uIds = edges.select(col("u").as("id")).distinct()
      val (vecs, _) = SubspaceIteration.topLeftSingular(
        an, rowCol = "u", colCol = "v", wCol = "an", uIds, k, PowerIters, seed)
      KMeansD.run(Block.normalizeRows(vecs), k, seed = seed)
    }
  }
}
