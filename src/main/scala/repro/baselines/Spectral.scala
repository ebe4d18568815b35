package repro.baselines

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{BipartiteGraph, KMeansD}
import repro.linalg.{Slab, SparseOp, SubspaceIteration}
import repro.linalg.SparseOp.Rows

/** Spectral baselines: SC [55], SCC (Dhillon [12]) and SBC (Kluger [31]).
  * All use the shared `SubspaceIteration` engine on a degree-scaled view of
  * the graph's operator — same trick as HOPE, so comparisons are
  * apples-to-apples on the eigen-solver.
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

  /** `f` applied to Dhillon's co-embedding: the top `n` singular triplets
    * `(u_i, σ_i, v_i)` of `An = D_u^{-1/2} A D_v^{-1/2}`, as the block U over
    * u ids and the slabs `V = Anᵀ U Σ⁻¹` under ids `−1−v`, so U ∪ V is one
    * id space. V keeps `Anᵀ U`'s row order, so its ids descend: it is rows
    * to cluster, not a block to multiply. `Anᵀ U` is the Rayleigh–Ritz
    * product the iteration already made. As in
    * [[SubspaceIteration.topLeftSingular]], `f` materialises what it returns.
    */
  private[baselines] def coEmbedding[T](a: SparseOp, n: Int, seed: Long)(f: (Rows, RDD[Slab]) => T): T =
    SubspaceIteration.topLeftSingular(a.scaled(-0.5, -0.5), n, PowerIters, seed) { (u, anTu, sv) =>
      val inv = sv.map(s => if (s > 1e-12) 1.0 / s else 0.0)
      f(u, anTu.map(s => new Slab(s.ids.map(-1L - _), s.width, Slab.scaleCols(s, inv).values)))
    }

  /** Joint k-means over the row-normalised co-embedding of U ∪ V, with the
    * first `drop` vectors left out; returns the U memberships.
    */
  private def coCluster(edges: DataFrame, k: Int, n: Int, drop: Int, seed: Long): DataFrame =
    BipartiteGraph.withOperator(edges) { a =>
      BipartiteGraph.requireClusters(a, k)
      coEmbedding(a, n, seed) { (u, v) =>
        val joint = u.union(v).map { s =>
          val w = math.max(0, s.width - drop) // a slab without rows may have width 0
          Slab.normalizeRows(s.mapRows(w)((x, o, out, p) => System.arraycopy(x, o + drop, out, p, w)))
        }
        KMeansD.run(joint, k, seed = seed).where(col("id") >= 0)
      }
    }

  /** Spectral clustering of the bipartite graph viewed as a unipartite graph:
    * top-k eigenvectors of the symmetrically normalised adjacency
    * `N = [[0, An], [Anᵀ, 0]]` over U ∪ V, k-means over ALL vertices. N's
    * top-k eigenvectors are `[u_i; v_i]/√2` for An's top-k singular triplets
    * (eigenvalue σ_i), so this is SCC's SVD route with k vectors, none
    * dropped; the 1/√2 cancels in the row normalisation.
    */
  object SC extends Baseline {
    val name = "SC"
    override def feasible(paperEdges: Long, k: Int): Boolean = paperEdges <= 4000000L

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame =
      coCluster(edges, k, n = k, drop = 0, seed)
  }

  /** Dhillon's spectral co-clustering: `An = D_u^{-1/2} A D_v^{-1/2}`,
    * ℓ = ⌈log₂ k⌉ singular vectors (2..ℓ+1), joint k-means over the stacked
    * U and V embeddings (the leading vector on both sides is the trivial
    * degree direction and is dropped).
    */
  object SCC extends Baseline {
    val name = "SCC"
    override def feasible(paperEdges: Long, k: Int): Boolean = paperEdges <= 4000000L

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame = {
      val ell = math.max(1, math.ceil(math.log(k.toDouble) / math.log(2.0)).toInt)
      coCluster(edges, k, n = ell + 1, drop = 1, seed)
    }
  }

  /** Kluger's spectral biclustering with independent row/column rescaling
    * `D_u^{-1} A D_v^{-1}` (the paper's bistochastisation simplified to one
    * scaling pass), top-k singular vectors, k-means on the U embedding.
    */
  object SBC extends Baseline {
    val name = "SBC"
    override def feasible(paperEdges: Long, k: Int): Boolean = paperEdges <= 4000000L

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame =
      BipartiteGraph.withOperator(edges) { a =>
        BipartiteGraph.requireClusters(a, k)
        SubspaceIteration.topLeftSingular(a.scaled(-1.0, -1.0), k, PowerIters, seed) { (u, _, _) =>
          KMeansD.run(SparseOp.normalizeRows(u), k, seed = seed)
        }
      }
  }
}
