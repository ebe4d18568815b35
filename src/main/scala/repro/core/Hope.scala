package repro.core

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.linalg.{BRow, Block, SparseOp, SubspaceIteration}

/** HOPE (paper §3, Algorithm 1), on one operator of the biadjacency A.
  *
  * 1. β-truncated SVD of `Q = (D_u^{-1/2} A D_v^{-1/2})ᵀ` → left singular
  *    vectors U, singular values Σ (via subspace iteration on the operator
  *    `y ↦ Q(Qᵀ y)`, so neither `Q Qᵀ` nor the HOP matrix H is materialised).
  * 2. `X̂ = P U (1-α)/(1-α Σ²)` (Eq. 8), then L2-normalise rows → X, the
  *    low-rank approximation of the HOP matrix (Theorem 3.2). With
  *    `P = D_u⁻¹A` the row normalisation cancels `D_u⁻¹`, and any other
  *    positive row scaling, so X is the row-normalised
  *    `D_u^{-1/2} A U (1-α)/(1-α Σ²)`. `U = V W` for the iteration's last
  *    block V and its Ritz rotation W, and `D_u^{-1/2} A V = Qᵀ D_v^{1/2} V`:
  *    the Rayleigh–Ritz product `Qᵀ [V | D_v^{1/2} V]` yields X alongside
  *    the Ritz matrix, with no product of its own.
  * 3. k-Means over the rows of X.
  */
object Hope {

  /** Tunables; defaults follow the paper (α=0.3, β=5k). */
  final case class Params(alpha: Double = 0.3,
                          beta: Int = 0, // 0 → 5k
                          powerIters: Int = 12,
                          kMeansIters: Int = 25,
                          seed: Long = 7L) {
    def betaFor(k: Int): Int = if (beta > 0) beta else 5 * k
  }

  /** The low-rank HOP approximation X (Lines 1–4 of Algorithm 1), shared by
    * HOPE and HOPE+. Rows are keyed by U-side vertex id and L2-normalised.
    *
    * @throws IllegalArgumentException if an edge is bad (see
    *         [[BipartiteGraph.operator]]), if k > |U|, or if β exceeds
    *         min(|U|, |V|) (see [[SubspaceIteration.topLeftSingular]])
    */
  def embed(edges: DataFrame, k: Int, params: Params): Dataset[BRow] =
    BipartiteGraph.withOperator(edges)(embed(_, k, params))

  /** [[embed]] on the operator `a` of the graph's biadjacency. */
  private[core] def embed(a: SparseOp, k: Int, params: Params): Dataset[BRow] = {
    BipartiteGraph.requireClusters(a, k)
    val q = a.scaled(-0.5, -0.5).t
    val beta = params.betaFor(k)
    SubspaceIteration.topLeftSingular(q, beta, params.powerIters, params.seed,
                                      extra = Some(q.degreeScale(_, 0.5))) { (_, p, sigma) =>
      // Eigenvalues of QQᵀ are σ² ∈ [0,1] (Lemma 3.1 proof); clamp for safety.
      val factors = sigma.map { s =>
        val lam = math.min(math.max(s * s, 0.0), 1.0 - 1e-12)
        (1.0 - params.alpha) / (1.0 - params.alpha * lam)
      }
      // p's second β columns are `D_u^{-1/2} A V W`.
      val xHat = SparseOp.mapSlabs(p)(_.mapRows(beta) { (r, o, out, q) =>
        var j = 0
        while (j < beta) { out(q + j) = r(o + beta + j) * factors(j); j += 1 }
      })
      Block.labelJobs(p.sparkContext, "embed/x") {
        Block.localize(SparseOp.toDataset(SparseOp.normalizeRows(xHat)))
      }
    }
  }

  /** Full HOPE: returns cluster assignments `(id, cluster)` for the U side. */
  def run(edges: DataFrame, k: Int, params: Params = Params()): DataFrame = {
    val x = embed(edges, k, params)
    KMeansD.run(x, k, maxIters = params.kMeansIters, seed = params.seed)
  }
}
