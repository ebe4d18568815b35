package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.BipartiteGraph
import repro.linalg.{Local, SparseOp}
import repro.linalg.SparseOp.Rows

/** Johnson–Lindenstrauss sketches of biadjacency rows.
  *
  * Several data-clustering baselines (K-Means, K-Medoids, Birch) operate on
  * the raw |U|×|V| data matrix. We sketch each row with a signed random
  * projection (`X_u = Σ_v a(u,v) R_v`, `R_v` Rademacher) so distances are
  * preserved while centers stay β-dimensional — the standard substitution
  * when |V| is large (DESIGN.md).
  */
object Projections {

  /** Project the L2-normalised U-side rows of the biadjacency: one product
    * with the graph's operator, whose column copy also supplies R's row
    * ids. The rows are materialised ([[SparseOp.materialize]]) before the
    * operator is released; the caller unpersists them.
    *
    * @throws IllegalArgumentException if an edge is bad (see
    *         [[BipartiteGraph.operator]]) or k > |U|
    */
  def uRows(edges: DataFrame, k: Int, dim: Int, seed: Long): Rows =
    BipartiteGraph.withOperator(edges) { a =>
      BipartiteGraph.requireClusters(a, k)
      val proj = a.mulT(a.t.block(dim)(Local.rademacherInto(seed, _, dim, _, _)))
      SparseOp.materialize(SparseOp.normalizeRows(proj))
    }
}
