package repro.baselines

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.core.BipartiteGraph
import repro.linalg.{BRow, Block, Local, SparseOp}

/** Johnson–Lindenstrauss sketches of biadjacency rows.
  *
  * Several data-clustering baselines (K-Means, K-Medoids, Birch) operate on
  * the raw |U|×|V| data matrix. We sketch each row with a signed random
  * projection (`X_u = Σ_v a(u,v) R_v`, `R_v` Rademacher) so distances are
  * preserved while centers stay β-dimensional — the standard substitution
  * when |V| is large (DESIGN.md).
  */
object Projections {

  /** Project U-side rows of the (optionally row-normalised) biadjacency: one
    * product with the graph's operator, whose column copy also supplies R's
    * row ids. The rows are materialised (a [[Block.localize]]d Dataset)
    * before the operator is released; the caller [[Block.release]]s them.
    */
  def uRows(edges: DataFrame, dim: Int, seed: Long,
            rowNormalize: Boolean = true): Dataset[BRow] =
    BipartiteGraph.withOperator(edges) { a =>
      val proj = a.mulT(a.t.block(dim)(Local.rademacherInto(seed, _, dim, _, _)))
      Block.localize(SparseOp.toDataset(if (rowNormalize) SparseOp.normalizeRows(proj) else proj))
    }
}
