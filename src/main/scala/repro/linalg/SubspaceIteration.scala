package repro.linalg

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.linalg.SparseOp.Rows

/** Block power iteration with Rayleigh–Ritz extraction for the top-β
  * eigenpairs of a symmetric positive semi-definite operator.
  *
  * The operator is a sparse matrix held as a [[SparseOp]], so the |V|×|V|
  * matrix (e.g. `Q Qᵀ`) is never materialised — exactly the trick HOPE
  * relies on (paper §3, "without materializing H explicitly"). This is also
  * the engine behind every spectral baseline's truncated SVD.
  *
  * The iterated block stays co-partitioned with the operator from the first
  * step to the last. A power step is one Spark job: the Gram `XᵀX` of the
  * new block `X = A V`, which also materialises `X` in the cache; `X R⁻¹` is
  * a per-row map. Every block the loop persists, and the operator's cached
  * copies, are released before the call returns; only the returned
  * eigenvector block (a local checkpoint) stays.
  */
object SubspaceIteration {

  /** Guard vectors beyond β — standard randomized-method oversampling so the
    * trailing requested eigenpairs converge too.
    */
  private val Oversample = 4

  /** Top-β eigenpairs of the symmetric matrix `M` with entries
    * `w(row, col)`, rows and columns over the same ids.
    *
    * @param ids        DataFrame with a single `id` column enumerating the
    *                   operator's coordinate space
    * @param beta       number of eigenpairs
    * @param powerIters number of power-iteration steps (each = 1 operator
    *                   application + re-orthonormalisation)
    * @param shift      iterate on `M + shift·I`, which has M's eigenvectors;
    *                   a shift that makes it PSD lets the iteration target
    *                   M's algebraically largest eigenvalues
    * @return (eigenvector block with β columns, eigenvalues of M descending)
    */
  def topEig(edges: DataFrame,
             rowCol: String, colCol: String, wCol: String,
             ids: DataFrame,
             beta: Int,
             powerIters: Int,
             seed: Long,
             shift: Double = 0.0): (Dataset[BRow], Array[Double]) = {
    val (vecs, lambda) = eig(edges, rowCol, colCol, wCol, ids, beta, powerIters, seed) { op =>
      if (shift == 0.0) op.mul else v => SparseOp.axpy(shift, v, op.mul(v))
    }
    (SparseOp.toDataset(vecs), lambda.map(_ - shift))
  }

  /** Truncated SVD of a sparse matrix given as edges `(row, col, w)`.
    *
    * Returns the top-β LEFT singular vectors (block over row ids) and the
    * singular values, via eigenpairs of the operator `y ↦ M (Mᵀ y)`.
    */
  def topLeftSingular(edges: DataFrame,
                      rowCol: String, colCol: String, wCol: String,
                      rowIds: DataFrame,
                      beta: Int,
                      powerIters: Int,
                      seed: Long): (Dataset[BRow], Array[Double]) = {
    val (vecs, lambda) = eig(edges, rowCol, colCol, wCol, rowIds, beta, powerIters, seed) { op =>
      v => op.mulT(op.mul(v))
    }
    (SparseOp.toDataset(vecs), lambda.map(x => math.sqrt(math.max(x, 0.0))))
  }

  /** The power-iteration loop on the PSD operator `apply(op)`, where `op` is
    * the matrix of `edges`, cached for the duration of the call.
    */
  private def eig(edges: DataFrame, rowCol: String, colCol: String, wCol: String,
                  ids: DataFrame, beta: Int, powerIters: Int, seed: Long)
                 (apply: SparseOp => Rows => Rows): (Rows, Array[Double]) = {
    val op = SparseOp(edges, rowCol, colCol, wCol).cache()
    val a = apply(op)
    var live = List.empty[Rows] // blocks this loop persisted and has not released
    // `X R⁻¹`, persisted: the next step reads it twice (Rayleigh–Ritz) or
    // more. The Gram job materialises `x`, after which the blocks of earlier
    // steps are no longer read.
    def orthonormalize(x: Rows): Rows = {
      val earlier = live
      live = x.persist(SparseOp.Level) :: live
      val g = SparseOp.gram(x)
      earlier.foreach(_.unpersist())
      val v = SparseOp.timesLocal(x, Block.rInverse(g)).persist(SparseOp.Level)
      live = List(v, x)
      v
    }
    try {
      var v = orthonormalize(op.coPartition(Block.gaussianBlock(ids, beta + Oversample, seed)))
      var t = 0
      while (t < powerIters) {
        v = orthonormalize(a(v))
        t += 1
      }
      // Rayleigh–Ritz: rotate the converged subspace onto eigenvector axes and
      // drop the guard columns.
      val (w, lambda) = Local.symEigDesc(SparseOp.pairGram(v, a(v)))
      val vecs = SparseOp.timesLocal(v, w.map(_.take(beta))).localCheckpoint()
      vecs.count()
      (vecs, lambda.take(beta))
    } finally {
      live.foreach(_.unpersist())
      op.unpersist()
    }
  }
}
