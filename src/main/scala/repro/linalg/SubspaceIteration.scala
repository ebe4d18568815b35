package repro.linalg

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.linalg.SparseOp.Rows

/** Block power iteration with Rayleigh–Ritz extraction for the top-β left
  * singular vectors of a sparse matrix M, i.e. eigenpairs of `M Mᵀ`.
  *
  * M is a [[SparseOp]] (or one of its scaled views), so the square matrix
  * `M Mᵀ` (e.g. HOPE's `Q Qᵀ`) is never materialised — exactly the trick
  * HOPE relies on (paper §3, "without materializing H explicitly"). This is
  * also the engine behind every spectral baseline's truncated SVD.
  *
  * The iterated block stays co-partitioned with the operator from the first
  * step to the last. A power step is one Spark job: the Gram `XᵀX` of the
  * new block `X = M Mᵀ V`, which also materialises `X` in the cache; `X R⁻¹`
  * is a per-row map. Every block the loop persists is released before the
  * call returns.
  */
object SubspaceIteration {

  /** Guard vectors beyond β — standard randomized-method oversampling so the
    * trailing requested eigenpairs converge too.
    */
  private val Oversample = 4

  /** `f` applied to the top-β left singular vectors and the singular values
    * (descending) of the matrix `m`, which the caller owns and caches (every
    * power step reads it twice).
    *
    * The singular-vector block, over M's row ids and co-partitioned with
    * `m`, is read from blocks this call persists and releases when `f`
    * returns, so `f` materialises whatever it returns that reads the block.
    *
    * @param beta       number of singular pairs
    * @param powerIters number of power-iteration steps (each = one product
    *                   with `M Mᵀ` + re-orthonormalisation)
    */
  def topLeftSingular[T](m: SparseOp, beta: Int, powerIters: Int, seed: Long)
                        (f: (Rows, Array[Double]) => T): T = {
    def mmt(v: Rows): Rows = m.mulT(m.mul(v))
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
      // The random start enters as drawn: `X R⁻¹` spans what X spans, so only
      // a call without power steps needs it orthonormalised.
      var v = m.block(Local.gaussianVec(seed, _, beta + Oversample))
      if (powerIters == 0) v = orthonormalize(v)
      var t = 0
      while (t < powerIters) {
        v = orthonormalize(mmt(v))
        t += 1
      }
      // Rayleigh–Ritz: rotate the converged subspace onto eigenvector axes and
      // drop the guard columns.
      val (w, lambda) = Local.symEigDesc(SparseOp.pairGram(v, mmt(v)))
      f(SparseOp.timesLocal(v, w.map(_.take(beta))), lambda.take(beta).map(x => math.sqrt(math.max(x, 0.0))))
    } finally live.foreach(_.unpersist())
  }

  /** [[topLeftSingular]] of the matrix with entries `w(row, col)` given as
    * edges: the singular-vector block (a local checkpoint) as a
    * `Dataset[BRow]`, and the singular values. The block covers the row ids
    * of `edges`; `rowIds` is not read and is kept so existing callers
    * compile.
    */
  def topLeftSingular(edges: DataFrame,
                      rowCol: String, colCol: String, wCol: String,
                      rowIds: DataFrame,
                      beta: Int,
                      powerIters: Int,
                      seed: Long): (Dataset[BRow], Array[Double]) = {
    val m = SparseOp(edges, rowCol, colCol, wCol).cache()
    try topLeftSingular(m, beta, powerIters, seed) { (vecs, sigma) =>
      val kept = vecs.localCheckpoint()
      kept.count()
      (SparseOp.toDataset(kept), sigma)
    } finally m.unpersist()
  }
}
