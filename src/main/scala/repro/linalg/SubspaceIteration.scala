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
  * step to the last. A power step is one Spark job (`subspace/step n`): the
  * Gram `XᵀX` of the new block `X = M Mᵀ V`, which also materialises `X` in
  * the cache; `X R⁻¹` is a per-row map. The Rayleigh–Ritz tail is one
  * product and one job (`subspace/ritz`): `VᵀMMᵀV` is the Gram of
  * `B = MᵀV`, whose eigenvectors W rotate V onto the singular vectors
  * `U = V W` and B onto `MᵀU` — the randomized-SVD step "form `B = QᵀA`,
  * take its SVD" (Halko, Martinsson & Tropp, SIAM Review 2011, §5.1). Every
  * block the loop persists is one [[Slab]] per partition, so the block
  * store holds and sizes one object per partition; each is released before
  * the call returns.
  */
object SubspaceIteration {

  /** Guard vectors beyond β — standard randomized-method oversampling so the
    * trailing requested eigenpairs converge too. Fewer where the matrix has
    * fewer than β + 4 rows or columns: see [[topLeftSingular]].
    */
  private val Oversample = 4

  /** `f(u, p, σ)` for the top-β left singular vectors `u` and singular values
    * `σ` (descending) of the matrix `m`, which the caller owns.
    *
    * The tail multiplies the converged block V, widened by `extra(V)` if
    * given, once by `Mᵀ`; `p` is that product with each V-wide slice
    * rotated like V: its first β columns are `MᵀU` (= `U Σ` mapped to M's
    * column side), and with `extra` the next β are `Mᵀ extra(V) W`.
    * `extra` maps V to a co-partitioned block of V's width. `u` is over M's
    * row ids and `p` over its column ids, both co-partitioned with `m`, read
    * from blocks this call persists and releases when `f` returns, so `f`
    * materialises whatever it returns that reads them.
    *
    * The iterated block is β plus 4 guard columns wide, but never wider than
    * `min(rows, cols)` of M, the largest rank M can have: the guard columns
    * are clamped to `min(rows, cols) − β`, and with none left the trailing
    * pairs converge more slowly.
    *
    * @param beta       number of singular pairs, at most `min(rows, cols)`
    *                   of M (an `IllegalArgumentException` otherwise)
    * @param powerIters number of power-iteration steps (each = one product
    *                   with `M Mᵀ` + re-orthonormalisation)
    */
  def topLeftSingular[T](m: SparseOp, beta: Int, powerIters: Int, seed: Long,
                         extra: Option[Rows => Rows] = None)
                        (f: (Rows, Rows, Array[Double]) => T): T = {
    val rank = math.min(m.numRows, m.numCols)
    require(beta <= rank,
      s"beta = $beta singular vectors exceed min(rows, cols) = min(${m.numRows}, ${m.numCols}) of the matrix")
    val sc = m.rows.sparkContext
    var live = List.empty[Rows] // blocks this loop persisted and has not released
    // `X R⁻¹`, persisted: the next step reads it twice. The Gram job
    // materialises `x`, after which the blocks of earlier steps are no
    // longer read.
    def orthonormalize(x: Rows, label: String): Rows = {
      val earlier = live
      live = x.persist(SparseOp.Level) :: live
      val g = Block.labelJobs(sc, label)(SparseOp.gram(x))
      earlier.foreach(_.unpersist())
      val v = SparseOp.timesLocal(x, Block.rInverse(g)).persist(SparseOp.Level)
      live = List(v, x)
      v
    }
    try {
      val width = beta + math.min(Oversample.toLong, rank - beta).toInt
      // The random start enters as drawn: `X R⁻¹` spans what X spans, so only
      // a call without power steps needs it orthonormalised.
      var v = m.block(width)(Local.gaussianInto(seed, _, width, _, _))
      if (powerIters == 0) v = orthonormalize(v, "subspace/start")
      var t = 0
      while (t < powerIters) {
        t += 1
        v = orthonormalize(m.mulT(m.mul(v)), s"subspace/step $t")
      }
      // Rayleigh–Ritz: rotate the converged subspace onto eigenvector axes and
      // drop the guard columns.
      val y = extra.fold(v)(e => SparseOp.hcat(v, e(v)))
      val p = m.mul(y).persist(SparseOp.Level)
      live = p :: live
      val (w, lambda) = Local.symEigDesc(Block.labelJobs(sc, "subspace/ritz")(SparseOp.gram(p, width)))
      val rot = w.map(_.take(beta))
      val sigma = lambda.take(beta).map(x => math.sqrt(math.max(x, 0.0)))
      f(SparseOp.timesLocal(v, rot), SparseOp.timesLocal(p, rot), sigma)
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
    val m = SparseOp(edges, rowCol, colCol, wCol)
    try topLeftSingular(m, beta, powerIters, seed) { (vecs, _, sigma) =>
      (SparseOp.toDataset(SparseOp.materialize(vecs)), sigma)
    } finally m.unpersist()
  }
}
