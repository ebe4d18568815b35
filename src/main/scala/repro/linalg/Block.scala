package repro.linalg

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._

/** A row of a distributed dense row-block matrix: vertex id → length-β vector. */
final case class BRow(id: Long, vec: Array[Double])

/** Distributed dense-block kernels over DataFrames/Datasets.
  *
  * Sparse matrices are edge DataFrames `(src, dst, w)`; dense factors are
  * `Dataset[BRow]` with β ≪ |V| columns. All kernels are deterministic given
  * their seeds and their input's partitioning: reductions add per-partition
  * partials in partition order, so every run of a pipeline reproduces
  * bit-identical results.
  */
object Block {

  /** Sparse × dense multiply: `out[dst] = Σ_src w(src,dst) · dense[src]`.
    *
    * `edges` must have columns `srcCol`, `dstCol`, `wCol`; rows of `dense`
    * are keyed by the values in `srcCol`. Ids absent from `edges` simply do
    * not appear in the output (callers guarantee min-degree ≥ 1 inputs).
    * A one-off product: it builds a [[SparseOp]], co-partitions `dense` with
    * it and multiplies once; iterative callers keep the operator instead.
    */
  def spmm(edges: DataFrame, dense: Dataset[BRow],
           srcCol: String, dstCol: String, wCol: String = "w"): Dataset[BRow] = {
    val op = SparseOp(edges, srcCol, dstCol, wCol)
    SparseOp.toDataset(op.mul(op.coPartition(dense)))
  }

  /** Reshape a flat row-major accumulator into a Mat. */
  private[linalg] def unflatten(flat: Array[Double], cols: Int): Local.Mat =
    flat.grouped(cols).toArray

  /** Add the outer product `xᵀ y` into a flat row-major `|x| × |y|` accumulator. */
  private[linalg] def outerInto(acc: Array[Double], x: Array[Double], y: Array[Double]): Unit = {
    val cols = y.length
    var i = 0
    while (i < x.length) {
      val xi = x(i)
      if (xi != 0.0) {
        val base = i * cols
        var j = 0
        while (j < cols) { acc(base + j) += xi * y(j); j += 1 }
      }
      i += 1
    }
  }

  /** Sum per-partition partial results in partition order. `RDD.reduce` and
    * `Dataset.reduce` merge partials in the order tasks finish, so their
    * floating-point sums can differ from run to run; collecting the partials
    * and folding them in a fixed order cannot.
    */
  private[linalg] def sumInOrder(parts: Array[Array[Double]]): Array[Double] =
    parts.reduceLeft(Local.addInPlace)

  /** Gram matrix `XᵀX` collected to the driver (β×β). */
  def gram(x: Dataset[BRow]): Local.Mat = {
    val spark = x.sparkSession
    import spark.implicits._
    val parts = x.mapPartitions { it =>
      var acc: Array[Double] = null
      it.foreach { r =>
        if (acc == null) acc = new Array[Double](r.vec.length * r.vec.length)
        outerInto(acc, r.vec, r.vec)
      }
      Option(acc).iterator
    }.collect()
    unflatten(sumInOrder(parts), math.sqrt(parts.head.length.toDouble).round.toInt)
  }

  /** Pair Gram `XᵀY` (inner join on id) collected to the driver (β_x × β_y). */
  def pairGram(x: Dataset[BRow], y: Dataset[BRow]): Local.Mat = {
    val spark = x.sparkSession
    import spark.implicits._
    val parts = x.toDF("id", "xvec").join(y.toDF("id", "yvec"), "id")
      .select($"xvec", $"yvec").as[(Array[Double], Array[Double])]
      .mapPartitions { it =>
        var acc: Array[Double] = null
        var cols = 0
        it.foreach { case (xv, yv) =>
          if (acc == null) { cols = yv.length; acc = new Array[Double](xv.length * cols) }
          outerInto(acc, xv, yv)
        }
        Option(acc).iterator.map(a => (cols, a))
      }.collect()
    unflatten(sumInOrder(parts.map(_._2)), parts.head._1)
  }

  /** Right-multiply every row by a local matrix: `out_i = x_i · M`. */
  def timesLocal(x: Dataset[BRow], m: Local.Mat): Dataset[BRow] = {
    val spark = x.sparkSession
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(m)
    x.map(r => BRow(r.id, Local.vecMat(r.vec, bc.value)))
  }

  /** Scale column j of every row by `d(j)`. */
  def scaleCols(x: Dataset[BRow], d: Array[Double]): Dataset[BRow] = {
    val spark = x.sparkSession
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(d)
    x.map { r =>
      val f = bc.value
      val out = new Array[Double](r.vec.length)
      var i = 0
      while (i < out.length) { out(i) = r.vec(i) * f(i); i += 1 }
      BRow(r.id, out)
    }
  }

  /** L2-normalise every row; zero rows are left as zeros. */
  def normalizeRows(x: Dataset[BRow]): Dataset[BRow] = {
    val spark = x.sparkSession
    import spark.implicits._
    x.map { r =>
      val n = Local.l2(r.vec)
      if (n == 0.0) r else BRow(r.id, Local.axpy(1.0 / n, r.vec))
    }
  }

  /** Deterministic gaussian block over `ids` (column "id"). */
  def gaussianBlock(ids: DataFrame, dim: Int, seed: Long): Dataset[BRow] = {
    val spark = ids.sparkSession
    import spark.implicits._
    ids.select(col("id").cast("long")).as[Long]
      .map(id => BRow(id, Local.gaussianVec(seed, id, dim)))
  }

  /** Deterministic ±1/√dim Rademacher block over `ids` (column "id"). */
  def rademacherBlock(ids: DataFrame, dim: Int, seed: Long): Dataset[BRow] = {
    val spark = ids.sparkSession
    import spark.implicits._
    ids.select(col("id").cast("long")).as[Long]
      .map(id => BRow(id, Local.rademacherVec(seed, id, dim)))
  }

  /** Orthonormalise the columns of X via Gram + Cholesky (`X ← X R⁻¹`).
    * A small ridge keeps the Cholesky stable when columns nearly collapse.
    */
  def orthonormalize(x: Dataset[BRow]): Dataset[BRow] = timesLocal(x, rInverse(gram(x)))

  /** `R⁻¹` of the Cholesky factor `Rᵀ R` of a Gram matrix plus a small ridge,
    * so that `X R⁻¹` has orthonormal columns.
    */
  private[linalg] def rInverse(gram: Local.Mat): Local.Mat = {
    val g = gram.map(_.clone())
    val n = g.length
    val tr = (0 until n).map(i => g(i)(i)).sum
    val ridge = math.max(tr, 1.0) * 1e-12
    var i = 0
    while (i < n) { g(i)(i) += ridge; i += 1 }
    Local.invUpper(Local.choleskyUpper(g))
  }

  /** Fix the sign of every column so its maximum-|·| entry is positive — the
    * standard deterministic sign convention for singular/eigenvectors. The
    * greedy seeding of HOPE+ (argmax per row of L) is meaningless under the
    * sign ambiguity of eigenvectors; this convention makes each contrast
    * column "claim" the cluster it marks most strongly.
    */
  def signFixColumns(x: Dataset[BRow]): Dataset[BRow] = {
    val spark = x.sparkSession
    import spark.implicits._
    val extremes = x.mapPartitions { it =>
      var acc: Array[Double] = null
      it.foreach { r =>
        if (acc == null) acc = new Array[Double](r.vec.length)
        var i = 0
        while (i < r.vec.length) {
          if (math.abs(r.vec(i)) > math.abs(acc(i))) acc(i) = r.vec(i)
          i += 1
        }
      }
      Option(acc).iterator
    }.collect().reduceLeft { (a, b) =>
      var i = 0
      while (i < a.length) { if (math.abs(b(i)) > math.abs(a(i))) a(i) = b(i); i += 1 }
      a
    }
    scaleCols(x, extremes.map(v => if (v < 0) -1.0 else 1.0))
  }

  /** Collect a row-block to a driver map (test/debug helper; small inputs only). */
  def collectMap(x: Dataset[BRow]): Map[Long, Array[Double]] =
    x.collect().map(r => r.id -> r.vec).toMap

  /** Materialise a Dataset and truncate BOTH its RDD lineage and its Catalyst
    * plan, returning a fresh Dataset over the checkpointed RDD.
    *
    * `Dataset.localCheckpoint` is NOT used because (Spark 4) the resulting
    * `LogicalRDD` inherits the origin plan's size-in-bytes statistics; in an
    * iterative algorithm each generation's stats are a product over the
    * previous generation's, so sizeInBytes grows doubly-exponentially and
    * Catalyst ends up multiplying million-digit BigInts during planning.
    * Rebuilding via `createDataset` resets the stats every generation.
    */
  def localize[T](ds: Dataset[T]): Dataset[T] = {
    val spark = ds.sparkSession
    val rdd = ds.rdd.localCheckpoint()
    rdd.count() // materialise eagerly so lineage is actually truncated
    spark.createDataset(rdd)(ds.encoder)
  }
}
