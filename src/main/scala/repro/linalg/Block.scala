package repro.linalg

import scala.reflect.ClassTag

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

/** A row of a distributed dense row-block matrix: vertex id → length-β vector. */
final case class BRow(id: Long, vec: Array[Double])

/** The Dataset side, and the assignments. Pipeline stages hand each other
  * slab blocks (`RDD[Slab]`); a `Dataset[BRow]` appears only at the Dataset
  * signatures the benchmark compiles against, which convert once
  * ([[slabs]], [[SparseOp.toDataset]]), and in the kernels here that only
  * the benchmark's probes and the tests call (`spmm`, `gram`,
  * `gaussianBlock`, `orthonormalize`, and [[localize]], which is for those
  * signatures only). Every method that labels the rows of a slab block
  * builds its assignment with [[assignments]], which [[release]] frees.
  * Reductions add per-partition partials in partition order, so every run
  * of a pipeline reproduces bit-identical results.
  */
object Block {

  /** Sparse × dense multiply: `out[dst] = Σ_src w(src,dst) · dense[src]`.
    *
    * `edges` must have columns `srcCol`, `dstCol`, `wCol`; rows of `dense`
    * are keyed by the values in `srcCol`. Ids absent from `edges` simply do
    * not appear in the output (callers guarantee min-degree ≥ 1 inputs).
    * A one-off product: it builds a [[SparseOp]], co-partitions `dense` with
    * it, multiplies once and materialises the product (a [[localize]]d
    * Dataset) before it releases the operator; iterative callers keep the
    * operator instead.
    */
  def spmm(edges: DataFrame, dense: Dataset[BRow],
           srcCol: String, dstCol: String, wCol: String = "w"): Dataset[BRow] = {
    val op = SparseOp(edges, srcCol, dstCol, wCol)
    try localize(SparseOp.toDataset(op.mul(op.coPartition(dense)))) finally op.unpersist()
  }

  /** Reshape a flat row-major accumulator into a Mat. */
  private[linalg] def unflatten(flat: Array[Double], cols: Int): Local.Mat =
    flat.grouped(cols).toArray

  /** One partial Gram `Σ x xᵀ` over the rows of `s`, first `n` columns
    * (all for `n < 0`), or none if there are no rows: a flat row-major
    * accumulator of which only the upper triangle (i ≤ j) is filled, each
    * entry adding its products in row order ([[Slab.upperGramInto]]);
    * [[symGram]] completes it.
    */
  private[linalg] def upperGram(s: Slab, n: Int): Iterator[Array[Double]] =
    if (s.size == 0) Iterator.empty
    else {
      val cols = if (n < 0) s.width else n
      val acc = new Array[Double](cols * cols)
      Slab.upperGramInto(s, cols, acc)
      Iterator.single(acc)
    }

  /** `XᵀX` from the per-partition [[upperGram]] partials: their sum in
    * partition order with the upper triangle mirrored into the lower. A
    * product `x_i x_j` equals `x_j x_i`, and a skipped zero term leaves a
    * sum that started at +0.0 unchanged, so for finite entries this is
    * bit-identical to accumulating every entry of `x xᵀ`.
    */
  private[linalg] def symGram(parts: Array[Array[Double]]): Local.Mat = {
    require(parts.nonEmpty, "gram: the block is empty")
    val n = math.sqrt(parts.head.length.toDouble).round.toInt
    val flat = sumInOrder(parts)
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) { flat(j * n + i) = flat(i * n + j); j += 1 }
      i += 1
    }
    unflatten(flat, n)
  }

  /** Sum per-partition partial results in partition order. `RDD.reduce` and
    * `Dataset.reduce` merge partials in the order tasks finish, so their
    * floating-point sums can differ from run to run; collecting the partials
    * and folding them in a fixed order cannot.
    */
  def sumInOrder(parts: Array[Array[Double]]): Array[Double] =
    parts.reduceLeft(Local.addInPlace)

  /** Gram matrix `XᵀX` collected to the driver (β×β): [[SparseOp.gram]]. */
  def gram(x: Dataset[BRow]): Local.Mat = SparseOp.gram(slabs(x))

  /** One slab per partition of `x`, with that partition's rows in their
    * order: not co-partitioned with any operator, so for the kernels that
    * need no partitioner (k-means, `leftSingular`, the rounding, the Gram).
    */
  def slabs(x: Dataset[BRow]): RDD[Slab] = x.rdd.mapPartitions(it => Iterator.single(Slab.of(it)))

  /** Deterministic gaussian block over `ids` (column "id"). */
  def gaussianBlock(ids: DataFrame, dim: Int, seed: Long): Dataset[BRow] = {
    val spark = ids.sparkSession
    import spark.implicits._
    ids.select(col("id").cast("long")).as[Long]
      .map(id => BRow(id, Local.gaussianVec(seed, id, dim)))
  }

  /** Orthonormalise the columns of X via Gram + Cholesky (`X ← X R⁻¹`).
    * A small ridge keeps the Cholesky stable when columns nearly collapse.
    */
  def orthonormalize(x: Dataset[BRow]): Dataset[BRow] =
    SparseOp.toDataset(SparseOp.timesLocal(slabs(x), rInverse(gram(x))))

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

  /** `body`, with every Spark job it submits described as `label` (Spark's
    * job description, which listeners and the event log report); the
    * caller's description is restored after.
    */
  def labelJobs[T](sc: SparkContext, label: String)(body: => T): T = {
    val prev = sc.getLocalProperty("spark.job.description")
    sc.setJobDescription(label)
    try body finally sc.setJobDescription(prev)
  }

  /** Collect a row-block to a driver map (test/debug helper; small inputs only). */
  def collectMap(x: Dataset[BRow]): Map[Long, Array[Double]] =
    x.collect().map(r => r.id -> r.vec).toMap

  /** Materialise a Dataset and truncate BOTH its RDD lineage and its Catalyst
    * plan, returning a fresh Dataset over the checkpointed RDD. The
    * checkpoint holds one array of rows per partition, so the block store
    * sizes one object per partition, not one per row.
    *
    * `Dataset.localCheckpoint` is NOT used because (Spark 4) the resulting
    * `LogicalRDD` inherits the origin plan's size-in-bytes statistics; in an
    * iterative algorithm each generation's stats are a product over the
    * previous generation's, so sizeInBytes grows doubly-exponentially and
    * Catalyst ends up multiplying million-digit BigInts during planning.
    * Rebuilding via `createDataset` resets the stats every generation.
    */
  def localize[T](ds: Dataset[T]): Dataset[T] = {
    implicit val tag: ClassTag[T] = ds.encoder.clsTag
    val parts = ds.rdd.mapPartitions(it => Iterator.single(it.toArray)).localCheckpoint()
    parts.count() // materialise eagerly so lineage is actually truncated
    ds.sparkSession.createDataset(parts.flatMap(_.iterator))(ds.encoder)
  }

  /** The assignment `(id, cluster)` of the rows of `rows`: `label(s)` gives
    * the clusters of slab `s`'s rows, in row order. The per-partition ids
    * and labels are materialised ([[SparseOp.materialize]], one job), so
    * the result outlives `rows`; [[release]] frees it.
    */
  def assignments(rows: RDD[Slab])(label: Slab => Array[Int]): DataFrame = {
    val spark = SparkSession.active
    import spark.implicits._
    val parts = SparseOp.materialize(rows.map(s => (s.ids, label(s))))
    parts.flatMap { case (ids, cs) => ids.iterator.zip(cs.iterator) }.toDF("id", "cluster")
  }

  /** Unpersist every persisted RDD in the lineage of `ds`: for an
    * [[assignments]] or [[localize]] result, its checkpoint.
    */
  def release(ds: Dataset[_]): Unit = {
    def lineage(r: RDD[_]): Seq[RDD[_]] = r +: r.dependencies.flatMap(d => lineage(d.rdd))
    lineage(ds.rdd).filter(_.getStorageLevel.isValid).foreach(_.unpersist())
  }
}
