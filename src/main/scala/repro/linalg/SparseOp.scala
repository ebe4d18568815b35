package repro.linalg

import java.util.Arrays

import scala.collection.mutable

import org.apache.spark.{HashPartitioner, Partitioner, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel

/** A sparse matrix partitioned once, for repeated sparse × dense products.
  *
  * Built from an edge DataFrame `(row, col, w)`, it holds two CSR copies of
  * the matrix under one `HashPartitioner` with one partition per core
  * (`defaultParallelism`): one grouped by row id, one grouped by column id
  * (the transpose). An output row gets one partial sum from every partition
  * that holds one of its entries, so a product's shuffle and task count grow
  * with the number of partitions; one per core keeps every core busy and no
  * more partial sums than that. Dense blocks
  * it multiplies are [[SparseOp.Rows]] under the same partitioner, so row `r`
  * of the block and row `r` of the matrix sit in the same partition and a
  * product is a `zipPartitions`: each partition accumulates its share of the
  * output in place, and only the combined partial sums are shuffled — one
  * shuffle per product, none of the matrix or of the dense block. The output
  * is again a block under the same partitioner, ready for the next product.
  *
  * One operator serves every degree scaling of its matrix A: `scaled(a, b)`
  * is the view `D_r^a · A · D_c^b` and `t` the transposed view, both over the
  * same two copies. `D_r` and `D_c` hold A's row and column sums, which are
  * the row sums of the two copies, so a scaling is a per-row factor applied
  * inside the partition that holds the row — no join and no extra shuffle.
  *
  * Every product is deterministic: a partition accumulates its rows in id
  * order, and the partial sums of an output row are added in the order of
  * the partitions they came from, not in the order the shuffle fetched them.
  *
  * Shuffles never carry a bare `(Long, Array[Double])` record. Spark picks
  * Kryo by itself for a shuffle whose key and value class tags are both
  * primitives or primitive arrays, and on Java 17 Kryo fails on such records
  * (`InaccessibleObjectException` on `java.nio.ByteBuffer.hb`) unless the JVM
  * opens `java.base/java.nio`. So every shuffled value here is a wrapper
  * class ([[SparseOp.Partial]], [[BRow]], a tuple), which keeps those shuffles
  * on the configured serializer.
  *
  * `cache()` persists both copies (lazily: a copy is built by the first
  * product that reads it); the owner calls `unpersist()` when done. Views
  * share their copies with the operator they came from.
  */
final class SparseOp private (private[linalg] val rows: RDD[SparseOp.Csr],
                              private[linalg] val cols: RDD[SparseOp.Csr],
                              val partitioner: Partitioner,
                              rowPow: Double, colPow: Double) {
  import SparseOp._

  /** The view `D_r^a · M · D_c^b` of this matrix M, where `D_r` and `D_c`
    * are the diagonal matrices of the raw edge weights' row and column sums.
    */
  def scaled(a: Double, b: Double): SparseOp =
    new SparseOp(rows, cols, partitioner, rowPow + a, colPow + b)

  /** The transposed view `Mᵀ`. */
  def t: SparseOp = new SparseOp(cols, rows, partitioner, colPow, rowPow)

  /** `out = Mᵀ y`, i.e. `out[c] = Σ_r m(r,c) · y[r]`, for a block `y` keyed
    * by row id.
    */
  def mul(y: Rows): Rows = {
    requireCoPartitioned(y)
    val (a, b) = (rowPow, colPow)
    val partials = rows.zipPartitions(y) { (csrs, ys) =>
      csrs.next().times(ys, a, TaskContext.getPartitionId())
    }.partitionBy(partitioner)
    // Output rows are column ids, held in the same partitions by `cols`.
    if (b == 0.0) partials.mapPartitions(combine(_, null, 0.0), preservesPartitioning = true)
    else partials.zipPartitions(cols, preservesPartitioning = true)((ps, cs) => combine(ps, cs.next(), b))
  }

  /** `out = M y`, i.e. `out[r] = Σ_c m(r,c) · y[c]`, for a block `y` keyed
    * by column id.
    */
  def mulT(y: Rows): Rows = t.mul(y)

  /** `D_r^pow · y`: row `id` of the co-partitioned block `y`, a row id of
    * this matrix, scaled by the `pow`-th power of the matrix's raw row sum
    * (the `D_r` of [[scaled]], whatever this view's own scaling).
    */
  def degreeScale(y: Rows, pow: Double): Rows = {
    requireCoPartitioned(y)
    rows.zipPartitions(y, preservesPartitioning = true) { (csrs, ys) =>
      val csr = csrs.next()
      ys.map { case (id, v) =>
        val i = Arrays.binarySearch(csr.rowIds, id)
        require(i >= 0, s"row $id of the block is not a row of the matrix")
        val s = csr.degreePow(i, pow)
        (id, v.map(_ * s))
      }
    }
  }

  private def requireCoPartitioned(y: Rows): Unit =
    require(y.partitioner.contains(partitioner),
      s"dense block is partitioned by ${y.partitioner}, not by the operator's $partitioner")

  /** A block with one row `f(id)` per row id of the matrix, co-partitioned
    * with it; `f` must be a pure function of the id.
    */
  def block(f: Long => Array[Double]): Rows =
    rows.mapPartitions(_.next().rowIds.iterator.map(id => (id, f(id))), preservesPartitioning = true)

  /** Redistribute a dense row-block under this operator's partitioner. */
  def coPartition(x: Dataset[BRow]): Rows =
    x.rdd.keyBy(_.id).partitionBy(partitioner)
      .mapPartitions(it => it.map { case (id, r) => (id, r.vec) }.toArray.sortBy(_._1).iterator,
                     preservesPartitioning = true)

  def cache(): this.type = {
    rows.persist(Level); cols.persist(Level)
    this
  }

  def unpersist(): Unit = { rows.unpersist(); cols.unpersist() }
}

object SparseOp {

  /** A dense row-block co-partitioned with an operator: `(id, row)` pairs,
    * ids unique and ascending within each partition.
    */
  type Rows = RDD[(Long, Array[Double])]

  /** Storage level of the cached copies and of persisted blocks. */
  val Level = StorageLevel.MEMORY_AND_DISK

  /** Build the operator of the matrix with entries `w(row, col)`; duplicate
    * `(row, col)` pairs add up. Entries are taken as given: a scaled view
    * of a matrix with a zero or negative row or column sum is not defined.
    */
  def apply(edges: DataFrame, rowCol: String, colCol: String, wCol: String = "w"): SparseOp =
    apply(edges, rowCol, colCol, wCol, edges.sparkSession.sparkContext.defaultParallelism)

  /** [[apply]] under `numPartitions` partitions instead of one per core. */
  private[linalg] def apply(edges: DataFrame, rowCol: String, colCol: String, wCol: String,
                            numPartitions: Int): SparseOp = {
    val p = new HashPartitioner(numPartitions)
    // Under AQE, `.rdd` runs the shuffle stages of the edges' own plan.
    val e = Block.labelJobs(edges.sparkSession.sparkContext, "operator/build") {
      edges.select(col(rowCol).cast("long"), col(colCol).cast("long"), col(wCol).cast("double")).rdd
    }.map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
    def grouped(byRow: Boolean): RDD[Csr] =
      e.map { case (r, c, w) => if (byRow) (r, (c, w)) else (c, (r, w)) }
        .partitionBy(p)
        .mapPartitions(it => Iterator.single(Csr(it)), preservesPartitioning = true)
    new SparseOp(grouped(byRow = true), grouped(byRow = false), p, 0.0, 0.0)
  }

  /** One output row's partial sum from map partition `src`. */
  private[linalg] final case class Partial(src: Int, vec: Array[Double])

  /** One partition's slice of a sparse matrix in CSR form. Rows ascend by
    * id; a row's entries ascend by (column, weight). Column ids are interned
    * per partition: entry `e` lies in column `colIds(colIdx(e))`.
    */
  private[linalg] final class Csr(val rowIds: Array[Long], val rowPtr: Array[Int],
                                  val colIds: Array[Long], val colIdx: Array[Int],
                                  val w: Array[Double]) extends Serializable {

    /** Each row's sum of weights, added in entry order. */
    val rowSums: Array[Double] = Array.tabulate(rowIds.length) { i =>
      var s = 0.0
      var e = rowPtr(i)
      while (e < rowPtr(i + 1)) { s += w(e); e += 1 }
      s
    }

    /** `rowSums(i)^pow`, exactly 1 for `pow == 0`. */
    def degreePow(i: Int, pow: Double): Double = if (pow == 0.0) 1.0 else math.pow(rowSums(i), pow)

    /** Partial sums `Σ_r w(r,c) · d_r^pow · y[r]` over this slice's rows, one
      * per column reached from a row present in `ys`.
      */
    def times(ys: Iterator[(Long, Array[Double])], pow: Double, src: Int): Iterator[(Long, Partial)] = {
      val y = new Array[Array[Double]](rowIds.length)
      var width = -1
      ys.foreach { case (id, v) =>
        width = v.length
        val i = Arrays.binarySearch(rowIds, id)
        if (i >= 0) y(i) = v
      }
      if (width < 0) return Iterator.empty
      val acc = new Array[Double](colIds.length * width)
      val reached = new Array[Boolean](colIds.length)
      var i = 0
      while (i < rowIds.length) {
        val yi = y(i)
        if (yi != null) {
          val s = degreePow(i, pow)
          var e = rowPtr(i)
          while (e < rowPtr(i + 1)) {
            val c = colIdx(e); val we = w(e) * s; val base = c * width
            var j = 0
            while (j < width) { acc(base + j) += we * yi(j); j += 1 }
            reached(c) = true
            e += 1
          }
        }
        i += 1
      }
      Iterator.range(0, colIds.length).filter(reached(_)).map { c =>
        (colIds(c), Partial(src, Arrays.copyOfRange(acc, c * width, (c + 1) * width)))
      }
    }
  }

  private[linalg] object Csr {
    private val EntryOrder = Ordering.Tuple3(Ordering.Long, Ordering.Long, Ordering.Double.TotalOrdering)

    def apply(entries: Iterator[(Long, (Long, Double))]): Csr = {
      val es = entries.map { case (r, (c, w)) => (r, c, w) }.toArray
      es.sortInPlace()(EntryOrder)
      val colIds = es.map(_._2).distinct.sorted
      val rowIds = mutable.ArrayBuilder.make[Long]
      val rowPtr = mutable.ArrayBuilder.make[Int]
      var e = 0
      while (e < es.length) {
        if (e == 0 || es(e)._1 != es(e - 1)._1) { rowIds += es(e)._1; rowPtr += e }
        e += 1
      }
      rowPtr += es.length
      new Csr(rowIds.result(), rowPtr.result(), colIds,
              es.map(x => Arrays.binarySearch(colIds, x._2)), es.map(_._3))
    }
  }

  /** Add up each id's partial sums in the order of their source partitions,
    * emitting ids in ascending order; with `pow != 0`, scale row `id` by the
    * `pow`-th power of its row sum in `csr`, the copy that holds it.
    */
  private def combine(it: Iterator[(Long, Partial)], csr: Csr, pow: Double): Iterator[(Long, Array[Double])] = {
    val byId = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Partial]]
    it.foreach { case (id, p) => byId.getOrElseUpdate(id, mutable.ArrayBuffer.empty) += p }
    byId.keys.toArray.sorted.iterator.map { id =>
      val parts = byId(id).sortBy(_.src)
      val out = parts.head.vec
      parts.iterator.drop(1).foreach(p => Local.addInPlace(out, p.vec))
      if (pow != 0.0) {
        val s = csr.degreePow(Arrays.binarySearch(csr.rowIds, id), pow)
        var j = 0
        while (j < out.length) { out(j) *= s; j += 1 }
      }
      (id, out)
    }
  }

  /** Gram matrix `XᵀX` of a block, collected to the driver. */
  def gram(x: Rows): Local.Mat = {
    val parts = x.mapPartitions { it =>
      var acc: Array[Double] = null
      it.foreach { case (_, v) =>
        if (acc == null) acc = new Array[Double](v.length * v.length)
        Block.outerInto(acc, v, v)
      }
      Option(acc).iterator
    }.collect()
    require(parts.nonEmpty, "gram: the block is empty")
    Block.unflatten(Block.sumInOrder(parts), math.sqrt(parts.head.length.toDouble).round.toInt)
  }

  /** `f(x_i, y_i)` for every row `x_i` of `x`, with `y_i` the row of equal
    * id in the co-partitioned block `y`, or null.
    */
  def zipRows(x: Rows, y: Rows)(f: (Array[Double], Array[Double]) => Array[Double]): Rows =
    x.zipPartitions(y, preservesPartitioning = true) { (xs, ys) =>
      mergeLeft(xs, ys).map { case (id, xv, yv) => (id, f(xv, yv)) }
    }

  /** Right-multiply every row by a local matrix: `out_i = x_i · M`. `M`
    * (at most a few hundred KB) travels in the task closure, so nothing
    * outlives the call.
    */
  def timesLocal(x: Rows, m: Local.Mat): Rows = x.mapValues(v => Local.vecMat(v, m))

  /** Each row of `xs` with the row of equal id in `ys`, or null; both
    * iterators ascend by id.
    */
  private def mergeLeft(xs: Iterator[(Long, Array[Double])], ys: Iterator[(Long, Array[Double])])
      : Iterator[(Long, Array[Double], Array[Double])] = {
    val yb = ys.buffered
    xs.map { case (id, xv) =>
      while (yb.hasNext && yb.head._1 < id) yb.next()
      (id, xv, if (yb.hasNext && yb.head._1 == id) yb.next()._2 else null)
    }
  }

  /** The block as a `Dataset[BRow]`, the interface between pipeline stages. */
  def toDataset(x: Rows): Dataset[BRow] = {
    val spark = SparkSession.active
    import spark.implicits._
    spark.createDataset(x.map { case (id, v) => BRow(id, v) })
  }
}
