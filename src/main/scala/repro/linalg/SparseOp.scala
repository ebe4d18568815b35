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
  * the matrix under one `HashPartitioner(spark.sql.shuffle.partitions)`: one
  * grouped by row id, one grouped by column id (the transpose). Dense blocks
  * it multiplies are [[SparseOp.Rows]] under the same partitioner, so row `r`
  * of the block and row `r` of the matrix sit in the same partition and a
  * product is a `zipPartitions`: each partition accumulates its share of the
  * output in place, and only the combined partial sums are shuffled — one
  * shuffle per product, none of the matrix or of the dense block. The output
  * is again a block under the same partitioner, ready for the next product.
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
  * product that reads it); the owner calls `unpersist()` when done.
  */
final class SparseOp private (private[linalg] val rows: RDD[SparseOp.Csr],
                              private[linalg] val cols: RDD[SparseOp.Csr],
                              val partitioner: Partitioner) {
  import SparseOp._

  /** `out[c] = Σ_r w(r,c) · y[r]` for a block `y` keyed by row id. */
  def mul(y: Rows): Rows = multiply(rows, y)

  /** `out[r] = Σ_c w(r,c) · y[c]` for a block `y` keyed by column id. */
  def mulT(y: Rows): Rows = multiply(cols, y)

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

  private def multiply(a: RDD[Csr], y: Rows): Rows = {
    require(y.partitioner.contains(partitioner),
      s"dense block is partitioned by ${y.partitioner}, not by the operator's $partitioner")
    a.zipPartitions(y) { (csrs, ys) =>
      csrs.next().times(ys, TaskContext.getPartitionId())
    }.partitionBy(partitioner)
      .mapPartitions(combine, preservesPartitioning = true)
  }
}

object SparseOp {

  /** A dense row-block co-partitioned with an operator: `(id, row)` pairs,
    * ids unique and ascending within each partition.
    */
  type Rows = RDD[(Long, Array[Double])]

  private[linalg] val Level = StorageLevel.MEMORY_AND_DISK

  /** Build the operator of the matrix with entries `w(row, col)`; duplicate
    * `(row, col)` pairs add up.
    */
  def apply(edges: DataFrame, rowCol: String, colCol: String, wCol: String = "w"): SparseOp = {
    val spark = edges.sparkSession
    val p = new HashPartitioner(spark.conf.get("spark.sql.shuffle.partitions").toInt)
    val e = edges.select(col(rowCol).cast("long"), col(colCol).cast("long"), col(wCol).cast("double"))
      .rdd.map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
    def grouped(byRow: Boolean): RDD[Csr] =
      e.map { case (r, c, w) => if (byRow) (r, (c, w)) else (c, (r, w)) }
        .partitionBy(p)
        .mapPartitions(it => Iterator.single(Csr(it)), preservesPartitioning = true)
    new SparseOp(grouped(byRow = true), grouped(byRow = false), p)
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

    /** Partial sums `Σ_r w(r,c) · y[r]` over this slice's rows, one per
      * column reached from a row present in `ys`.
      */
    def times(ys: Iterator[(Long, Array[Double])], src: Int): Iterator[(Long, Partial)] = {
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
          var e = rowPtr(i)
          while (e < rowPtr(i + 1)) {
            val c = colIdx(e); val we = w(e); val base = c * width
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
    * emitting ids in ascending order.
    */
  private def combine(it: Iterator[(Long, Partial)]): Iterator[(Long, Array[Double])] = {
    val byId = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Partial]]
    it.foreach { case (id, p) => byId.getOrElseUpdate(id, mutable.ArrayBuffer.empty) += p }
    byId.keys.toArray.sorted.iterator.map { id =>
      val parts = byId(id).sortBy(_.src)
      val out = parts.head.vec
      parts.iterator.drop(1).foreach(p => Local.addInPlace(out, p.vec))
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
    Block.unflatten(Block.sumInOrder(parts), math.sqrt(parts.head.length.toDouble).round.toInt)
  }

  /** Pair Gram `XᵀY` over the ids both co-partitioned blocks hold. */
  def pairGram(x: Rows, y: Rows): Local.Mat = {
    val parts = x.zipPartitions(y) { (xs, ys) =>
      var acc: Array[Double] = null
      var cols = 0
      mergeLeft(xs, ys).foreach { case (_, xv, yv) =>
        if (yv != null) {
          if (acc == null) { cols = yv.length; acc = new Array[Double](xv.length * cols) }
          Block.outerInto(acc, xv, yv)
        }
      }
      Option(acc).iterator.map(a => (cols, a))
    }.collect()
    Block.unflatten(Block.sumInOrder(parts.map(_._2)), parts.head._1)
  }

  /** `out = a·x + y` over the ids of `x` (ids missing from `y` count as zero rows). */
  def axpy(a: Double, x: Rows, y: Rows): Rows =
    x.zipPartitions(y, preservesPartitioning = true) { (xs, ys) =>
      mergeLeft(xs, ys).map { case (id, xv, yv) =>
        val out = Local.axpy(a, xv)
        if (yv != null) Local.addInPlace(out, yv)
        (id, out)
      }
    }

  /** Right-multiply every row by a local matrix: `out_i = x_i · M`. */
  def timesLocal(x: Rows, m: Local.Mat): Rows = {
    val bc = x.sparkContext.broadcast(m)
    x.mapValues(v => Local.vecMat(v, bc.value))
  }

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

  /** The block as a `Dataset[BRow]`, the interface between pipeline stages.
    * Adjacent partitions are merged, without a shuffle, down to one per core,
    * as AQE coalesces a small shuffle's output: the per-row stages that
    * follow (k-means, rounding) pay per task, not per row.
    */
  def toDataset(x: Rows): Dataset[BRow] = {
    val spark = SparkSession.active
    import spark.implicits._
    val parts = math.min(x.getNumPartitions, spark.sparkContext.defaultParallelism)
    spark.createDataset(x.coalesce(parts).map { case (id, v) => BRow(id, v) })
  }
}
