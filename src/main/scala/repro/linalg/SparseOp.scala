package repro.linalg

import java.util.Arrays

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.reflect.ClassTag

import org.apache.spark.{HashPartitioner, Partitioner, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset, Row, SparkSession}
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
  * it multiplies are [[SparseOp.Rows]] under the same partitioner, one
  * [[Slab]] per partition, so row `r` of the block and row `r` of the matrix
  * sit in the same partition and a product is a `zipPartitions`: each
  * partition accumulates its share of the output in place, and only the
  * combined partial sums are shuffled, as one [[SparseOp.Partial]] slab per
  * (map partition, reduce partition) pair — one shuffle per product and at
  * most P² records for P partitions, none of the matrix or of the dense
  * block. The output is again a block under the same partitioner, ready for
  * the next product.
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
  * class ([[SparseOp.Partial]], the build's chunk, [[BRow]]), whatever its
  * key, which keeps those shuffles on the configured serializer.
  *
  * The operator is built and cached by one Spark job (`operator/build`,
  * [[SparseOp.apply]]) and holds its copies until the owner calls
  * `unpersist()`. Views share their copies with the operator they came from.
  *
  * @param numRows the number of distinct row ids, counted by the build
  * @param numCols the number of distinct column ids, counted by the build
  * @param firstInvalid the input's first entry, in (row, col, w) order, that
  *        a graph may not hold (see [[SparseOp.Entry.valid]]), if any
  */
final class SparseOp private (private[linalg] val rows: RDD[SparseOp.Csr],
                              private[linalg] val cols: RDD[SparseOp.Csr],
                              val numRows: Long, val numCols: Long,
                              val firstInvalid: Option[SparseOp.Entry],
                              stored: RDD[_],
                              rowPow: Double, colPow: Double) {
  import SparseOp._

  val partitioner: Partitioner = rows.partitioner.get
  // A product keys its partial sums by their destination partition's index
  // and routes them with `partitioner`, which must send index d to
  // partition d: a HashPartitioner does for 0 ≤ d < P.
  require(partitioner.isInstanceOf[HashPartitioner], s"an operator needs a HashPartitioner, not $partitioner")

  /** The view `D_r^a · M · D_c^b` of this matrix M, where `D_r` and `D_c`
    * are the diagonal matrices of the raw edge weights' row and column sums.
    */
  def scaled(a: Double, b: Double): SparseOp =
    new SparseOp(rows, cols, numRows, numCols, firstInvalid, stored, rowPow + a, colPow + b)

  /** The transposed view `Mᵀ`. */
  def t: SparseOp = new SparseOp(cols, rows, numCols, numRows, firstInvalid, stored, colPow, rowPow)

  /** `out = Mᵀ y`, i.e. `out[c] = Σ_r m(r,c) · y[r]`, for a block `y` keyed
    * by row id. The partials are keyed by destination partition index, so
    * the operator's HashPartitioner routes partial d to partition d.
    */
  def mul(y: Rows): Rows = {
    requireCoPartitioned(y)
    val (a, b, p) = (rowPow, colPow, partitioner)
    val partials = rows.zipPartitions(y) { (csrs, ys) =>
      csrs.next().times(ys.next(), a, p, TaskContext.getPartitionId())
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
      val csr = csrs.next(); val x = ys.next()
      val at = csr.indexOf(x.ids)
      val out = new Array[Double](x.values.length)
      var i = 0
      while (i < x.size) {
        val s = csr.degreePow(at(i), pow)
        var j = i * x.width
        while (j < (i + 1) * x.width) { out(j) = x.values(j) * s; j += 1 }
        i += 1
      }
      Iterator.single(new Slab(x.ids, x.width, out))
    }
  }

  private def requireCoPartitioned(y: Rows): Unit =
    require(y.partitioner.contains(partitioner),
      s"dense block is partitioned by ${y.partitioner}, not by the operator's $partitioner")

  /** A block of the given width with one row per row id of the matrix,
    * co-partitioned with it; `fill(id, values, offset)` writes row `id`
    * into its slab and must be a pure function of the id.
    */
  def block(width: Int)(fill: (Long, Array[Double], Int) => Unit): Rows =
    rows.mapPartitions(cs => Iterator.single(Slab.tabulate(cs.next().rowIds, width)(fill)),
                       preservesPartitioning = true)

  /** Redistribute a dense row-block under this operator's partitioner. */
  def coPartition(x: Dataset[BRow]): Rows =
    x.rdd.keyBy(_.id).partitionBy(partitioner)
      .mapPartitions(it => Iterator.single(Slab.of(it.map(_._2).toArray.sortBy(_.id).iterator)),
                     preservesPartitioning = true)

  /** Release the cached copies, for this operator and all its views. */
  def unpersist(): Unit = stored.unpersist()
}

object SparseOp {

  /** A dense row-block co-partitioned with an operator: one [[Slab]] per
    * partition, its ids unique and ascending.
    */
  type Rows = RDD[Slab]

  /** Storage level of the cached copies and of persisted blocks. */
  val Level = StorageLevel.MEMORY_AND_DISK

  /** Build and cache the operator of the matrix with entries `w(row, col)`;
    * duplicate `(row, col)` pairs add up. Entries are taken as given: a
    * scaled view of a matrix with a zero or negative row or column sum is
    * not defined.
    *
    * One Spark job (`operator/build`; under AQE the shuffle stages of the
    * edges' own plan run first, under the same label). Each edge partition
    * is read once and sends every operator partition one [[Chunk]] with the
    * entries of both copies that fall there, so one shuffle feeds both
    * copies. Each operator partition builds its two CSRs ([[Csr.apply]]) and
    * is cached, and the job returns its row and column counts and its first
    * invalid entry.
    *
    * @throws IllegalArgumentException naming an input row with a null id or
    *         weight, if there is one
    */
  def apply(edges: DataFrame, rowCol: String, colCol: String, wCol: String = "w"): SparseOp =
    apply(edges, rowCol, colCol, wCol, edges.sparkSession.sparkContext.defaultParallelism)

  /** [[apply]] under `numPartitions` partitions instead of one per core. */
  private[linalg] def apply(edges: DataFrame, rowCol: String, colCol: String, wCol: String,
                            numPartitions: Int): SparseOp = {
    val p = new HashPartitioner(numPartitions)
    Block.labelJobs(edges.sparkSession.sparkContext, "operator/build") {
      val e = edges.select(col(rowCol).cast("long"), col(colCol).cast("long"), col(wCol).cast("double")).rdd
      val stored = e.mapPartitions(split(_, p)).partitionBy(p)
        .mapPartitions(cs => Iterator.single(Part(cs.map(_._2).toArray)), preservesPartitioning = true)
        .persist(Level)
      try {
        val counts = stored.map(s => (s.rows.rowIds.length.toLong, s.cols.rowIds.length.toLong, s.firstInvalid))
          .collect()
        val firstInvalid = counts.flatMap(_._3).minOption
        firstInvalid.filter(_.hasNull).foreach { e =>
          throw new IllegalArgumentException(
            s"bad edge ${e.show(rowCol, colCol, wCol)}: ids and weights must not be null")
        }
        new SparseOp(stored.mapPartitions(s => Iterator.single(s.next().rows), preservesPartitioning = true),
                     stored.mapPartitions(s => Iterator.single(s.next().cols), preservesPartitioning = true),
                     counts.map(_._1).sum, counts.map(_._2).sum, firstInvalid, stored, 0.0, 0.0)
      } catch { case t: Throwable => stored.unpersist(); throw t }
    }
  }

  /** An input row `(row, col, w)`, `None` where it holds a null. */
  final case class Entry(row: Option[Long], col: Option[Long], w: Option[Double]) {
    def hasNull: Boolean = row.isEmpty || col.isEmpty || w.isEmpty

    /** `(rowCol=row, colCol=col, wCol=w)`, with `null` for a null. */
    def show(rowCol: String, colCol: String, wCol: String): String = {
      def s(x: Option[Any]) = x.fold("null")(_.toString)
      s"($rowCol=${s(row)}, $colCol=${s(col)}, $wCol=${s(w)})"
    }
  }

  object Entry {
    /** Entries with a null first, then `(row, col, w)` order, nulls first,
      * weights in `Double` total order.
      */
    implicit val order: Ordering[Entry] = Ordering.by((e: Entry) => (!e.hasNull, e.row, e.col, e.w))(
      Ordering.Tuple4(Ordering.Boolean, Ordering.Option(Ordering.Long), Ordering.Option(Ordering.Long),
                      Ordering.Option(Ordering.Double.TotalOrdering)))

    /** Whether a graph may hold the entry: ids ≥ 0, the weight finite and
      * > 0 (the degree scalings turn any other weight into NaN or ∞).
      */
    def valid(row: Long, col: Long, w: Double): Boolean =
      row >= 0 && col >= 0 && w > 0 && w < Double.PositiveInfinity
  }

  /** Entries `(key, other, w)` of one copy, as parallel arrays. */
  private[linalg] final class Triples(val key: Array[Long], val other: Array[Long], val w: Array[Double])
      extends Serializable

  /** What one edge partition sends one operator partition: the entries of
    * the row copy and of the column copy that fall there, and (to partition
    * 0 only) the edge partition's first invalid entry.
    */
  private final class Chunk(val byRow: Triples, val byCol: Triples, val firstInvalid: Option[Entry])
      extends Serializable

  /** One cached operator partition: its two CSRs and the first invalid entry
    * among the chunks it received.
    */
  private final class Part(val rows: Csr, val cols: Csr, val firstInvalid: Option[Entry]) extends Serializable

  private object Part {
    def apply(chunks: Array[Chunk]): Part =
      new Part(Csr(chunks.map(_.byRow)), Csr(chunks.map(_.byCol)), chunks.flatMap(_.firstInvalid).minOption)
  }

  /** One chunk per operator partition from the edge rows `(row, col, w)`. */
  private def split(edges: Iterator[Row], p: Partitioner): Iterator[(Int, Chunk)] = {
    final class Buf {
      val key, other = new mutable.ArrayBuilder.ofLong
      val w = new mutable.ArrayBuilder.ofDouble
      def result = new Triples(key.result(), other.result(), w.result())
    }
    val byRow, byCol = Array.fill(p.numPartitions)(new Buf)
    var bad = Option.empty[Entry]
    def invalid(e: Entry): Unit = if (bad.forall(Entry.order.lt(e, _))) bad = Some(e)
    edges.foreach { x =>
      if (x.isNullAt(0) || x.isNullAt(1) || x.isNullAt(2))
        invalid(Entry(Option(x.get(0)).map(_.asInstanceOf[Long]), Option(x.get(1)).map(_.asInstanceOf[Long]),
                      Option(x.get(2)).map(_.asInstanceOf[Double])))
      else {
        val r = x.getLong(0); val c = x.getLong(1); val w = x.getDouble(2)
        if (!Entry.valid(r, c, w)) invalid(Entry(Some(r), Some(c), Some(w)))
        val br = byRow(p.getPartition(r)); br.key += r; br.other += c; br.w += w
        val bc = byCol(p.getPartition(c)); bc.key += c; bc.other += r; bc.w += w
      }
    }
    Iterator.tabulate(p.numPartitions)(i => (i, new Chunk(byRow(i).result, byCol(i).result, if (i == 0) bad else None)))
  }

  /** The partial sums that map partition `src` sends one reduce
    * partition: a slab of the output rows it reached there, ids ascending.
    */
  private[linalg] final class Partial(val src: Int, val sums: Slab) extends Serializable

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

    /** For each of the ascending `ids`, its index in `rowIds`, found by a
      * merge of the two.
      *
      * @throws IllegalArgumentException if an id is not a row of the slice
      */
    def indexOf(ids: Array[Long]): Array[Int] = {
      val at = new Array[Int](ids.length)
      var i = 0
      var r = 0
      while (r < ids.length) {
        while (i < rowIds.length && rowIds(i) < ids(r)) i += 1
        require(i < rowIds.length && rowIds(i) == ids(r), s"row ${ids(r)} of the block is not a row of the matrix")
        at(r) = i
        r += 1
      }
      at
    }

    /** Partial sums `Σ_r w(r,c) · d_r^pow · y[r]` over this slice's rows
      * present in `y`, one row per column reached from them, as one
      * [[Partial]] per reduce partition of `p` that a column falls in.
      *
      * `y`'s rows are lined up with the slice's rows by a merge (both
      * ascend). Each reduce partition gets its own accumulator, which
      * becomes the partial's slab as it is when every one of its columns is
      * reached; a column adds its terms in row order, then entry order.
      */
    def times(y: Slab, pow: Double, p: Partitioner, src: Int): Iterator[(Int, Partial)] = {
      val width = y.width
      // Column c is row pos(c) of reduce partition dst(c)'s accumulator.
      val dst = new Array[Int](colIds.length); val pos = new Array[Int](colIds.length)
      val count = new Array[Int](p.numPartitions)
      var c = 0
      while (c < colIds.length) {
        val d = p.getPartition(colIds(c))
        dst(c) = d; pos(c) = count(d); count(d) += 1
        c += 1
      }
      val acc = new Array[Array[Double]](p.numPartitions)
      val reached = new Array[Boolean](colIds.length)
      var i = 0 // row of the slice
      var r = 0 // row of y
      while (r < y.size) {
        while (i < rowIds.length && rowIds(i) < y.ids(r)) i += 1
        if (i < rowIds.length && rowIds(i) == y.ids(r)) {
          val s = degreePow(i, pow)
          val yo = r * width
          var e = rowPtr(i)
          while (e < rowPtr(i + 1)) {
            val col = colIdx(e); val we = w(e) * s
            val d = dst(col)
            if (acc(d) == null) acc(d) = new Array[Double](count(d) * width)
            val a = acc(d); val base = pos(col) * width
            var j = 0
            while (j < width) { a(base + j) += we * y.values(yo + j); j += 1 }
            reached(col) = true
            e += 1
          }
        }
        r += 1
      }
      Iterator.range(0, p.numPartitions).filter(acc(_) != null).map { d =>
        val cs = Iterator.range(0, colIds.length).filter(c => dst(c) == d && reached(c)).toArray
        val sums =
          if (cs.length == count(d)) acc(d)
          else {
            val out = new Array[Double](cs.length * width)
            cs.indices.foreach(k => System.arraycopy(acc(d), pos(cs(k)) * width, out, k * width, width))
            out
          }
        (d, new Partial(src, new Slab(cs.map(colIds), width, sums)))
      }
    }
  }

  private[linalg] object Csr {

    /** The CSR of the entries of all `parts`, rows keyed by `key`, in
      * `(row, col, w)` order whatever order the parts come in: a counting
      * sort by row, a primitive sort of `(column index << 32 | entry)` keys
      * within each row, and duplicate `(row, col)` pairs by weight in
      * `Double` total order.
      */
    def apply(parts: Array[Triples]): Csr = {
      val r = concat(parts.map(_.key))
      val c = concat(parts.map(_.other))
      val w = concat(parts.map(_.w))
      val rowIds = distinctSorted(r); val colIds = distinctSorted(c)
      val rowOf = r.map(Arrays.binarySearch(rowIds, _))
      val rowPtr = new Array[Int](rowIds.length + 1)
      rowOf.foreach(i => rowPtr(i + 1) += 1)
      var i = 0
      while (i < rowIds.length) { rowPtr(i + 1) += rowPtr(i); i += 1 }
      val next = Arrays.copyOf(rowPtr, rowIds.length)
      val keys = new Array[Long](r.length)
      var e = 0
      while (e < r.length) {
        val i = rowOf(e)
        keys(next(i)) = (Arrays.binarySearch(colIds, c(e)).toLong << 32) | e
        next(i) += 1
        e += 1
      }
      val colIdx = new Array[Int](r.length); val ws = new Array[Double](r.length)
      i = 0
      while (i < rowIds.length) {
        val end = rowPtr(i + 1)
        Arrays.sort(keys, rowPtr(i), end)
        e = rowPtr(i)
        while (e < end) { colIdx(e) = (keys(e) >>> 32).toInt; ws(e) = w(keys(e).toInt); e += 1 }
        var s = rowPtr(i)
        while (s < end) {
          var t = s + 1
          while (t < end && colIdx(t) == colIdx(s)) t += 1
          if (t - s > 1) Arrays.sort(ws, s, t)
          s = t
        }
        i += 1
      }
      new Csr(rowIds, rowPtr, colIds, colIdx, ws)
    }
  }

  /** The distinct values of `a`, ascending. */
  private def distinctSorted(a: Array[Long]): Array[Long] = {
    val s = a.clone()
    Arrays.sort(s)
    var n = 0
    var i = 0
    while (i < s.length) { if (n == 0 || s(i) != s(n - 1)) { s(n) = s(i); n += 1 }; i += 1 }
    Arrays.copyOf(s, n)
  }

  /** One slab from the partials a reduce partition received: each output
    * row is the sum of its partial sums in the order of their source
    * partitions (the first copied, the others added), ids ascending; with
    * `pow != 0`, row `id` is then scaled by the `pow`-th power of its row
    * sum in `csr`, the copy that holds it.
    */
  private def combine(it: Iterator[(Int, Partial)], csr: Csr, pow: Double): Iterator[Slab] = {
    val parts = it.map(_._2).toArray.sortBy(_.src).map(_.sums)
    val ids = distinctSorted(concat(parts.map(_.ids)))
    val width = parts.headOption.fold(0)(_.width)
    val out = new Array[Double](ids.length * width)
    val filled = new Array[Boolean](ids.length)
    parts.foreach { s =>
      var k = 0
      var r = 0
      while (r < s.size) {
        while (ids(k) < s.ids(r)) k += 1
        val (from, to) = (r * width, k * width)
        if (filled(k)) { var j = 0; while (j < width) { out(to + j) += s.values(from + j); j += 1 } }
        else { System.arraycopy(s.values, from, out, to, width); filled(k) = true }
        r += 1
      }
    }
    if (pow != 0.0) {
      val at = csr.indexOf(ids)
      var k = 0
      while (k < ids.length) {
        val s = csr.degreePow(at(k), pow)
        var j = k * width
        while (j < (k + 1) * width) { out(j) *= s; j += 1 }
        k += 1
      }
    }
    Iterator.single(new Slab(ids, width, out))
  }

  private def concat[T: ClassTag](parts: Array[Array[T]]): Array[T] =
    Array.concat(ArraySeq.unsafeWrapArray(parts): _*)

  /** Gram matrix `XᵀX` of a block, collected to the driver. */
  def gram(x: Rows): Local.Mat = gram(x, -1)

  /** Gram matrix of the first `n` columns of a block (all for `n < 0`). */
  private[linalg] def gram(x: Rows, n: Int): Local.Mat =
    Block.symGram(x.mapPartitions(s => Block.upperGram(s.next(), n)).collect())

  /** `f(x, y, at)` on each partition's slabs of two co-partitioned blocks,
    * where `at(i)` is the row of `y` with the id of row `i` of `x`, or −1.
    */
  def zipRows(x: Rows, y: Rows)(f: (Slab, Slab, Array[Int]) => Slab): Rows =
    x.zipPartitions(y, preservesPartitioning = true) { (xs, ys) =>
      val (a, b) = (xs.next(), ys.next())
      val at = new Array[Int](a.size)
      var k = 0
      var i = 0
      while (i < a.size) {
        while (k < b.size && b.ids(k) < a.ids(i)) k += 1
        at(i) = if (k < b.size && b.ids(k) == a.ids(i)) k else -1
        i += 1
      }
      Iterator.single(f(a, b, at))
    }

  /** `[x | y]`: the rows of `x` with the rows of equal id in the
    * co-partitioned block `y` appended, zeros where `y` has none.
    */
  def hcat(x: Rows, y: Rows): Rows = zipRows(x, y) { (a, b, at) =>
    val w = a.width + b.width
    val out = new Array[Double](a.size * w)
    var i = 0
    while (i < a.size) {
      System.arraycopy(a.values, i * a.width, out, i * w, a.width)
      if (at(i) >= 0) System.arraycopy(b.values, at(i) * b.width, out, i * w + a.width, b.width)
      i += 1
    }
    new Slab(a.ids, w, out)
  }

  /** Right-multiply every row by a local matrix: `out_i = x_i · M`; a row
    * k times as wide as M has rows is split into k slices, each multiplied.
    * `M` (at most a few hundred KB) travels in the task closure, so nothing
    * outlives the call.
    */
  def timesLocal(x: Rows, m: Local.Mat): Rows = mapSlabs(x)(Slab.times(_, m))

  /** Every row L2-normalised; zero rows stay zero. */
  def normalizeRows(x: Rows): Rows = mapSlabs(x)(Slab.normalizeRows)

  /** `f` on every partition's slab, keeping the partitioning. */
  def mapSlabs(x: Rows)(f: Slab => Slab): Rows =
    x.mapPartitions(s => Iterator.single(f(s.next())), preservesPartitioning = true)

  /** `x` as a local checkpoint, filled by one job (a `count`): how a stage
    * hands a block (or an assignment, [[Block.assignments]]) on. The owner
    * releases it with `unpersist()`.
    */
  def materialize[T](x: RDD[T]): RDD[T] = {
    x.localCheckpoint()
    x.count()
    x
  }

  /** The block's rows as a `Dataset[BRow]`, for the benchmark's signatures. */
  def toDataset(x: RDD[Slab]): Dataset[BRow] = {
    val spark = SparkSession.active
    import spark.implicits._
    spark.createDataset(x.flatMap(_.brows))
  }
}
