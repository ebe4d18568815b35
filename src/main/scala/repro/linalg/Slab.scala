package repro.linalg

import java.util.Arrays

/** Rows of a dense block held as one flat array: row `i` has id `ids(i)`
  * and the `width` values `values(i·width until (i+1)·width)`.
  *
  * A distributed block keeps one slab per partition, so Spark caches,
  * sizes and shuffles one object per partition instead of one per row.
  * In a [[SparseOp.Rows]] block the ids ascend; a slab built from a
  * Dataset's partition keeps that partition's row order. An empty slab's
  * width is that of its block where the kernel knows it, 0 otherwise.
  */
final class Slab(val ids: Array[Long], val width: Int, val values: Array[Double]) extends Serializable {
  require(values.length == ids.length * width,
    s"a slab of ${ids.length} rows of width $width holds ${values.length} values")

  def size: Int = ids.length

  /** A copy of row `i`. */
  def row(i: Int): Array[Double] = Arrays.copyOfRange(values, i * width, (i + 1) * width)

  /** The rows as `BRow`s, each a copy. */
  def brows: Iterator[BRow] = Iterator.range(0, size).map(i => BRow(ids(i), row(i)))

  /** The same ids with `f(row)` of width `w` written into a new slab at
    * `(values, offset)` by `f(in, inOffset, out, outOffset)`.
    */
  def mapRows(w: Int)(f: (Array[Double], Int, Array[Double], Int) => Unit): Slab = {
    val out = new Array[Double](size * w)
    var i = 0
    while (i < size) { f(values, i * width, out, i * w); i += 1 }
    new Slab(ids, w, out)
  }
}

/** Kernels on slabs. The blocked ones work on 4 rows (or 4 centres) at a
  * time so that one loaded operand feeds 4 independent sums, and add the
  * terms of every output entry in the order of the row-at-a-time loop they
  * replace, so for finite inputs their results are bit-identical to it.
  * Where that loop skipped a zero factor, the blocked kernel adds the term
  * instead: `0 · m` is ±0 for finite m, and a sum that starts at +0.0 can
  * never become −0.0, so adding ±0 leaves it unchanged.
  */
object Slab {

  /** The rows of `it` in iteration order, copied into one slab. */
  def of(it: Iterator[BRow]): Slab = {
    val rows = it.toArray
    if (rows.isEmpty) return new Slab(Array.emptyLongArray, 0, Array.emptyDoubleArray)
    val width = rows(0).vec.length
    val values = new Array[Double](rows.length * width)
    var i = 0
    while (i < rows.length) {
      val v = rows(i).vec
      require(v.length == width, s"row ${rows(i).id} has width ${v.length}, not $width")
      System.arraycopy(v, 0, values, i * width, width)
      i += 1
    }
    new Slab(rows.map(_.id), width, values)
  }

  /** A slab over `ids` whose row `id` is written by `fill(id, values, offset)`. */
  def tabulate(ids: Array[Long], width: Int)(fill: (Long, Array[Double], Int) => Unit): Slab = {
    val values = new Array[Double](ids.length * width)
    var i = 0
    while (i < ids.length) { fill(ids(i), values, i * width); i += 1 }
    new Slab(ids, width, values)
  }

  /** The upper triangle (i ≤ j) of the Gram `Σ x xᵀ` over the first `n`
    * columns of `s`'s rows, added into the flat row-major `acc`: each entry
    * adds its products in row order, as [[Block.symGram]] expects.
    */
  def upperGramInto(s: Slab, n: Int, acc: Array[Double]): Unit = {
    val x = s.values; val w = s.width
    var r = 0
    while (r + 4 <= s.size) {
      val a = r * w; val b = a + w; val c = b + w; val d = c + w
      var i = 0
      while (i < n) {
        val x0 = x(a + i); val x1 = x(b + i); val x2 = x(c + i); val x3 = x(d + i)
        if (x0 != 0.0 || x1 != 0.0 || x2 != 0.0 || x3 != 0.0) {
          val base = i * n
          var j = i
          while (j < n) {
            var t = acc(base + j)
            t += x0 * x(a + j); t += x1 * x(b + j); t += x2 * x(c + j); t += x3 * x(d + j)
            acc(base + j) = t
            j += 1
          }
        }
        i += 1
      }
      r += 4
    }
    while (r < s.size) {
      val a = r * w
      var i = 0
      while (i < n) {
        val xi = x(a + i)
        if (xi != 0.0) {
          val base = i * n
          var j = i
          while (j < n) { acc(base + j) += xi * x(a + j); j += 1 }
        }
        i += 1
      }
      r += 1
    }
  }

  /** `x · M` for the rows of a row-major array, 4 rows at a time into 4
    * reused scratch rows: row r of the input is `x(off + r·stride + i)`,
    * `i < M.length`. Every entry adds its terms in the order of
    * [[Local.vecMat]]. The scratch rows are separate arrays because the
    * JIT vectorises their inner loop; the same loop writing into one flat
    * output at 4 row offsets ran 4× slower.
    */
  final class Times(m: Local.Mat) {
    private val n = m.length
    val cols: Int = m(0).length
    /** Rows `0 until rows` of the last [[apply]]. */
    val out: Array[Array[Double]] = Array.fill(4)(new Array[Double](cols))

    /** `out(q) = x row (r0 + q) · M` for `q < rows`, `rows ≤ 4`. */
    def apply(x: Array[Double], off: Int, stride: Int, r0: Int, rows: Int): Unit = {
      val a = off + r0 * stride
      if (rows == 4) {
        val s0 = out(0); val s1 = out(1); val s2 = out(2); val s3 = out(3)
        Arrays.fill(s0, 0.0); Arrays.fill(s1, 0.0); Arrays.fill(s2, 0.0); Arrays.fill(s3, 0.0)
        val b = a + stride; val c = b + stride; val d = c + stride
        var i = 0
        while (i < n) {
          val x0 = x(a + i); val x1 = x(b + i); val x2 = x(c + i); val x3 = x(d + i)
          val mi = m(i)
          var j = 0
          while (j < cols) {
            val w = mi(j)
            s0(j) += x0 * w; s1(j) += x1 * w; s2(j) += x2 * w; s3(j) += x3 * w
            j += 1
          }
          i += 1
        }
      } else {
        var q = 0
        while (q < rows) {
          val s = out(q); val o = a + q * stride
          Arrays.fill(s, 0.0)
          var i = 0
          while (i < n) {
            val xi = x(o + i); val mi = m(i)
            var j = 0
            while (j < cols) { s(j) += xi * mi(j); j += 1 }
            i += 1
          }
          q += 1
        }
      }
    }
  }

  /** Each width-`m.length` slice of every row of `s`, starting at column
    * 0, times `m`: `s.width / m.length` slices side by side in each output
    * row.
    */
  def times(s: Slab, m: Local.Mat): Slab = {
    require(s.size == 0 || s.width % m.length == 0, s"rows of width ${s.width} do not split into ${m.length}-wide slices")
    val k = new Times(m)
    val slices = s.width / m.length
    val w = slices * k.cols
    val out = new Array[Double](s.size * w)
    var r = 0
    while (r < s.size) {
      val rows = math.min(4, s.size - r)
      var p = 0
      while (p < slices) {
        k(s.values, p * m.length, s.width, r, rows)
        var q = 0
        while (q < rows) { System.arraycopy(k.out(q), 0, out, (r + q) * w + p * k.cols, k.cols); q += 1 }
        p += 1
      }
      r += rows
    }
    new Slab(s.ids, w, out)
  }

  /** Column j of every row times `d(j)`. */
  def scaleCols(s: Slab, d: Array[Double]): Slab = s.mapRows(s.width) { (x, o, out, p) =>
    var j = 0
    while (j < s.width) { out(p + j) = x(o + j) * d(j); j += 1 }
  }

  /** Every row L2-normalised as `(1/‖x‖) · x`; zero rows stay zero. */
  def normalizeRows(s: Slab): Slab = s.mapRows(s.width) { (x, o, out, p) =>
    var sq = 0.0; var i = 0
    while (i < s.width) { sq += x(o + i) * x(o + i); i += 1 }
    val norm = math.sqrt(sq)
    if (norm == 0.0) System.arraycopy(x, o, out, p, s.width)
    else {
      val a = 1.0 / norm
      i = 0
      while (i < s.width) { out(p + i) = a * x(o + i); i += 1 }
    }
  }
}
