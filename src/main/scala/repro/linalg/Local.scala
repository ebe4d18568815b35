package repro.linalg

import breeze.linalg.{DenseMatrix, cholesky, eigSym, svd}

/** Local (driver-side) dense linear algebra on small β×β / k×k matrices.
  *
  * The distributed algorithms in this repo only ever need local algebra on
  * matrices whose side is the low-rank dimension (β = 5k typically), so a
  * row-major `Array[Array[Double]]` interface is enough. Breeze (which ships
  * inside the Spark binary distribution) backs the decompositions.
  */
object Local {

  /** Row-major dense matrix. */
  type Mat = Array[Array[Double]]

  def zeros(rows: Int, cols: Int): Mat = Array.fill(rows)(new Array[Double](cols))

  def eye(n: Int): Mat = {
    val m = zeros(n, n)
    var i = 0
    while (i < n) { m(i)(i) = 1.0; i += 1 }
    m
  }

  def transpose(a: Mat): Mat = {
    val r = a.length; val c = if (r == 0) 0 else a(0).length
    val t = zeros(c, r)
    var i = 0
    while (i < r) { var j = 0; while (j < c) { t(j)(i) = a(i)(j); j += 1 }; i += 1 }
    t
  }

  def matmul(a: Mat, b: Mat): Mat = {
    val n = a.length; val m = b(0).length; val inner = b.length
    require(a(0).length == inner, s"shape mismatch ${a(0).length} vs $inner")
    val out = zeros(n, m)
    var i = 0
    while (i < n) {
      var l = 0
      while (l < inner) {
        val ail = a(i)(l)
        if (ail != 0.0) {
          val brow = b(l); val orow = out(i)
          var j = 0
          while (j < m) { orow(j) += ail * brow(j); j += 1 }
        }
        l += 1
      }
      i += 1
    }
    out
  }

  /** `v · M` for a row vector: returns length-cols(M) array. */
  def vecMat(v: Array[Double], m: Mat): Array[Double] = {
    val cols = m(0).length
    val out = new Array[Double](cols)
    var i = 0
    while (i < v.length) {
      val vi = v(i)
      if (vi != 0.0) {
        val row = m(i)
        var j = 0
        while (j < cols) { out(j) += vi * row(j); j += 1 }
      }
      i += 1
    }
    out
  }

  def add(a: Mat, b: Mat): Mat =
    a.zip(b).map { case (ra, rb) => ra.zip(rb).map { case (x, y) => x + y } }

  def scale(a: Mat, s: Double): Mat = a.map(_.map(_ * s))

  def frobenius(a: Mat): Double =
    math.sqrt(a.iterator.map(r => r.iterator.map(x => x * x).sum).sum)

  def maxAbsDiff(a: Mat, b: Mat): Double =
    a.zip(b).iterator
      .map { case (ra, rb) => ra.zip(rb).iterator.map { case (x, y) => math.abs(x - y) }.max }
      .max

  private def toBreeze(a: Mat): DenseMatrix[Double] = {
    val n = a.length; val m = a(0).length
    val dm = DenseMatrix.zeros[Double](n, m)
    var i = 0
    while (i < n) { var j = 0; while (j < m) { dm(i, j) = a(i)(j); j += 1 }; i += 1 }
    dm
  }

  private def fromBreeze(dm: DenseMatrix[Double]): Mat = {
    val out = zeros(dm.rows, dm.cols)
    var i = 0
    while (i < dm.rows) { var j = 0; while (j < dm.cols) { out(i)(j) = dm(i, j); j += 1 }; i += 1 }
    out
  }

  /** Eigendecomposition of a symmetric matrix: `(V, λ)` with eigenvalues in
    * DESCENDING order, eigenvectors as COLUMNS of `V` (so `A = V diag(λ) Vᵀ`).
    * The input is symmetrised defensively (`(A+Aᵀ)/2`).
    */
  def symEigDesc(a: Mat): (Mat, Array[Double]) = {
    val n = a.length
    val sym = DenseMatrix.zeros[Double](n, n)
    var i = 0
    while (i < n) {
      var j = 0
      while (j < n) { sym(i, j) = 0.5 * (a(i)(j) + a(j)(i)); j += 1 }
      i += 1
    }
    val es = eigSym(sym)
    val order = (0 until n).sortBy(j => -es.eigenvalues(j))
    val vecs = zeros(n, n)
    val vals = new Array[Double](n)
    for ((src, dst) <- order.zipWithIndex) {
      vals(dst) = es.eigenvalues(src)
      var r = 0
      while (r < n) { vecs(r)(dst) = es.eigenvectors(r, src); r += 1 }
    }
    (vecs, vals)
  }

  /** Upper-triangular Cholesky factor `R` with `A = Rᵀ R` (A must be SPD). */
  def choleskyUpper(a: Mat): Mat = {
    val l = cholesky(toBreeze(a)) // lower: A = L Lᵀ
    fromBreeze(l.t)
  }

  /** Inverse of an upper-triangular matrix by back substitution. */
  def invUpper(r: Mat): Mat = {
    val n = r.length
    val inv = zeros(n, n)
    var col = 0
    while (col < n) {
      inv(col)(col) = 1.0 / r(col)(col)
      var i = col - 1
      while (i >= 0) {
        var s = 0.0
        var j = i + 1
        while (j <= col) { s += r(i)(j) * inv(j)(col); j += 1 }
        inv(i)(col) = -s / r(i)(i)
        i -= 1
      }
      col += 1
    }
    inv
  }

  /** Full SVD `A = U diag(s) Vᵀ` of a small dense matrix.
    * Returns `(U, s, V)` — note V, not Vᵀ. Singular values descending.
    */
  def svdSmall(a: Mat): (Mat, Array[Double], Mat) = {
    val r = svd(toBreeze(a))
    val k = r.singularValues.length
    val u = fromBreeze(r.leftVectors(::, 0 until k).toDenseMatrix)
    val vt = fromBreeze(r.rightVectors(0 until k, ::).toDenseMatrix)
    (u, r.singularValues.toArray, transpose(vt))
  }

  /** SplitMix64 finaliser — deterministic per-(seed,id) stream seeds. */
  def mix(z0: Long): Long = {
    var z = z0 + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Deterministic gaussian vector for a given (seed, id). */
  def gaussianVec(seed: Long, id: Long, dim: Int): Array[Double] = {
    val out = new Array[Double](dim)
    gaussianInto(seed, id, dim, out, 0)
    out
  }

  /** [[gaussianVec]] written into `out(off until off + dim)`. */
  def gaussianInto(seed: Long, id: Long, dim: Int, out: Array[Double], off: Int): Unit = {
    val rng = new java.util.Random(mix(seed ^ mix(id)))
    var i = 0
    while (i < dim) { out(off + i) = rng.nextGaussian(); i += 1 }
  }

  /** Deterministic ±1/sqrt(dim) Rademacher vector for a given (seed, id). */
  def rademacherVec(seed: Long, id: Long, dim: Int): Array[Double] = {
    val out = new Array[Double](dim)
    rademacherInto(seed, id, dim, out, 0)
    out
  }

  /** [[rademacherVec]] written into `out(off until off + dim)`. */
  def rademacherInto(seed: Long, id: Long, dim: Int, out: Array[Double], off: Int): Unit = {
    val rng = new java.util.Random(mix(seed ^ mix(id)))
    val s = 1.0 / math.sqrt(dim.toDouble)
    var i = 0
    while (i < dim) { out(off + i) = if (rng.nextBoolean()) s else -s; i += 1 }
  }

  def l2(v: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < v.length) { s += v(i) * v(i); i += 1 }
    math.sqrt(s)
  }

  def addInPlace(acc: Array[Double], v: Array[Double]): Array[Double] = {
    var i = 0
    while (i < acc.length) { acc(i) += v(i); i += 1 }
    acc
  }

  def axpy(a: Double, x: Array[Double]): Array[Double] = {
    val out = new Array[Double](x.length)
    var i = 0
    while (i < x.length) { out(i) = a * x(i); i += 1 }
    out
  }

  def sqDist(a: Array[Double], b: Array[Double]): Double = sqDist(a, 0, a.length, b)

  /** `out(oo + q) = sqDist(a(ao until ao + n), b_q)` for the 4 vectors
    * `b_0 … b_3`, each sum adding its terms in the order of `sqDist`
    * (`(x − y)²` and `(y − x)²` are the same double), with one load of `a`
    * feeding all 4.
    */
  def sqDist4(a: Array[Double], ao: Int, n: Int,
              b0: Array[Double], b1: Array[Double], b2: Array[Double], b3: Array[Double],
              out: Array[Double], oo: Int): Unit = {
    var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
    var i = 0
    while (i < n) {
      val x = a(ao + i)
      val d0 = x - b0(i); val d1 = x - b1(i); val d2 = x - b2(i); val d3 = x - b3(i)
      s0 += d0 * d0; s1 += d1 * d1; s2 += d2 * d2; s3 += d3 * d3
      i += 1
    }
    out(oo) = s0; out(oo + 1) = s1; out(oo + 2) = s2; out(oo + 3) = s3
  }

  /** `sqDist` of `a(ao until ao + n)` and `b`. */
  def sqDist(a: Array[Double], ao: Int, n: Int, b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < n) { val d = a(ao + i) - b(i); s += d * d; i += 1 }
    s
  }

  def argmax(v: Array[Double]): Int = argmax(v, 0, v.length)

  /** Index in `0 until n` of the first maximum of `v(off until off + n)`. */
  def argmax(v: Array[Double], off: Int, n: Int): Int = {
    var best = 0; var i = 1
    while (i < n) { if (v(off + i) > v(off + best)) best = i; i += 1 }
    best
  }
}
