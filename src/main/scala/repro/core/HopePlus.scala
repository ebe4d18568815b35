package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset}
import repro.linalg.{BRow, Block, Local, Slab, SparseOp}

/** HOPE+ (paper §4, Algorithms 2 and 3).
  *
  * Stage 1: the k-largest eigenvectors L of `H Hᵀ` are approximated by the
  * top-k left singular vectors of the low-rank X from HOPE (Lemma 4.3),
  * computed from the local β×β Gram of X — no |U|×|U| matrix is ever formed.
  *
  * Stage 2: greedy seeding of the cluster indicator C (argmax per row of L),
  * then alternating rounding between the k×k alignment T and C:
  *  - FNEM: `T = Φ Ψᵀ` where `Φ Σ Ψᵀ = SVD(Lᵀ C)` (Lemma 4.4, Procrustes;
  *    with a deterministic completion when a cluster is empty, see
  *    [[procrustes]]);
  *  - SNEM: `T = Lᵀ C`                                  (Lemma 4.5).
  * C's column normalisation (1/√|C_j|) is folded into the local `Lᵀ C`
  * computation; the returned result is the assignment `(id, cluster)`.
  *
  * Both stages work on one [[Slab]] per partition of the input's rows, in
  * its partition order; the products `L·T` are taken 4 rows at a time
  * ([[Slab.Times]]), each entry adding its terms in the order of
  * `Local.vecMat`.
  */
object HopePlus {

  sealed trait Urt { def name: String }
  case object Fnem extends Urt { val name = "FNEM" }
  case object Snem extends Urt { val name = "SNEM" }

  /** The cap on [[round]]'s rounds in [[run]] and the table harness. */
  private[repro] val MaxRounds = 30

  /** Top-k left singular vectors of the dense row-block X (|U|×β, β ≥ k):
    * eigen-decompose the β×β Gram `XᵀX` locally, keep the top-k right
    * singular directions W_k with singular values s, and rotate:
    * `L = X W_k diag(1/s)` — orthonormal columns by construction.
    *
    * Columns are sign-fixed (max-|·| entry positive, the first such entry
    * in partition order on a tie of magnitudes): the greedy seeding of
    * Algorithm 2 argmaxes over L's raw entries, which is only meaningful
    * under a deterministic sign convention — otherwise the all-positive
    * leading vector plus arbitrarily-signed contrasts collapse the seed
    * into one cluster.
    *
    * Two Spark jobs: `leftSingular/gram` for `XᵀX` and `leftSingular/signs`
    * for each column's extreme entry of `X W_k diag(1/s)`, each reading `x`.
    * The result keeps `x`'s partitions and is lazy; callers materialise it
    * (e.g. with [[SparseOp.materialize]]).
    */
  def leftSingular(x: RDD[Slab], k: Int): RDD[Slab] = {
    val sc = x.sparkContext
    val g = Block.labelJobs(sc, "leftSingular/gram")(SparseOp.gram(x))
    val (w, lam) = Local.symEigDesc(g)
    val rot = Local.zeros(g.length, k)
    var j = 0
    while (j < k) {
      val s = math.sqrt(math.max(lam(j), 1e-300))
      var i = 0
      while (i < g.length) { rot(i)(j) = w(i)(j) / s; i += 1 }
      j += 1
    }
    val l = SparseOp.mapSlabs(x)(Slab.times(_, rot))
    val extremes = Block.labelJobs(sc, "leftSingular/signs") {
      l.map { s =>
        val acc = new Array[Double](k)
        s.values.indices.foreach { e =>
          val j = e % k
          if (math.abs(s.values(e)) > math.abs(acc(j))) acc(j) = s.values(e)
        }
        acc
      }.collect().reduceLeft { (a, b) =>
        a.indices.foreach(j => if (math.abs(b(j)) > math.abs(a(j))) a(j) = b(j))
        a
      }
    }
    val signs = extremes.map(v => if (v < 0) -1.0 else 1.0)
    SparseOp.mapSlabs(l)(Slab.scaleCols(_, signs))
  }

  /** [[leftSingular]] of a Dataset's rows, as a lazy Dataset: the benchmark's signature. */
  def leftSingular(x: Dataset[BRow], k: Int): Dataset[BRow] =
    SparseOp.toDataset(leftSingular(Block.slabs(x), k))

  /** Rounding (Algorithm 3): alternate T and C updates until C is unchanged
    * or `maxRounds` iterations. Returns assignments `(id, cluster)`.
    */
  def round(l: RDD[Slab], k: Int, urt: Urt, maxRounds: Int): DataFrame =
    rounding(l, k, urt, maxRounds)._1

  /** [[round]] on a Dataset's rows: the benchmark's signature. */
  def round(l: Dataset[BRow], k: Int, urt: Urt, maxRounds: Int): DataFrame =
    round(Block.slabs(l), k, urt, maxRounds)

  /** [[round]], and the number of rounds it ran.
    *
    * Round t is one pass over L: it assigns every row to its argmax under
    * `T_t`, which gives `C_t`; counts the rows whose argmax under `T_{t−1}`
    * differs (the convergence test); and adds up `Lᵀ C_t`, which gives
    * `T_{t+1}`. The greedy seeding is the pass under `T_0 = I`. `l` is read
    * through a view this call persists and releases.
    */
  private[core] def rounding(l: RDD[Slab], k: Int, urt: Urt, maxRounds: Int): (DataFrame, Int) = {
    val sc = l.sparkContext
    val label = s"round.${urt.name.toLowerCase}"
    val rows = SparseOp.mapSlabs(l)(identity).persist(SparseOp.Level)
    try {
      // Greedy seeding (Lines 6–10, Alg. 2): argmax over L itself, i.e. T = I.
      var t = Local.eye(k)
      var rounds = 0
      if (maxRounds > 0) {
        var (m, sizes, _) = Block.labelJobs(sc, s"$label/seed")(pass(rows, t, null, k))
        var changed = -1L
        while (rounds < maxRounds && changed != 0L) {
          val prev = t
          t = urt match {
            case Fnem => procrustes(m, sizes, prev)
            case Snem => m
          }
          rounds += 1
          val (next, nextSizes, c) = Block.labelJobs(sc, s"$label/round $rounds")(pass(rows, t, prev, k))
          m = next
          sizes = nextSizes
          changed = c
        }
      }
      val tFinal = t
      val out = Block.labelJobs(sc, s"$label/assign")(Block.assignments(rows)(argmaxes(_, tFinal)))
      (out, rounds)
    } finally rows.unpersist()
  }

  /** FNEM's T for `LᵀC` (Lemma 4.4): the orthogonal polar factor `ΦΨᵀ` of
    * `Φ Σ Ψᵀ = SVD(Lᵀ C)`.
    *
    * An empty cluster makes its column of `LᵀC` zero, and the polar factor
    * of a singular matrix is not unique: the completion an SVD returns is
    * then decided by rounding noise, e.g. by the order in which partial sums
    * were added. So if some cluster size is 0 (a case the paper does not
    * discuss), the non-empty columns get the polar factor `U_r` of their own
    * columns of `LᵀC` — unique when they are independent — and the empty
    * columns the polar factor of `(I − U_r U_rᵀ) T_prev[:, empty]`, the
    * previous alignment of those clusters projected off `U_r`. Without empty
    * clusters this is the plain polar factor.
    */
  private def procrustes(ltc: Local.Mat, sizes: Array[Long], prev: Local.Mat): Local.Mat = {
    def polar(a: Local.Mat): Local.Mat = {
      val (phi, _, v) = Local.svdSmall(a)
      Local.matmul(phi, Local.transpose(v))
    }
    val (full, empty) = sizes.indices.partition(sizes(_) > 0)
    if (empty.isEmpty) polar(ltc)
    else {
      def columns(a: Local.Mat, js: Seq[Int]): Local.Mat = a.map(r => js.map(r(_)).toArray)
      val ur = polar(columns(ltc, full))
      val pe = columns(prev, empty)
      val fill = polar(Local.add(pe, Local.scale(Local.matmul(ur, Local.matmul(Local.transpose(ur), pe)), -1.0)))
      val t = Local.zeros(ltc.length, sizes.length)
      for (i <- t.indices) {
        full.indices.foreach(c => t(i)(full(c)) = ur(i)(c))
        empty.indices.foreach(c => t(i)(empty(c)) = fill(i)(c))
      }
      t
    }
  }

  /** One pass over the rows of L: `C = argmax` under `t` (Lines 8–11,
    * Alg. 3), and `Lᵀ C` as a local k×k matrix with C's 1/√|C_j|
    * normalisation applied — column j is `(Σ_{i ∈ C_j} L_i) / √|C_j|` —
    * together with the cluster sizes `|C_j|` and the number of rows whose
    * argmax under `prev` (if not null) differs. Per-partition partials are
    * added in partition order.
    */
  private def pass(rows: RDD[Slab], t: Local.Mat, prev: Local.Mat,
                   k: Int): (Local.Mat, Array[Long], Long) = {
    val parts = rows.map(passPartial(_, t, prev, k)).collect()
    val sums = Block.sumInOrder(parts.map(_._1))
    val sizes = Array.tabulate(k)(j => parts.map(_._2(j)).sum)
    val m = Local.zeros(k, k)
    (0 until k).foreach { j =>
      if (sizes(j) > 0) {
        val inv = 1.0 / math.sqrt(sizes(j).toDouble)
        var a = 0
        while (a < k) { m(a)(j) = sums(j * k + a) * inv; a += 1 }
      }
    }
    (m, sizes, parts.map(_._3).sum)
  }

  /** [[pass]] over the rows of one slab: the flat `sums(j·k + a)` =
    * `Σ_{i ∈ C_j} L_i(a)` added in row order, the cluster sizes and the
    * rows changed.
    */
  private[core] def passPartial(x: Slab, t: Local.Mat, prev: Local.Mat, k: Int): (Array[Double], Array[Long], Long) = {
    val sums = new Array[Double](k * k)
    val sizes = new Array[Long](k)
    val c = argmaxes(x, t)
    var changed = 0L
    if (prev != null) {
      val p = argmaxes(x, prev)
      var i = 0
      while (i < x.size) { if (p(i) != c(i)) changed += 1; i += 1 }
    }
    var i = 0
    while (i < x.size) {
      val j = c(i); val o = i * k
      var a = 0
      while (a < k) { sums(j * k + a) += x.values(o + a); a += 1 }
      sizes(j) += 1
      i += 1
    }
    (sums, sizes, changed)
  }

  /** `argmax(L_i · t)` for every row `L_i` of `x`, 4 rows at a time. */
  private def argmaxes(x: Slab, t: Local.Mat): Array[Int] = {
    val times = new Slab.Times(t)
    val out = new Array[Int](x.size)
    var r = 0
    while (r < x.size) {
      val rows = math.min(4, x.size - r)
      times(x.values, 0, x.width, r, rows)
      var q = 0
      while (q < rows) { out(r + q) = Local.argmax(times.out(q)); q += 1 }
      r += rows
    }
    out
  }

  /** Full HOPE+ for one rounding scheme, at most [[MaxRounds]] rounds. X
    * is HOPE's, so `params.kMeansIters` plays no part.
    */
  def run(edges: DataFrame, k: Int, urt: Urt, params: Hope.Params = Hope.Params()): DataFrame = {
    val x = BipartiteGraph.withOperator(edges)(Hope.embed(_, k, params))
    val l = try SparseOp.materialize(leftSingular(x, k)) finally x.unpersist()
    try round(l, k, urt, MaxRounds) finally l.unpersist()
  }
}
