package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.linalg.Local

/** Degree-corrected bipartite stochastic block model baselines:
  * BiSBM-KL (Larremore et al. [32], Kernighan–Lin greedy moves) and
  * BiSBM-MCMC (Yen & Larremore [67], Metropolis label sampling).
  *
  * Both maximise the DC-SBM profile log-likelihood
  *   L = Σ_{r,s} m_rs · ln( m_rs / (κ_r · κ_s) )
  * over partitions of U into k groups and V into k groups, where m_rs is the
  * total edge weight between U-group r and V-group s and κ are group degree
  * sums. Like the reference implementations these are sequential; the paper
  * itself reports them only on graphs they can finish (BiSBM-MCMC takes a
  * week on MAG), so benches cap them exactly where the paper shows "-".
  */
object BiSbm {

  /** Mutable move-evaluation state shared by both optimisers. */
  private final class State(g: LocalBipartite, k: Int, seed: Long) {
    val rng = new java.util.Random(Local.mix(seed))
    val uLab: Array[Int] = Array.fill(g.nU)(rng.nextInt(k))
    val vLab: Array[Int] = Array.fill(g.nV)(rng.nextInt(k))
    val m: Array[Array[Double]] = Local.zeros(k, k) // m(r)(s): U-group r ↔ V-group s
    val kapU = new Array[Double](k)
    val kapV = new Array[Double](k)

    {
      var e = 0
      while (e < g.nEdges) {
        val r = uLab(g.us(e)); val s = vLab(g.vs(e)); val w = g.ws(e)
        m(r)(s) += w; kapU(r) += w; kapV(s) += w
        e += 1
      }
    }

    def logLik: Double = {
      var l = 0.0
      var r = 0
      while (r < k) {
        var s = 0
        while (s < k) {
          val x = m(r)(s)
          if (x > 0) l += x * math.log(x / (kapU(r) * kapV(s)))
          s += 1
        }
        r += 1
      }
      l
    }

    /** Weighted edge ends of one U vertex grouped by the V-side's group. */
    def uEndWeights(u: Int): Array[Double] = {
      val out = new Array[Double](k)
      val adj = g.uAdj(u); val w = g.uAdjW(u)
      var i = 0
      while (i < adj.length) { out(vLab(adj(i))) += w(i); i += 1 }
      out
    }

    def vEndWeights(v: Int): Array[Double] = {
      val out = new Array[Double](k)
      val adj = g.vAdj(v); val w = g.vAdjW(v)
      var i = 0
      while (i < adj.length) { out(uLab(adj(i))) += w(i); i += 1 }
      out
    }

    /** ΔL of moving U vertex u from its group to `to` (exact, local terms). */
    def deltaU(u: Int, to: Int, ends: Array[Double]): Double = {
      val from = uLab(u)
      if (to == from) return 0.0
      val du = ends.sum
      var delta = 0.0
      var s = 0
      while (s < k) {
        val e = ends(s)
        delta += h2(m(from)(s) - e, kapU(from) - du, kapV(s), m(from)(s), kapU(from), kapV(s)) +
                 h2(m(to)(s) + e,   kapU(to) + du,   kapV(s), m(to)(s),   kapU(to),   kapV(s))
        s += 1
      }
      delta
    }

    def deltaV(v: Int, to: Int, ends: Array[Double]): Double = {
      val from = vLab(v)
      if (to == from) return 0.0
      val dv = ends.sum
      var delta = 0.0
      var r = 0
      while (r < k) {
        val e = ends(r)
        delta += h2(m(r)(from) - e, kapU(r), kapV(from) - dv, m(r)(from), kapU(r), kapV(from)) +
                 h2(m(r)(to) + e,   kapU(r), kapV(to) + dv,   m(r)(to),   kapU(r), kapV(to))
        r += 1
      }
      delta
    }

    /** Contribution difference of one (r,s) cell: new-term − old-term.
      * Note κ changes are handled per-cell because L's κ terms factor as
      * Σ_rs m_rs ln m_rs − Σ_rs m_rs ln κ_r − Σ_rs m_rs ln κ_s; we evaluate
      * the cell-local part exactly by recomputing both cells' terms.
      */
    private def h2(mNew: Double, kuNew: Double, kvNew: Double,
                   mOld: Double, kuOld: Double, kvOld: Double): Double = {
      def term(mm: Double, ku: Double, kv: Double): Double =
        if (mm > 1e-12 && ku > 1e-12 && kv > 1e-12) mm * math.log(mm / (ku * kv)) else 0.0
      term(mNew, kuNew, kvNew) - term(mOld, kuOld, kvOld)
    }

    def applyU(u: Int, to: Int, ends: Array[Double]): Unit = {
      val from = uLab(u)
      val du = ends.sum
      var s = 0
      while (s < k) { m(from)(s) -= ends(s); m(to)(s) += ends(s); s += 1 }
      kapU(from) -= du; kapU(to) += du
      uLab(u) = to
    }

    def applyV(v: Int, to: Int, ends: Array[Double]): Unit = {
      val from = vLab(v)
      val dv = ends.sum
      var r = 0
      while (r < k) { m(r)(from) -= ends(r); m(r)(to) += ends(r); r += 1 }
      kapV(from) -= dv; kapV(to) += dv
      vLab(v) = to
    }
  }

  private def shuffled(n: Int, rng: java.util.Random): Array[Int] = {
    val a = Array.tabulate(n)(identity)
    var i = n - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
    a
  }

  /** Greedy KL-style optimisation: sweep all vertices in random order, move
    * each to its best group if ΔL > 0; stop when a sweep makes no move.
    */
  object KL extends Baseline {
    val name = "BiSBM-KL"
    // paper: "-" on CORA-F (k=70 blows up KL) yet populated on LastFM (Asia);
    // cost scales with |E|·k, so feasibility does too.
    override def feasible(paperEdges: Long, k: Int): Boolean = paperEdges * k <= 60000000L

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame = {
      val g = LocalBipartite.collect(edges)
      val st = new State(g, k, seed)
      val orderU = shuffled(g.nU, st.rng)
      val orderV = shuffled(g.nV, st.rng)
      var pass = 0
      var moved = true
      while (moved && pass < 12) {
        moved = false
        orderU.foreach { u =>
          val ends = st.uEndWeights(u)
          var best = st.uLab(u); var bestD = 0.0
          var c = 0
          while (c < k) {
            val d = st.deltaU(u, c, ends)
            if (d > bestD + 1e-12) { bestD = d; best = c }
            c += 1
          }
          if (best != st.uLab(u)) { st.applyU(u, best, ends); moved = true }
        }
        orderV.foreach { v =>
          val ends = st.vEndWeights(v)
          var best = st.vLab(v); var bestD = 0.0
          var c = 0
          while (c < k) {
            val d = st.deltaV(v, c, ends)
            if (d > bestD + 1e-12) { bestD = d; best = c }
            c += 1
          }
          if (best != st.vLab(v)) { st.applyV(v, best, ends); moved = true }
        }
        pass += 1
      }
      LocalBipartite.toAssignDf(spark, st.uLab)
    }
  }

  /** Metropolis sampling of the same likelihood with neighbour-informed
    * proposals; keeps the best-likelihood labelling seen.
    */
  object MCMC extends Baseline {
    val name = "BiSBM-MCMC"
    override def feasible(paperEdges: Long, k: Int): Boolean = paperEdges <= 4000000L // paper: "-" on MIND and larger

    private val Sweeps = 30

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame = {
      val g = LocalBipartite.collect(edges)
      val st = new State(g, k, seed)
      var bestLik = st.logLik
      var bestU = st.uLab.clone()

      var sweep = 0
      while (sweep < Sweeps) {
        var i = 0
        while (i < g.nU + g.nV) {
          if (st.rng.nextInt(g.nU + g.nV) < g.nU) {
            val u = st.rng.nextInt(g.nU)
            val ends = st.uEndWeights(u)
            // Propose the group of a random 2-hop neighbour (or uniform).
            val prop =
              if (g.uAdj(u).nonEmpty && st.rng.nextDouble() < 0.8) {
                val v = g.uAdj(u)(st.rng.nextInt(g.uAdj(u).length))
                if (g.vAdj(v).nonEmpty) st.uLab(g.vAdj(v)(st.rng.nextInt(g.vAdj(v).length)))
                else st.rng.nextInt(k)
              } else st.rng.nextInt(k)
            val d = st.deltaU(u, prop, ends)
            if (d >= 0 || st.rng.nextDouble() < math.exp(d)) st.applyU(u, prop, ends)
          } else {
            val v = st.rng.nextInt(g.nV)
            val ends = st.vEndWeights(v)
            val prop =
              if (g.vAdj(v).nonEmpty && st.rng.nextDouble() < 0.8) {
                val u = g.vAdj(v)(st.rng.nextInt(g.vAdj(v).length))
                if (g.uAdj(u).nonEmpty) st.vLab(g.uAdj(u)(st.rng.nextInt(g.uAdj(u).length)))
                else st.rng.nextInt(k)
              } else st.rng.nextInt(k)
            val d = st.deltaV(v, prop, ends)
            if (d >= 0 || st.rng.nextDouble() < math.exp(d)) st.applyV(v, prop, ends)
          }
          i += 1
        }
        val lik = st.logLik
        if (lik > bestLik) { bestLik = lik; bestU = st.uLab.clone() }
        sweep += 1
      }
      LocalBipartite.toAssignDf(spark, bestU)
    }
  }
}
