package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.BipartiteGraph
import repro.linalg.{Block, Local, Slab, SparseOp}
import repro.linalg.SparseOp.Rows

/** NMF baseline [61]: rank-k non-negative factorisation `A ≈ W Hᵀ` by
  * distributed multiplicative updates; cluster(u) = argmax_j W[u,j].
  *
  *   W ← W ∘ (A H) / (W (HᵀH) + ε)
  *   H ← H ∘ (Aᵀ W) / (H (WᵀW) + ε)
  *
  * `A H` and `Aᵀ W` are products with the graph's operator, held for the
  * whole call, on blocks co-partitioned with it; the k×k Grams are local.
  * This is fully distributed — NMF is one of the few competitors that
  * survives the large datasets in the paper.
  */
object NmfBaseline extends Baseline {
  val name = "NMF"
  val iterations = 30

  def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame =
    BipartiteGraph.withOperator(edges) { a =>
      BipartiteGraph.requireClusters(a, k)
      def positive(s: Long)(id: Long, out: Array[Double], off: Int): Unit = {
        Local.gaussianInto(s, id, k, out, off)
        var i = off
        while (i < off + k) { out(i) = math.abs(out(i)) + 0.1; i += 1 }
      }
      val eps = 1e-9
      def update(x: Rows, num: Rows, gram: Local.Mat): Rows =
        SparseOp.zipRows(x, num)(muUpdate(_, _, _, gram, eps)).persist(SparseOp.Level)
      var w = a.block(k)(positive(seed)).persist(SparseOp.Level)
      var h = a.t.block(k)(positive(seed + 1)).persist(SparseOp.Level)
      var prevH = Option.empty[Rows] // read until the Gram of `h` has materialised it
      var t = 0
      while (t < iterations) {
        val hGram = SparseOp.gram(h) // HᵀH, k×k
        prevH.foreach(_.unpersist())
        val w2 = update(w, a.mulT(h), hGram) // A H
        val wGram = SparseOp.gram(w2)
        w.unpersist(); w = w2
        prevH = Some(h); h = update(h, a.mul(w), wGram) // Aᵀ W
        t += 1
      }
      val out = Block.assignments(w)(s => Array.tabulate(s.size)(i => Local.argmax(s.values, i * s.width, s.width)))
      (w :: h :: prevH.toList).foreach(_.unpersist())
      out
    }

  /** One multiplicative update of the factor rows of a slab,
    * `x ∘ num / (x·G + ε)`, with `at(i)` the row of `num` for row `i` of
    * `x` or −1 for a zero numerator.
    */
  private def muUpdate(x: Slab, num: Slab, at: Array[Int], gram: Local.Mat, eps: Double): Slab = {
    val den = Slab.times(x, gram).values
    val w = x.width
    val out = new Array[Double](x.values.length)
    var r = 0
    while (r < x.size) {
      var i = 0
      while (i < w) {
        val n = if (at(r) < 0) 0.0 else num.values(at(r) * num.width + i)
        out(r * w + i) = math.max(x.values(r * w + i) * n / (den(r * w + i) + eps), 1e-12)
        i += 1
      }
      r += 1
    }
    new Slab(x.ids, w, out)
  }
}
