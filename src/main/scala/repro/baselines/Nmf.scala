package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.BipartiteGraph
import repro.linalg.{Block, Local, SparseOp}
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

  def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame = {
    import spark.implicits._
    BipartiteGraph.withOperator(edges) { a =>
      def positive(s: Long)(id: Long) = Local.gaussianVec(s, id, k).map(x => math.abs(x) + 0.1)
      val eps = 1e-9
      def update(x: Rows, num: Rows, gram: Local.Mat): Rows =
        SparseOp.zipRows(x, num)(muUpdate(_, _, gram, eps)).persist(SparseOp.Level)
      var w = a.block(positive(seed)).persist(SparseOp.Level)
      var h = a.t.block(positive(seed + 1)).persist(SparseOp.Level)
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
      val out = Block.localize(w.map { case (id, v) => (id, Local.argmax(v)) }.toDF("id", "cluster"))
      (w :: h :: prevH.toList).foreach(_.unpersist())
      out
    }
  }

  /** One multiplicative update of a factor row: `x ∘ num / (x·G + ε)`. */
  private def muUpdate(x: Array[Double], num: Array[Double],
                       gram: Local.Mat, eps: Double): Array[Double] = {
    val den = Local.vecMat(x, gram)
    val out = new Array[Double](x.length)
    var i = 0
    while (i < x.length) {
      val n = if (num == null) 0.0 else num(i)
      out(i) = math.max(x(i) * n / (den(i) + eps), 1e-12)
      i += 1
    }
    out
  }
}
