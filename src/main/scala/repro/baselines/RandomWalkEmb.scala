package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{BipartiteGraph, KMeansD}
import repro.linalg.{Local, Slab, SparseOp}
import repro.linalg.SparseOp.Rows

/** Random-walk proximity baselines: PPR [56] and NRP [64].
  *
  * Both cluster per-node personalised-PageRank-style proximity vectors. The
  * full Π matrix is |U∪V|² — we sketch it with a signed random projection R:
  * `Z = Σ_t (1-α) α^t P_full^t R` computed by the power recurrence
  * `Z_{t+1} = (1-α)R + α P Z_t`, exactly the PPR geometry each method's
  * k-means sees (DESIGN.md §2). NRP additionally reweights by √degree, the
  * spirit of its PPR reweighting.
  *
  * On a bipartite graph `P_full = [[0, D_u⁻¹A], [D_v⁻¹Aᵀ, 0]]`, so the U
  * half of `Z_t` reads only the V half of `Z_{t-1}` and vice versa: the U
  * rows after an even number of steps come from one alternating chain
  * U → V → U → … of products with the two views of the graph's operator.
  */
object RandomWalkEmb {

  private val SketchDim = 64
  // Decay 0.5 keeps the PPR mass local (FORA-style restart probabilities);
  // larger decay blurs cluster structure into the stationary distribution.
  private val Alpha = 0.5
  private val Steps = 8 // even: the chain ends on the U side

  /** The U rows of `Z_Steps − (1-α)R`, each scaled by `d_u^(1+uPow)`, read
    * from the graph's operator `a`.
    *
    * The restart term of a step is `(1-α)R` with R's rows a pure function of
    * (side, seed, id), drawn where they are added. Dropping the final
    * self-restart term `(1-α)·R_u` leaves `α D_u⁻¹A Z_V`: its i.i.d. random
    * vectors would dominate pairwise distances and drown the neighbourhood
    * signal — the sketch then approximates the OFF-diagonal PPR mass, which
    * is what the clustering actually compares. `uPow` is the row power of
    * that last product (−1 for `D_u⁻¹A`).
    */
  private def pprSketch(a: SparseOp, seed: Long, uPow: Double): Rows = {
    // A function value, not a method: task closures must not capture this object.
    val r = (side: Long, id: Long, out: Array[Double], off: Int) =>
      Local.rademacherInto(seed + side, id, SketchDim, out, off)
    // z ↦ (1-α)·R + α·z per row, R of the given side.
    def restart(side: Long)(z: Rows): Rows = SparseOp.mapSlabs(z) { s =>
      Slab.tabulate(s.ids, SketchDim) { (id, out, o) =>
        r(side, id, out, o)
        var i = o
        while (i < o + SketchDim) { out(i) = (1 - Alpha) * out(i) + Alpha * s.values(i); i += 1 }
      }
    }
    val toV = a.scaled(0.0, -1.0) // mul: D_v⁻¹Aᵀ, from U rows to V rows
    val toU = a.scaled(-1.0, 0.0) // mulT: D_u⁻¹A, from V rows to U rows
    var z = a.block(SketchDim)(r(0L, _, _, _))
    var t = 1
    while (t < Steps) {
      z = if (t % 2 == 1) restart(1L)(toV.mul(z)) else restart(0L)(toU.mulT(z))
      t += 1
    }
    SparseOp.mapSlabs(a.scaled(uPow, 0.0).mulT(z))(_.mapRows(SketchDim) { (x, o, out, p) =>
      var i = 0
      while (i < SketchDim) { out(p + i) = Alpha * x(o + i); i += 1 }
    })
  }

  /** PPR: k-means over sketched PPR vectors of the U side. */
  object PPR extends Baseline {
    val name = "PPR"
    override def feasible(paperEdges: Long, k: Int): Boolean = paperEdges <= 4000000L // paper: "-" on MIND and larger

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame =
      BipartiteGraph.withOperator(edges) { a =>
        BipartiteGraph.requireClusters(a, k)
        val sketch = SparseOp.normalizeRows(pprSketch(a, seed, uPow = -1.0))
        KMeansD.run(SparseOp.toDataset(sketch), k, seed = seed)
      }
  }

  /** NRP: degree-reweighted PPR embedding (survives all datasets in paper):
    * the U rows scaled by `√d_u`, i.e. a last product with `D_u^{-1/2}A`.
    */
  object NRP extends Baseline {
    val name = "NRP"

    // No row normalisation: NRP's reweighting keeps the degree magnitude.
    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame =
      BipartiteGraph.withOperator(edges) { a =>
        BipartiteGraph.requireClusters(a, k)
        KMeansD.run(SparseOp.toDataset(pprSketch(a, seed, uPow = -0.5)), k, seed = seed)
      }
  }
}
