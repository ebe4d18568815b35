package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.linalg.SparseOp

/** The paper's matrices over a weighted bipartite edge list.
  *
  * Edge DataFrames have columns `u: Long`, `v: Long`, `w: Double` with
  * positive weights. Every matrix the algorithms use is a degree scaling of
  * the biadjacency A, applied as a view of one [[SparseOp]] built from the
  * raw edges ([[operator]]):
  *
  *  - `P[i,j] = p(u_i, v_j) = w(u_i,v_j) / Σ_l w(u_i,v_l)`, `P = D_u⁻¹A` (Eq. 1)
  *  - `Q[j,i] = sqrt(p(v_j,u_i)·p(u_i,v_j)) = w / sqrt(du·dv)`,
  *    `Q = (D_u^{-1/2} A D_v^{-1/2})ᵀ`                            (Table 1)
  *
  * and the WPG weight matrix is `W_V = Q Qᵀ` (Eq. 4) — only ever used in
  * operator form, never materialised. The edge lists of P, Q and the WPG
  * below are kept for tests, the DuckDB oracle and the benchmark's probes.
  */
object BipartiteGraph {

  /** The operator of A (rows u, columns v, entries w), built and cached by
    * one Spark job (`operator/build`) that also finds the first bad edge;
    * the caller unpersists it.
    *
    * @throws IllegalArgumentException naming the first bad edge if an id or
    *         weight is null, a weight is NaN, infinite or ≤ 0, or an id is
    *         < 0 — the degree scalings would turn it into NaN or ∞
    *         everywhere. Edges with a null come first, then (u, v, w) order.
    */
  def operator(edges: DataFrame): SparseOp = {
    val a = SparseOp(edges, "u", "v", "w")
    a.firstInvalid.foreach { e =>
      a.unpersist()
      throw new IllegalArgumentException(
        s"bad edge ${e.show("u", "v", "w")}: ids must be ≥ 0 and weights finite and > 0")
    }
    a
  }

  /** `f` applied to the graph's [[operator]], held for the duration of the
    * call; `f` materialises whatever it returns that reads the operator.
    */
  def withOperator[T](edges: DataFrame)(f: SparseOp => T): T = {
    val a = operator(edges)
    try f(a) finally a.unpersist()
  }

  /** Requires that the graph with operator `a` has at least `k` U-side
    * vertices to make `k` clusters of, from the counts of the operator's
    * build, so it runs no Spark job.
    *
    * @throws IllegalArgumentException naming k and |U| otherwise
    */
  def requireClusters(a: SparseOp, k: Int): Unit =
    require(k <= a.numRows, s"k = $k clusters exceed |U| = ${a.numRows} vertices")

  /** Weighted out-degrees of the U side: `(u, du)`. */
  def uDegrees(edges: DataFrame): DataFrame =
    edges.groupBy("u").agg(sum("w").as("du"))

  /** Weighted degrees of the V side: `(v, dv)`. */
  def vDegrees(edges: DataFrame): DataFrame =
    edges.groupBy("v").agg(sum("w").as("dv"))

  /** Distinct U ids as a single-column `id` DataFrame. */
  def uIds(edges: DataFrame): DataFrame = edges.select(col("u").as("id")).distinct()

  /** Distinct V ids as a single-column `id` DataFrame. */
  def vIds(edges: DataFrame): DataFrame = edges.select(col("v").as("id")).distinct()

  /** Transition matrix P as edges `(u, v, p)` — Eq. (1). */
  def pEdges(edges: DataFrame): DataFrame =
    edges.join(uDegrees(edges), "u")
      .select(col("u"), col("v"), (col("w") / col("du")).as("p"))

  /** Matrix Q as edges `(v, u, q)` with `q = w / sqrt(du · dv)`. */
  def qEdges(edges: DataFrame): DataFrame =
    edges.join(uDegrees(edges), "u").join(vDegrees(edges), "v")
      .select(col("v"), col("u"),
              (col("w") / sqrt(col("du") * col("dv"))).as("q"))

  /** Materialised WPG edge weights `w_V(v_j, v_l)` (Eq. 2/4) for tests and
    * the oracle — quadratic in the worst case, never used by the algorithms.
    */
  def wpgEdges(edges: DataFrame): DataFrame = {
    val q  = qEdges(edges)
    val q1 = q.select(col("v").as("vj"), col("u"), col("q").as("q1"))
    val q2 = q.select(col("v").as("vl"), col("u"), col("q").as("q2"))
    q1.join(q2, "u")
      .groupBy("vj", "vl")
      .agg(sum(col("q1") * col("q2")).as("wv"))
  }
}
