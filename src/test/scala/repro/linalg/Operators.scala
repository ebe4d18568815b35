package repro.linalg

import org.apache.spark.sql.DataFrame

/** Graph operators under a chosen partition count, for partition-invariance
  * tests outside this package.
  */
object Operators {

  /** The operator of the raw edges `(u, v, w)` under `numPartitions` partitions. */
  def partitioned(edges: DataFrame, numPartitions: Int): SparseOp =
    SparseOp(edges, "u", "v", "w", numPartitions)
}
