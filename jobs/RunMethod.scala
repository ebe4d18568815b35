package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.baselines.Registry
import repro.core.Metrics
import repro.data.Catalog

/** spark-submit entrypoint: run one method on one dataset analog.
  *
  * Usage: spark-submit --class repro.jobs.RunMethod repro.jar <dataset> <method> [seed]
  * e.g.   ... RunMethod CORA "HOPE+ (SNEM)" 7
  */
object RunMethod {
  def main(args: Array[String]): Unit = {
    require(args.length >= 2, "usage: RunMethod <dataset> <method> [seed]")
    val spark = SparkSession.builder().appName("repro-run-method").getOrCreate()
    val spec = Catalog.byName(args(0))
    val method = Registry.byName(args(1))
    val seed = if (args.length > 2) args(2).toLong else 2024L
    val g = spec.generate(spark)
    val edges = g.edges.cache()
    println(s"dataset=${spec.name} |E|=${edges.count()} k=${spec.cfg.k} method=${method.name}")
    val t0 = System.nanoTime()
    val assign = method.cluster(spark, edges, spec.cfg.k, seed)
    val s = Metrics.evaluate(assign, g.uLabels)
    println(f"result: $s  time=${(System.nanoTime() - t0) / 1e9}%.1f s")
    spark.stop()
  }
}
