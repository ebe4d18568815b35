package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.Catalog

/** spark-submit entrypoint reproducing Table 2 (dataset statistics) over the
  * synthetic analogs: |U|, |V|, |E|, weightedness, #clusters, next to the
  * paper's published statistics.
  */
object Table2Job {

  def statsLines(spark: SparkSession, specs: Seq[Catalog.Spec]): Seq[String] =
    specs.map { spec =>
      val g = spec.generate(spark)
      val e = g.edges.count()
      val u = g.edges.select("u").distinct().count()
      val v = g.edges.select("v").distinct().count()
      val distinctW = g.edges.select("w").distinct().count()
      val typ = if (distinctW > 1) "weighted" else "unweighted"
      f"${spec.name}%-14s |U|=$u%-8d |V|=$v%-8d |E|=$e%-10d $typ%-10s k=${spec.cfg.k}%-4d " +
        f"(paper: ${spec.paperU}/${spec.paperV}/${spec.paperE}, k=${spec.paperK}; ${spec.scaleNote})"
    }

  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("repro-table2").getOrCreate()
    statsLines(spark, Catalog.all).foreach(println)
    spark.stop()
  }
}
