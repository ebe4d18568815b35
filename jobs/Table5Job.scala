package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.Catalog
import repro.eval.TableRunner

/** spark-submit entrypoint reproducing Table 5 (clustering quality on the 5
  * large datasets; non-scalable methods show "-" as in the paper).
  */
object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("repro-table5").getOrCreate()
    val res = TableRunner.run(spark, Catalog.large)
    println(res.render())
    spark.stop()
  }
}
