package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.Catalog
import repro.eval.TableRunner

/** spark-submit entrypoint reproducing Table 4 (clustering quality on the 5
  * small datasets, all 16 methods).
  */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("repro-table4").getOrCreate()
    val res = TableRunner.run(spark, Catalog.small)
    println(res.render())
    spark.stop()
  }
}
