package repro

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}

import scala.jdk.CollectionConverters._

import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.linalg.{Block, Slab}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** `body`'s result, with `listener` registered while `body` runs and until
    * it has been sent every event of the jobs `body` submitted.
    */
  def listening[T](listener: SparkListener)(body: => T): T = {
    val sc = spark.sparkContext
    val seen = new CountDownLatch(1)
    // Listeners on one bus get every event in order, one listener after
    // another: once this one sees the marker job, `listener` has been sent
    // every event before it.
    val marker = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (SparkSpec.description(e) == "marker") seen.countDown()
    }
    sc.addSparkListener(listener)
    sc.addSparkListener(marker)
    try {
      val out = body
      Block.labelJobs(sc, "marker")(sc.parallelize(Seq(1)).count())
      seen.await(30, TimeUnit.SECONDS)
      out
    } finally { sc.removeSparkListener(marker); sc.removeSparkListener(listener) }
  }

  /** The descriptions of the Spark jobs `body` submits, in order. */
  def jobLabels(body: => Any): Seq[String] = {
    val labels = new ConcurrentLinkedQueue[String]
    listening(new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = labels.add(SparkSpec.description(e))
    })(body)
    labels.asScala.toSeq.takeWhile(_ != "marker")
  }

  /** The rows of a slab block by id. */
  def collectRows(x: RDD[Slab]): Map[Long, Array[Double]] =
    x.collect().iterator.flatMap(s => Iterator.range(0, s.size).map(i => s.ids(i) -> s.row(i))).toMap

  /** The RDDs persisted after `results` are built and counted, and not
    * before, that the lineage of no result reads.
    */
  def leakedBy(results: => Seq[Dataset[_]]): Iterable[RDD[_]] = {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val rs = results
    rs.foreach(_.count())
    def lineage(r: RDD[_]): Set[Int] = r.dependencies.map(d => lineage(d.rdd)).foldLeft(Set(r.id))(_ ++ _)
    val returned = rs.flatMap(r => lineage(r.rdd)).toSet
    sc.getPersistentRDDs.collect { case (id, r) if !before.contains(id) && !returned.contains(id) => r }
  }
}

object SparkSpec {

  /** A job's description, `-` if it has none. */
  def description(e: SparkListenerJobStart): String =
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description"))).getOrElse("-")

  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
