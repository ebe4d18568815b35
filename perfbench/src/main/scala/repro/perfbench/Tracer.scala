package repro.perfbench

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Task counters summed over every Spark stage that ran inside one span. */
final class SpanCounters {
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var runMs = 0L
  var gcMs = 0L
  var shuffleWriteBytes = 0L
  var shuffleReadBytes = 0L
  var spillBytes = 0L
}

/** One timed interval on the driver: `trace` groups the spans of one request. */
final case class Span(trace: String, name: String, parent: String, startNs: Long, endNs: Long) {
  def wallS: Double = (endNs - startNs) / 1e9
}

/** Attributes Spark's task metrics to the span that was open on the driver
  * when each Spark job was submitted. The span key travels as a Spark local
  * property, which Spark copies onto the job-start and stage-submitted events.
  */
final class SpanListener extends SparkListener {
  private val stageKey = new ConcurrentHashMap[Int, String]()
  private val drainJobs = ConcurrentHashMap.newKeySet[Int]()
  @volatile private var drainLatch = new CountDownLatch(1)
  // Written only by the listener-bus thread; read after `drain` returns.
  private val counters = mutable.Map.empty[String, SpanCounters]

  private def keyOf(props: java.util.Properties): Option[String] =
    Option(props).flatMap(p => Option(p.getProperty(SpanListener.Property)))

  private def counter(key: String) = counters.getOrElseUpdate(key, new SpanCounters)

  override def onJobStart(e: SparkListenerJobStart): Unit = keyOf(e.properties).foreach { key =>
    if (key == SpanListener.DrainKey) drainJobs.add(e.jobId) else counter(key).jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (drainJobs.remove(e.jobId)) drainLatch.countDown()

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    keyOf(e.properties).filter(_ != SpanListener.DrainKey).foreach { key =>
      stageKey.put(e.stageInfo.stageId, key)
      counter(key).stages += 1
    }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val key = stageKey.get(e.stageId)
    val m = e.taskMetrics
    if (key != null && m != null) {
      val c = counter(key)
      c.tasks += 1
      c.runMs += m.executorRunTime
      c.gcMs += m.jvmGCTime
      c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      c.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      c.spillBytes += m.memoryBytesSpilled + m.diskBytesSpilled
    }
  }

  /** Waits until the listener has seen every event posted so far, by running
    * a marker job and waiting for its end event (one listener queue delivers
    * events in posting order), then returns a snapshot of the counters.
    */
  def drain(sc: SparkContext): Map[String, SpanCounters] = {
    drainLatch = new CountDownLatch(1)
    sc.setLocalProperty(SpanListener.Property, SpanListener.DrainKey)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(SpanListener.Property, null)
    require(drainLatch.await(120, TimeUnit.SECONDS), "listener bus did not drain")
    counters.toMap
  }
}

object SpanListener {
  val Property = "perfbench.span"
  val DrainKey = "perfbench.drain"
}

/** Driver-side span recorder. Wall times are always taken (they feed the
  * end-to-end metrics); with `traced` set, each span's key is also published
  * as a Spark local property so a [[SpanListener]] can attribute task metrics.
  * Spans stay in memory until the run writes them out.
  */
final class Tracer(sc: SparkContext, traced: Boolean) {
  val spans = mutable.ArrayBuffer.empty[Span]

  def key(trace: String, name: String): String = s"$trace/$name"

  def span[T](trace: String, name: String, parent: String = "")(body: => T): (T, Span) = {
    val prev = sc.getLocalProperty(SpanListener.Property)
    if (traced) sc.setLocalProperty(SpanListener.Property, key(trace, name))
    val t0 = System.nanoTime()
    try {
      val out = body
      val s = Span(trace, name, parent, t0, System.nanoTime())
      spans += s
      (out, s)
    } finally if (traced) sc.setLocalProperty(SpanListener.Property, prev)
  }
}
