package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.json4s.DefaultFormats
import org.json4s.jackson.Serialization

import repro.core.{BipartiteGraph, Hope, HopePlus, KMeansD, Metrics}
import repro.data.BipartiteGen
import repro.linalg.{Block, SubspaceIteration}

/** Benchmark driver JVM: one closed-loop client running HOPE / HOPE+ jobs on a
  * cached, generated edge list. Launched by `perfbench/run.py`, which turns the
  * report this prints into the benchmark's metrics.
  *
  * A run's input is one graph of the workload's shape: workload seed n is
  * generated with `BipartiteGen.Config.seed = 100·n` (the generator draws from
  * seeds s … s+5, so the graphs of two workload seeds are independent).
  *
  * Modes:
  *  - `run`    set up (Spark session + generation and caching of the graph)
  *             `--setups` times with an untimed warm-up job after the first,
  *             then timed jobs for `--seconds`; with `--trace 1` instead a
  *             traced job between two untraced ones, kernel probes, and one
  *             job on a single-core session.
  *  - `digest` print the graph's edge count and checksum.
  */
object Main {

  /** Iteration counts of one request. */
  final case class Iters(power: Int, kMeans: Int, rounds: Int)

  // Algorithm parameters, pinned rather than taken from the Params defaults.
  // The iteration caps are below the bench suites' (8 power steps, 25 k-means
  // iterations) to keep a run short; k-means often runs to its cap, so a low
  // cap also keeps request times from depending on the graph.
  val Alpha = 0.3
  val Timed = Iters(power = 2, kMeans = 10, rounds = 30)
  /** Warm-up, untimed: one request with every call of a timed one at fewer
    * iterations. A fresh JVM's requests keep getting faster while the JIT
    * compiles Spark's and the generated code. On corafull-wide, 4 cores, the
    * timed request after this warm-up took as long as after a full request
    * (18.7 s), and the warm-up took 21 s against 27 s.
    */
  val WarmUp = Iters(power = 1, kMeans = 2, rounds = 2)
  val AlgoSeed = 7L
  val ShufflePartitions = 16
  /** Guard columns the subspace iteration carries beyond β. */
  val Oversample = 4

  def betaFor(k: Int): Int = math.min(5 * k, math.max(k + 2, 160))

  final class Args(argv: Array[String]) {
    private val m: Map[String, String] = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def str(k: String): String = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    def long(k: String): Long = str(k).toLong
    def int(k: String): Int = str(k).toInt
    def double(k: String): Double = str(k).toDouble
  }

  def main(argv: Array[String]): Unit = {
    val mode = argv.headOption.getOrElse("")
    val a = new Args(argv.drop(1))
    val cfg = BipartiteGen.Config(
      nU = a.long("nu"), nV = a.long("nv"), k = a.int("k"), targetEdges = a.long("edges"),
      weighted = a.int("weighted") == 1, hubFrac = a.double("hub-frac"),
      sizeSkew = a.double("size-skew"), seed = 100L * a.long("seed"))
    mode match {
      case "run"    => new Run(a, cfg).apply()
      case "digest" => digest(a, cfg)
      case other    => throw new IllegalArgumentException(s"unknown mode '$other'")
    }
  }

  def session(a: Args, cores: Int): SparkSession = {
    val work = Paths.get(a.str("work")).toAbsolutePath
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .getOrCreate()
  }

  /** Spark settings that shape the measured plans, recorded with the results. */
  def settings(spark: SparkSession): Map[String, String] =
    Seq("spark.master", "spark.sql.shuffle.partitions", "spark.sql.autoBroadcastJoinThreshold",
        "spark.sql.adaptive.enabled")
      .map(k => k -> spark.conf.getOption(k).getOrElse(spark.sparkContext.getConf.get(k, "(default)")))
      .toMap ++ Map("spark.version" -> spark.version,
                    "java.version" -> System.getProperty("java.version"),
                    "max_heap_mb" -> (Runtime.getRuntime.maxMemory / (1L << 20)).toString)

  private def digest(a: Args, cfg: BipartiteGen.Config): Unit = {
    val spark = session(a, a.int("cores"))
    try {
      val row = BipartiteGen.planted(spark, cfg).edges
        .agg(count(lit(1)), bit_xor(xxhash64(col("u"), col("v"), col("w"))))
        .head()
      println("PERFBENCH_RESULT " + toJson(Map("n_e" -> row.getLong(0), "checksum" -> row.getLong(1))))
    } finally spark.stop()
  }

  def toJson(report: AnyRef): String = Serialization.write(report)(DefaultFormats)

  /** Peak resident set size of this JVM (VmHWM), in MB. */
  def peakRssMb(): Double = {
    val lines = new String(Files.readAllBytes(Paths.get("/proc/self/status")), StandardCharsets.UTF_8)
    val kb = lines.linesIterator.collectFirst {
      case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toLong
    }.getOrElse(throw new IllegalStateException("VmHWM not reported by the OS"))
    kb / 1024.0
  }
}

/** A generated graph, cached: the program's input and the planted labels. */
final case class Loaded(edges: DataFrame, labels: DataFrame, nU: Long, nE: Long) {
  def unpersist(): Unit = { edges.unpersist(); labels.unpersist() }
}

/** One `run` invocation: set-up, untimed warm-up, then timed or traced jobs. */
final class Run(a: Main.Args, cfg: BipartiteGen.Config) {
  import Main._

  private val k = cfg.k
  private val beta = betaFor(k)
  private val traced = a.int("trace") == 1

  private var spark: SparkSession = _
  private var graph: Loaded = _

  private def load(): Loaded = {
    val g = BipartiteGen.planted(spark, cfg)
    val edges = g.edges.cache()
    val labels = g.uLabels.cache()
    Loaded(edges, labels, nU = labels.count(), nE = edges.count())
  }

  def apply(): Unit = {
    val report = mutable.LinkedHashMap.empty[String, Any]
    val nSetups = a.int("setups")
    report("setup_s") = (1 to nSetups).map { r =>
      val t0 = System.nanoTime()
      spark = session(a, a.int("cores"))
      val listener = if (traced && r == nSetups) Some(new SpanListener) else None
      listener.foreach(spark.sparkContext.addSparkListener)
      val gen = new Tracer(spark.sparkContext, listener.nonEmpty)
      gen.span("setup", "data.generate") { graph = load() }
      val secs = (System.nanoTime() - t0) / 1e9
      listener.foreach { l =>
        val c = l.drain(spark.sparkContext)
        spark.sparkContext.removeSparkListener(l)
        report("generate") = spanReport(gen.spans.head, c.get(gen.key("setup", "data.generate")))
      }
      // The warm-up request runs right after the first, cold set-up, so the
      // later set-ups are timed in a warmer JVM too.
      if (r == 1) oneJob(new Tracer(spark.sparkContext, traced = false), "warmup", WarmUp, evaluate = false)
      if (r < nSetups) { graph.unpersist(); spark.stop() }
      secs
    }
    report("settings") = settings(spark)
    report("k") = k
    report("beta") = beta
    report("width") = beta + Oversample
    report("graph") = Map("seed" -> cfg.seed, "n_u" -> graph.nU, "n_e" -> graph.nE,
                          "n_v" -> graph.edges.select("v").distinct().count())

    val plain = new Tracer(spark.sparkContext, traced = false)
    if (!traced) {
      report("jobs") = requests(plain)
      report("peak_rss_mb") = peakRssMb()
    } else {
      // The traced request runs between two untraced ones and is compared
      // with their mean: the JVM is still warming, so each request tends to
      // be faster than the one before. The listener is attached only around
      // traced work.
      val listener = new SpanListener
      val tr = new Tracer(spark.sparkContext, traced = true)
      def withListener[T](body: => T): (T, Map[String, SpanCounters]) = {
        spark.sparkContext.addSparkListener(listener)
        try { val out = body; (out, listener.drain(spark.sparkContext)) }
        finally spark.sparkContext.removeSparkListener(listener)
      }
      val u0 = oneJob(plain, "u0", Timed, evaluate = true)
      val t0 = withListener(oneJob(tr, "t0", Timed, evaluate = true))._1
      report("jobs") = Seq(u0, oneJob(plain, "u1", Timed, evaluate = true))
      report("traced_jobs") = Seq(t0)
      val (_, counters) = withListener(probes(tr))
      report("spans") = tr.spans.map(s => spanReport(s, counters.get(tr.key(s.trace, s.name))))
      // Single-core baseline: the request again on a local[1] session. It
      // reuses this JVM, so the JIT is at least as warm as for the jobs
      // above; it is compared with the last untraced one.
      graph.unpersist()
      spark.stop()
      spark = session(a, 1)
      graph = load()
      report("one_core_jobs") =
        Seq(oneJob(new Tracer(spark.sparkContext, traced = false), "c0", Timed, evaluate = true))
    }
    spark.stop()
    println("PERFBENCH_RESULT " + toJson(report))
  }

  private def spanReport(s: Span, c: Option[SpanCounters]): Map[String, Any] = {
    val base = Map[String, Any]("trace" -> s.trace, "name" -> s.name, "parent" -> s.parent,
                                "start_ns" -> s.startNs, "end_ns" -> s.endNs, "wall_s" -> s.wallS)
    c.fold(base) { c =>
      base ++ Map("jobs" -> c.jobs, "stages" -> c.stages, "tasks" -> c.tasks,
                  "task_run_s" -> c.runMs / 1e3, "gc_s" -> c.gcMs / 1e3,
                  "shuffle_write_mb" -> c.shuffleWriteBytes / 1e6,
                  "shuffle_read_mb" -> c.shuffleReadBytes / 1e6,
                  "spill_mb" -> c.spillBytes / 1e6)
    }
  }

  /** Closed loop: the next job starts only after the previous one and its
    * correctness check have finished. Runs at least one job, and another
    * only if it is expected to end within `--seconds`.
    */
  private def requests(tr: Tracer): Seq[Map[String, Any]] = {
    val out = mutable.ArrayBuffer.empty[Map[String, Any]]
    val t0 = System.nanoTime()
    val budgetNs = (a.double("seconds") * 1e9).toLong
    def elapsed = System.nanoTime() - t0
    var n = 0
    do {
      out += oneJob(tr, s"j$n", Timed, evaluate = true)
      n += 1
    } while (elapsed + elapsed / n <= budgetNs)
    out.toSeq
  }

  /** One request: the sequence of public calls of the paper's
    * pipeline, each result materialised before the next call starts; then,
    * outside the timed job, the correctness gate.
    */
  private def oneJob(tr: Tracer, id: String, it: Iters, evaluate: Boolean): Map[String, Any] = {
    val rec = mutable.LinkedHashMap[String, Any]("id" -> id, "n_e" -> graph.nE)
    try {
      val ((hopeA, fnem, snem, walls), jobSpan) = tr.span(id, "job") {
        val (x, sEmbed) = tr.span(id, "hope.embed", "job") {
          val x = Hope.embed(graph.edges, k, Hope.Params(alpha = Alpha, beta = beta,
            powerIters = it.power, kMeansIters = it.kMeans, seed = AlgoSeed)).cache()
          x.count()
          x
        }
        val (hopeA, sKm) = tr.span(id, "kmeansd.run", "job") {
          KMeansD.run(x, k, maxIters = it.kMeans, seed = AlgoSeed)
        }
        val (l, sLeft) = tr.span(id, "hopeplus.left_singular", "job") {
          HopePlus.leftSingular(x, k).transform(Block.localize)
        }
        val (fnem, sF) = tr.span(id, "hopeplus.round_fnem", "job") {
          HopePlus.round(l, k, HopePlus.Fnem, maxRounds = it.rounds)
        }
        val (snem, sS) = tr.span(id, "hopeplus.round_snem", "job") {
          HopePlus.round(l, k, HopePlus.Snem, maxRounds = it.rounds)
        }
        x.unpersist()
        (hopeA, fnem, snem, (sEmbed.wallS, sKm.wallS, sLeft.wallS, sF.wallS, sS.wallS))
      }
      val (embedS, kmS, leftS, fS, sS) = walls
      rec ++= Seq("job_s" -> jobSpan.wallS, "hope_s" -> (embedS + kmS),
                  "fnem_s" -> (embedS + leftS + fS), "snem_s" -> (embedS + leftS + sS))
      if (evaluate) tr.span(id, "metrics.evaluate") {
        Seq("hope" -> hopeA, "fnem" -> fnem, "snem" -> snem).foreach { case (name, assign) =>
          rec(s"${name}_valid") = validPartition(assign, graph.nU)
          rec(s"${name}_ari") = Metrics.evaluate(assign, graph.labels).ari
        }
      }
    } catch {
      case NonFatal(e) => rec("error") = s"${e.getClass.getName}: ${e.getMessage}"
    }
    // Let the context cleaner drop the finished job's checkpoints and shuffle
    // files, so every job starts from the same cache state.
    System.gc()
    rec.toMap
  }

  /** Exactly one row per generated U id and cluster ids in [0, k). The
    * generator's U ids are 0 until nU, so n rows with n distinct ids, all in
    * that range, are exactly those ids.
    */
  private def validPartition(assign: DataFrame, nU: Long): Boolean = {
    val r = assign.agg(count(lit(1)), countDistinct(col("id")), min(col("id")), max(col("id")),
                       min(col("cluster")), max(col("cluster"))).head()
    def num(i: Int) = r.getAs[Number](i).longValue
    r.getLong(0) == nU && r.getLong(1) == nU && num(2) >= 0 && num(3) < nU &&
      num(4) >= 0 && num(5) < k
  }

  /** Each inner kernel of `Hope.embed` called once on the graph's Q and β. */
  private def probes(tr: Tracer): Unit = {
    val id = "probe"
    val edges = graph.edges
    val (q, _) = tr.span(id, "bipartitegraph.q_edges") {
      val q = BipartiteGraph.qEdges(edges).cache()
      q.count()
      q
    }
    val vIds = BipartiteGraph.vIds(edges)
    tr.span(id, "subspace.top_left_singular") {
      SubspaceIteration.topLeftSingular(q, rowCol = "v", colCol = "u", wCol = "q",
        rowIds = vIds, beta = beta, powerIters = Timed.power, seed = AlgoSeed)._1.count()
    }
    val y = Block.localize(Block.gaussianBlock(vIds, beta + Oversample, AlgoSeed))
    tr.span(id, "block.spmm") {
      Block.spmm(q, y, srcCol = "v", dstCol = "u", wCol = "q").foreach(_ => ())
    }
    tr.span(id, "block.gram")(Block.gram(y))
    tr.span(id, "block.orthonormalize")(Block.orthonormalize(y).foreach(_ => ()))
    tr.span(id, "block.localize")(Block.localize(y))
    q.unpersist()
  }
}
