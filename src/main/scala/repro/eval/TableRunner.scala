package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines.{Baseline, Registry}
import repro.core.{BipartiteGraph, Hope, HopePlus, KMeansD, Metrics}
import repro.linalg.SparseOp
import repro.data.Catalog

/** Shared harness that reruns the paper's quality tables: generates each
  * dataset analog, runs each method (skipping those whose `maxEdges` cap the
  * graph exceeds — the paper's "-" cells), computes Acc/F1/NMI/ARI against
  * the planted labels, and renders rows like Tables 4/5. Also computes the
  * average-rank column (rank per metric per dataset, averaged).
  */
object TableRunner {

  final case class Cell(scores: Option[Metrics.Scores], seconds: Double)
  final case class TableResult(datasets: Seq[String],
                               methods: Seq[String],
                               cells: Map[(String, String), Cell]) {

    /** Average rank across datasets × metrics, as in the paper's last column. */
    def avgRank: Map[String, Double] = {
      val perMetric: Seq[((String, String), Seq[(String, Double)])] =
        for (d <- datasets; mIdx <- 0 until 4) yield {
          val vals = methods.flatMap { m =>
            cells.get((m, d)).flatMap(_.scores).map { s =>
              val v = mIdx match {
                case 0 => s.acc; case 1 => s.f1; case 2 => s.nmi; case _ => s.ari
              }
              m -> v
            }
          }
          ((d, mIdx.toString), vals)
        }
      val rankLists = perMetric.flatMap { case (_, vals) =>
        // Average rank within tied groups so equal scores share a rank.
        val sorted = vals.sortBy(-_._2)
        sorted.zipWithIndex
          .groupBy { case ((_, v), _) => math.round(v * 1e9) }
          .values.flatMap { grp =>
            val avg = grp.map(_._2 + 1.0).sum / grp.size
            grp.map { case ((m, _), _) => m -> avg }
          }
      }
      rankLists.groupBy(_._1).map { case (m, rs) => m -> rs.map(_._2).sum / rs.size }
    }

    def render(paper: Map[(String, String), (Double, Double, Double, Double)] = Map.empty): String = {
      val sb = new StringBuilder
      val ranks = avgRank
      sb.append(f"${"Method"}%-16s")
      datasets.foreach(d => sb.append(f"| ${d}%-42s"))
      sb.append("| AvgRank\n")
      methods.foreach { m =>
        sb.append(f"$m%-16s")
        datasets.foreach { d =>
          cells.get((m, d)) match {
            case Some(Cell(Some(s), secs)) =>
              sb.append(f"| A=${s.acc}%.3f F=${s.f1}%.3f N=${s.nmi}%.3f R=${s.ari}%.3f ${secs}%6.1fs ")
            case _ =>
              sb.append(f"| ${"-"}%-42s")
          }
          paper.get((m, d)).foreach { case (a, f1, n, r) =>
            sb.append(f"(paper A=$a%.3f F=$f1%.3f N=$n%.3f R=$r%.3f) ")
          }
        }
        sb.append(ranks.get(m).map(r => f"| $r%.2f").getOrElse("|   -"))
        sb.append('\n')
      }
      sb.toString
    }
  }

  /** Power iterations / β cap used by the bench path (paper defaults are
    * β = 5k; the cap keeps CORA-F's k=70 tractable on one machine).
    */
  private val BenchPowerIters = 8
  private val BetaCap = 160

  /** HOPE and both HOPE+ variants sharing one embedding + eigen stage —
    * Algorithm 2 Lines 1–4 are Algorithm 1 Lines 1–4, so the shared stage is
    * exactly the paper's structure, and its time is charged to all three.
    */
  private def runOurs(spark: SparkSession, edges: org.apache.spark.sql.DataFrame,
                      k: Int, seed: Long): Seq[(String, org.apache.spark.sql.DataFrame, Double)] = {
    val beta = math.min(5 * k, math.max(k + 2, BetaCap))
    val t0 = System.nanoTime()
    val x = BipartiteGraph.withOperator(edges)(Hope.embed(_, k,
      Hope.Params(beta = beta, powerIters = BenchPowerIters, seed = seed)))
    val tEmbed = (System.nanoTime() - t0) / 1e9
    try {
      val t1 = System.nanoTime()
      val hopeAssign = KMeansD.run(x, k, maxIters = 25, seed = seed)
      val tHope = tEmbed + (System.nanoTime() - t1) / 1e9

      val t2 = System.nanoTime()
      val l = SparseOp.materialize(HopePlus.leftSingular(x, k))
      val tEig = (System.nanoTime() - t2) / 1e9
      try {
        val t3 = System.nanoTime()
        val fnem = HopePlus.round(l, k, HopePlus.Fnem, maxRounds = 30)
        val tFnem = tEmbed + tEig + (System.nanoTime() - t3) / 1e9
        val t4 = System.nanoTime()
        val snem = HopePlus.round(l, k, HopePlus.Snem, maxRounds = 30)
        val tSnem = tEmbed + tEig + (System.nanoTime() - t4) / 1e9
        Seq(("HOPE", hopeAssign, tHope),
            ("HOPE+ (FNEM)", fnem, tFnem),
            ("HOPE+ (SNEM)", snem, tSnem))
      } finally l.unpersist()
    } finally x.unpersist()
  }

  /** Run `methods` over `specs`; one deterministic seed per (method, dataset).
    * Feasibility is judged on each dataset's PAPER-SCALE edge count so the
    * "-" pattern matches the paper's tables.
    */
  def run(spark: SparkSession, specs: Seq[Catalog.Spec],
          methods: Seq[Baseline] = Registry.all,
          seed: Long = 2024L,
          verbose: Boolean = true): TableResult = {
    val cells = scala.collection.mutable.Map.empty[(String, String), Cell]
    val ourNames = Registry.ours.map(_.name).toSet
    specs.foreach { spec =>
      val g = spec.generate(spark)
      val edges = g.edges.cache()
      val nEdges = edges.count()
      val labels = g.uLabels.cache()
      labels.count()
      if (verbose)
        println(s"[TableRunner] ${spec.name}: |E|=$nEdges (paper ${spec.paperEdgeCount}) k=${spec.cfg.k}")

      def record(name: String, mkAssign: () => (org.apache.spark.sql.DataFrame, Double)): Unit =
        try {
          val (assign, secs) = mkAssign()
          val s = Metrics.evaluate(assign, labels)
          cells((name, spec.name)) = Cell(Some(s), secs)
          if (verbose) println(f"[TableRunner]   $name%-14s $s  (${secs}%.1f s)")
        } catch {
          case e: Exception =>
            if (verbose) println(s"[TableRunner]   $name FAILED: ${e.getMessage}")
            cells((name, spec.name)) = Cell(None, 0.0)
        }

      methods.filterNot(m => ourNames.contains(m.name)).foreach { m =>
        if (m.feasible(spec.paperEdgeCount, spec.cfg.k)) {
          record(m.name, () => {
            val t0 = System.nanoTime()
            val a = m.cluster(spark, edges, spec.cfg.k, seed ^ m.name.hashCode.toLong)
            a.count()
            (a, (System.nanoTime() - t0) / 1e9)
          })
        } else {
          cells((m.name, spec.name)) = Cell(None, 0.0)
          if (verbose) println(s"[TableRunner]   ${m.name} skipped (paper-scale infeasible)")
        }
      }
      if (methods.exists(m => ourNames.contains(m.name))) {
        try {
          runOurs(spark, edges, spec.cfg.k, seed).foreach { case (name, assign, secs) =>
            record(name, () => (assign, secs))
          }
        } catch {
          case e: Exception =>
            if (verbose) println(s"[TableRunner]   ours FAILED: ${e.getMessage}")
            ourNames.foreach(n => cells((n, spec.name)) = Cell(None, 0.0))
        }
      }
      edges.unpersist(); labels.unpersist()
    }
    TableResult(specs.map(_.name), methods.map(_.name), cells.toMap)
  }
}
